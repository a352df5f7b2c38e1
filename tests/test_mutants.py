"""The table of ``tests/mutants.py`` still fits the source, so a change to a
mutated line fails here and not only when that script runs."""

import pytest

import mutants


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=[mutant.name for mutant in mutants.MUTANTS])
def test_snippet_occurs_once(mutant):
    # mutated() exits unless the snippet occurs exactly once in its file
    assert mutants.mutated(mutant) != (mutants.ROOT / mutant.path).read_text()
