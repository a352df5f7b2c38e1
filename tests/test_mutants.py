"""The table of ``tests/mutants.py`` still fits the source and the suite, so a
change to a mutated line, or a renamed test, fails here and not only when
that script runs."""

import subprocess
import sys

import pytest

import mutants


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=[mutant.name for mutant in mutants.MUTANTS])
def test_snippet_occurs_once(mutant):
    # mutated() exits unless the snippet occurs exactly once in its file
    assert mutants.mutated(mutant) != (mutants.ROOT / mutant.path).read_text()


def test_every_named_test_is_collected():
    tests = list(dict.fromkeys(test for mutant in mutants.MUTANTS for test in mutant.tests))
    command = [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *tests]
    proc = subprocess.run(command, cwd=mutants.ROOT, capture_output=True, text=True, timeout=120)
    # pytest exits 4 for a node id that matches no test
    assert proc.returncode == 0, proc.stdout + proc.stderr
    collected = proc.stdout.splitlines()
    missing = [test for test in tests if not any(line.startswith(test) for line in collected)]
    assert missing == []
