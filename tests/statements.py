"""Count the statements of each module under ``src/fuzzkey``.

    python tests/statements.py

A statement is an ``ast.stmt`` node at any depth, a compound statement
counting once besides those it holds; the docstring of a module, class or
function is left out.  It prints one line per module and the total, the
measure the project's records quote for its size.  It uses only the
standard library, and pytest does not collect it, so it is not part of the
test suite.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fuzzkey"


def statements(source: str) -> int:
    """The statements of ``source``, docstrings left out."""
    tree = ast.parse(source)
    count = sum(isinstance(node, ast.stmt) for node in ast.walk(tree))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            count -= ast.get_docstring(node, clean=False) is not None
    return count


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = statements(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:<16}{count:>6}")
    print(f"{'total':<16}{total:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
