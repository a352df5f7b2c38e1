"""Allow ``python -m fuzzkey``."""

from .cli import run

run()
