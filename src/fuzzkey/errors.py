"""Exception hierarchy shared by all fuzzkey modules, and the naming of
failed writes."""

import tempfile
from collections.abc import Iterator
from contextlib import contextmanager


class FuzzkeyError(Exception):
    """Base class for every error raised by this package."""


class ConfigurationError(FuzzkeyError):
    """A value violates a construction invariant (bad N, L, shape params, ...)."""


class ContractViolationError(FuzzkeyError):
    """Caller broke an operation precondition (length mismatch, empty input, ...)."""


class DataFormatError(FuzzkeyError):
    """Malformed input data: CSV dialect violations, bad envelope bytes."""


class InvalidKeyError(ConfigurationError):
    """Cipher key is empty or contains bytes outside the mode's alphabet."""


class InvalidPlaintextError(DataFormatError):
    """Plaintext contains bytes outside the cipher mode's alphabet."""


class IntegrityError(FuzzkeyError):
    """Envelope tag does not match the ciphertext."""


@contextmanager
def naming_writes(name: str | None = None) -> Iterator[None]:
    """Name what the block writes in an ``OSError`` that it raises with an
    error number but no file name, as a write that fails with ``EFBIG`` or
    ``ENOSPC`` raises one: the file ``name``, or for ``None`` a temporary
    file in the directory :mod:`tempfile` uses."""
    try:
        yield
    except OSError as exc:
        if exc.filename is not None or exc.errno is None:
            raise
        if name is not None:
            exc.filename = name
            raise
        # a new exception, whose message survives the pickling that brings
        # a parsing process's error to its parent
        raise OSError(exc.errno, f"{exc.strerror}: a temporary file in {tempfile.gettempdir()}") from None
