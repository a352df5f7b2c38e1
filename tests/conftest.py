import hashlib

import pytest


@pytest.fixture(scope="session")
def golden_key() -> bytes:
    """Byte-shift key of the golden envelopes in tests/data.

    Seven bytes, so key periods straddle every tag block boundary; it ends
    in no newline for the key-file reader to strip.
    """
    return b"\x07fz\x00k\xffy"


@pytest.fixture(scope="session")
def golden_payload() -> bytes:
    """200 003 bytes of SHA-256 in counter mode: the same on every platform,
    spanning four tag blocks, the last one partial."""
    blocks = (hashlib.sha256(i.to_bytes(4, "big")).digest() for i in range(6251))
    return b"".join(blocks)[:200_003]
