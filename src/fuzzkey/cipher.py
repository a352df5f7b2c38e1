"""Key-cycled substitution cipher, keyed integrity tag, and the FZK1
envelope around serialized selections.

The cipher is a classical polyalphabetic construction: position ``t`` of the
plaintext is shifted by key byte ``t mod len(key)``.  ``byte-shift`` mode
works on whole bytes modulo 256; ``letters`` mode works on the A-Z alphabet
modulo 26.

SECURITY: this is an educational construction.  It is NOT secure against
modern cryptanalysis (or even classical frequency analysis) and must never
protect real secrets.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .errors import (
    ContractViolationError,
    DataFormatError,
    IntegrityError,
    InvalidKeyError,
    InvalidPlaintextError,
)

MODE_BYTE_SHIFT = "byte-shift"
MODE_LETTERS = "letters"

_MODE_CODES = {MODE_BYTE_SHIFT: 0x00, MODE_LETTERS: 0x01}
_CODE_MODES = {code: mode for mode, code in _MODE_CODES.items()}

MAGIC = b"FZK1"
ENVELOPE_VERSION = 1
_FLAG_TAG = 0x01

TAG_SEED = 14695981039346656037
TAG_MULTIPLIER = 1099511628211
_MASK64 = (1 << 64) - 1

_ORD_A, _ORD_Z = 0x41, 0x5A


def _is_letters(data: bytes) -> bool:
    return all(_ORD_A <= b <= _ORD_Z for b in data)


@dataclass(frozen=True)
class CipherKey:
    """Nonempty key bytes plus the mode they operate in."""

    data: bytes
    mode: str = MODE_BYTE_SHIFT

    def __post_init__(self) -> None:
        if self.mode not in _MODE_CODES:
            raise InvalidKeyError(f"unknown cipher mode {self.mode!r}")
        if not isinstance(self.data, (bytes, bytearray)) or len(self.data) == 0:
            raise InvalidKeyError("key must be a nonempty byte string")
        object.__setattr__(self, "data", bytes(self.data))
        if self.mode == MODE_LETTERS and not _is_letters(self.data):
            raise InvalidKeyError("letters-mode keys must contain only uppercase A-Z")


def _transform(data: bytes, key: CipherKey, sign: int) -> bytes:
    key_bytes = key.data
    n = len(key_bytes)
    if key.mode == MODE_BYTE_SHIFT:
        return bytes((b + sign * key_bytes[i % n]) % 256 for i, b in enumerate(data))
    if not _is_letters(data):
        raise InvalidPlaintextError("letters mode accepts only uppercase A-Z input")
    return bytes(
        ((b - _ORD_A) + sign * (key_bytes[i % n] - _ORD_A)) % 26 + _ORD_A
        for i, b in enumerate(data)
    )


def encrypt(plaintext: bytes, key: CipherKey) -> bytes:
    """Shift each plaintext byte by the cycling key; output length equals input length."""
    return _transform(plaintext, key, +1)


def decrypt(ciphertext: bytes, key: CipherKey) -> bytes:
    """Exact inverse of :func:`encrypt` (modular subtraction)."""
    return _transform(ciphertext, key, -1)


def make_tag(message: bytes, key: CipherKey) -> int:
    """Keyed 64-bit integrity tag (fold-and-multiply over key-mixed bytes).

    Deterministic and length-sensitive; the empty message maps to the seed
    constant.  This detects accidental and casual corruption; it is not a
    cryptographic MAC.
    """
    key_bytes = key.data
    n = len(key_bytes)
    t = TAG_SEED
    for i, m in enumerate(message):
        t = ((t ^ (m ^ key_bytes[i % n])) * TAG_MULTIPLIER) & _MASK64
    return t


def verify_tag(message: bytes, key: CipherKey, tag: int) -> bool:
    """True iff ``tag`` matches :func:`make_tag` for this message and key."""
    return make_tag(message, key) == tag


@dataclass(frozen=True)
class CipherEnvelope:
    """Versioned container for ciphertext, mode and an optional tag."""

    ciphertext: bytes
    mode: str = MODE_BYTE_SHIFT
    tag: int | None = None
    version: int = ENVELOPE_VERSION

    def __post_init__(self) -> None:
        if self.mode not in _MODE_CODES:
            raise DataFormatError(f"unknown cipher mode {self.mode!r}")
        if self.tag is not None and not 0 <= self.tag <= _MASK64:
            raise DataFormatError(f"tag must fit in 64 bits, got {self.tag!r}")
        object.__setattr__(self, "ciphertext", bytes(self.ciphertext))

    def to_bytes(self) -> bytes:
        """Bit-exact layout: magic, version, mode, flags, optional 8-byte
        big-endian tag, ciphertext."""
        flags = _FLAG_TAG if self.tag is not None else 0x00
        header = MAGIC + bytes([self.version, _MODE_CODES[self.mode], flags])
        if self.tag is not None:
            header += struct.pack(">Q", self.tag)
        return header + self.ciphertext

    @classmethod
    def from_bytes(cls, data: bytes) -> "CipherEnvelope":
        if len(data) < 7:
            raise DataFormatError(f"envelope truncated: {len(data)} bytes")
        if data[:4] != MAGIC:
            raise DataFormatError(f"bad magic {data[:4]!r}, expected {MAGIC!r}")
        version, mode_code, flags = data[4], data[5], data[6]
        if version != ENVELOPE_VERSION:
            raise DataFormatError(f"unsupported envelope version {version}")
        if mode_code not in _CODE_MODES:
            raise DataFormatError(f"unknown mode byte 0x{mode_code:02x}")
        if flags & ~_FLAG_TAG:
            raise DataFormatError(f"unknown flag bits 0x{flags:02x}")
        offset = 7
        tag = None
        if flags & _FLAG_TAG:
            if len(data) < offset + 8:
                raise DataFormatError("envelope truncated inside the tag field")
            (tag,) = struct.unpack(">Q", data[offset : offset + 8])
            offset += 8
        return cls(ciphertext=data[offset:], mode=_CODE_MODES[mode_code], tag=tag, version=version)


def seal(plaintext: bytes, key: CipherKey, with_tag: bool = True) -> CipherEnvelope:
    """Encrypt and wrap; the tag, when enabled, covers the ciphertext."""
    ciphertext = encrypt(plaintext, key)
    tag = make_tag(ciphertext, key) if with_tag else None
    return CipherEnvelope(ciphertext=ciphertext, mode=key.mode, tag=tag)


def open_envelope(envelope: CipherEnvelope, key: CipherKey) -> bytes:
    """Verify the tag (when present) and decrypt."""
    if key.mode != envelope.mode:
        raise InvalidKeyError(
            f"key mode {key.mode!r} does not match envelope mode {envelope.mode!r}"
        )
    if envelope.tag is not None and not verify_tag(envelope.ciphertext, key, envelope.tag):
        raise IntegrityError("integrity check failed")
    return decrypt(envelope.ciphertext, key)


def serialize_selection(result, feature_names: list[str] | None = None) -> bytes:
    """Canonical byte form of a selection: LF-terminated lines of
    ``rank<TAB>name<TAB>score`` with scores at fixed 9 decimals.

    ``feature_names`` maps feature ids to names; ids fall back to ``f<id>``.
    Equal results serialize byte-identically; an empty selection is the
    empty byte string.
    """
    chosen = set(result.selected)
    lines = []
    rank = 0
    for fid, score in result.ranked:
        if fid not in chosen:
            continue
        name = feature_names[fid] if feature_names is not None else f"f{fid}"
        if "\t" in name or "\n" in name or not name:
            raise ContractViolationError(f"feature name unsuitable for serialization: {name!r}")
        lines.append(f"{rank}\t{name}\t{score:.9f}\n")
        rank += 1
    return "".join(lines).encode("ascii")


def parse_selection(data: bytes) -> tuple[tuple[int, str, float], ...]:
    """Inverse of :func:`serialize_selection`: (rank, name, score) rows."""
    if data == b"":
        return ()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"serialized selection is not ASCII (byte {exc.start})") from None
    if not text.endswith("\n"):
        raise DataFormatError("serialized selection must end with a line feed")
    rows = []
    for line in text[:-1].split("\n"):
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataFormatError(f"expected rank<TAB>name<TAB>score, got {line!r}")
        try:
            rows.append((int(parts[0]), parts[1], float(parts[2])))
        except ValueError:
            raise DataFormatError(f"bad rank or score in {line!r}") from None
    return tuple(rows)
