"""Key-cycled substitution cipher, keyed integrity tag, and the FZK1
envelope around serialized selections.

The cipher is a classical polyalphabetic construction: position ``t`` of the
plaintext is shifted by key byte ``t mod len(key)``.  ``byte-shift`` mode
works on whole bytes modulo 256; ``letters`` mode works on the A-Z alphabet
modulo 26.

Both the shift and the tag run as numpy kernels, bit-identical to the
per-byte definitions given in their docstrings.  Each takes a message in
parts, :data:`BLOCK_BYTES` at a time, through one key stream per message:
the key bytes, or their shifts, tiled once into a pad of ``BLOCK_BYTES +
len(key)`` bytes, and the key phase, which only the stream advances.  So a
block meets its key bytes as one contiguous slice of the pad.  The shift
works in place, and the tag fold carries ``t`` from one part into the next,
so :func:`make_tag` is a fold from :data:`TAG_SEED`.  :func:`shift_blocks`
and :class:`TagFold` run them over a message given as a sequence of blocks,
which is how the command line streams a payload; the ``bytes`` functions
(:func:`encrypt`, :func:`decrypt`, :func:`seal`, :func:`open_envelope`,
:class:`CipherEnvelope`) walk a whole message through the same kernels, and
refuse a message that is not bytes-like.
:func:`check_ciphertext` makes every check that opening makes, so a caller
verifies the tag before any byte is shifted.  The envelope header is built by
:func:`envelope_header` and parsed by :func:`parse_envelope_header` alone.

SECURITY: this is an educational construction.  It is NOT secure against
modern cryptanalysis (or even classical frequency analysis) and must never
protect real secrets.
"""

from __future__ import annotations

import functools
import struct
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractViolationError,
    DataFormatError,
    FuzzkeyError,
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
# the longest header: magic, version, mode, flags and the tag
MAX_HEADER_BYTES = 15

TAG_SEED = 14695981039346656037
TAG_MULTIPLIER = 1099511628211
_MASK64 = (1 << 64) - 1

_ORD_A = 0x41
_LETTERS = 26

# every kernel takes a message this many bytes at a time, which bounds its
# temporaries whatever the message length; the command line reads, shifts,
# folds and writes blocks of this size
BLOCK_BYTES = 1 << 16
# a little-endian 64-bit word times this holds in byte j the sum of its bytes
# 0..j, plus what the bytes below carry into it
_BYTE_SUMS = np.uint64(0x0101010101010101)


def _is_letters(data: bytes | np.ndarray) -> bool:
    """True iff every byte is in A-Z (vacuously for empty input)."""
    codes = np.frombuffer(data, dtype=np.uint8)
    # uint8 subtraction wraps bytes below "A" to 191 and above
    return all(
        ((codes[start : start + BLOCK_BYTES] - _ORD_A) < _LETTERS).all()
        for start in range(0, len(codes), BLOCK_BYTES)
    )


def _bytes_like(data, error: type[FuzzkeyError] = ContractViolationError) -> memoryview:
    """``data`` as a memoryview, or ``error`` when it does not support the
    buffer protocol: ``bytearray`` would read an ``int`` as a length."""
    try:
        return memoryview(data)
    except TypeError:
        raise error(f"expected a bytes-like object, got {type(data).__name__}") from None


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


class _KeyStream:
    """The key bytes, or their shifts, that one message meets in order:
    ``codes`` tiled once into a pad of ``BLOCK_BYTES + len(codes)`` bytes,
    and the key phase of the message's next byte."""

    def __init__(self, codes: np.ndarray) -> None:
        # codes, then BLOCK_BYTES more that wrap around; np.resize would
        # concatenate one copy of codes at a time
        self._pad = np.pad(codes, (0, BLOCK_BYTES), mode="wrap")
        self._period = len(codes)
        self._phase = 0

    def window(self, length: int) -> np.ndarray:
        """The codes that the next ``length`` message bytes meet, at most
        :data:`BLOCK_BYTES` of them, as one contiguous slice of the pad:
        ``window[i]`` is ``codes[(phase + i) % len(codes)]``."""
        window = self._pad[self._phase : self._phase + length]
        self._phase = (self._phase + length) % self._period
        return window


def _shifts(key: CipherKey, sign: int) -> _KeyStream:
    """The stream of shifts that :func:`_shift` adds: ``sign * k`` mod 256
    in byte-shift mode; in letters mode ``sign * (k - 65)`` reduced into
    [0, 26), so letter plus shift stays below 51 and uint8 cannot wrap
    before the final mod 26."""
    codes = np.frombuffer(key.data, dtype=np.uint8)
    if key.mode == MODE_LETTERS:
        codes = codes - _ORD_A
        if sign < 0:
            codes = (_LETTERS - codes) % _LETTERS
    elif sign < 0:
        codes = 0 - codes  # uint8 arrays wrap modulo 256
    return _KeyStream(codes)


def _shift(buf, mode: str, shifts: _KeyStream) -> None:
    """In place, position ``i`` of the writable buffer ``buf`` becomes
    ``(b + sign * k[j % n]) mod 256`` in byte-shift mode and
    ``((b - 65) + sign * (k[j % n] - 65)) mod 26 + 65`` in letters mode,
    where ``shifts`` is ``_shifts(key, sign)`` and ``j`` is the position
    in the message of ``buf``'s byte ``i``: ``buf`` continues the message
    whose bytes ``shifts`` has met.

    In letters mode a byte outside A-Z raises before any byte changes.
    """
    codes = np.frombuffer(buf, dtype=np.uint8)
    if mode == MODE_LETTERS:
        if not _is_letters(codes):
            raise InvalidPlaintextError("letters mode accepts only uppercase A-Z input")
        codes -= _ORD_A
    for start in range(0, len(codes), BLOCK_BYTES):
        block = codes[start : start + BLOCK_BYTES]
        block += shifts.window(len(block))
    if mode == MODE_LETTERS:
        codes %= _LETTERS
        codes += _ORD_A


def shift_blocks(blocks: Iterable, key: CipherKey, sign: int) -> Iterator:
    """Shift each writable block in place, as the next part of one message,
    and yield it: ``sign`` +1 encrypts and -1 decrypts."""
    shifts = _shifts(key, sign)
    for block in blocks:
        _shift(block, key.mode, shifts)
        yield block


def _shifted(data, key: CipherKey, sign: int) -> bytearray:
    """A shifted copy of the bytes-like message ``data``."""
    buf = bytearray(_bytes_like(data))
    _shift(buf, key.mode, _shifts(key, sign))
    return buf


def encrypt(plaintext: bytes, key: CipherKey) -> bytes:
    """Shift each plaintext byte by the cycling key; output length equals input length."""
    return bytes(_shifted(plaintext, key, +1))


def decrypt(ciphertext: bytes, key: CipherKey) -> bytes:
    """Exact inverse of :func:`encrypt` (modular subtraction)."""
    return bytes(_shifted(ciphertext, key, -1))


@functools.cache
def _descending_powers(count: int) -> np.ndarray:
    """``powers[j] = TAG_MULTIPLIER ** (count - 1 - j) mod 2**64``, built
    once per ``count`` in a process and read-only, as every caller shares it."""
    powers = np.full(count, TAG_MULTIPLIER, dtype=np.uint64)
    powers[:1] = 1
    np.multiply.accumulate(powers, out=powers)  # uint64 arrays wrap silently
    powers.flags.writeable = False
    return powers[::-1]


def _prefix_xor(buf: np.ndarray, lane: int) -> None:
    """In place, the ``lane`` bit of ``buf[i]`` becomes that bit of
    ``buf[0] ^ ... ^ buf[i]``; ``lane`` is a power of two below 256,
    ``len(buf)`` is a multiple of 64, and the other bits are left meaningless.

    Masked to ``lane``, each byte is 0 or ``lane``, so one multiply of a
    little-endian 64-bit word by :data:`_BYTE_SUMS` sums bytes 0..j into
    byte j (Warren, *Hacker's Delight*, ch. 5): the ``lane`` bit of that sum
    is the parity of the count, and what the bytes below carry into it stays
    under that bit.  The word totals, the top bytes, take the same step in
    groups of eight, so only one total per 64 bytes is accumulated serially;
    the totals before each group and each word are then XORed in.
    """
    buf &= lane
    words = buf.view("<u8")
    words *= _BYTE_SUMS
    totals = buf[7::8] & lane
    groups = totals.view("<u8")
    groups *= _BYTE_SUMS
    carry = groups >> 56
    np.bitwise_xor.accumulate(carry, out=carry)
    carry *= _BYTE_SUMS
    groups[1:] ^= carry[:-1]
    spread = totals.astype(np.uint64)
    spread *= _BYTE_SUMS
    words[1:] ^= spread[:-1]


def _low_bytes(mixed: np.ndarray, first: int) -> np.ndarray:
    """Low byte of ``t`` before each step of the fold over ``mixed``, given
    the low byte ``first`` before step 0; bit k is found in pass k."""
    size = len(mixed)
    # low ^ mixed, padded to whole groups of 64 bytes for _prefix_xor: low
    # holds only the bits below `bit`, so the other bits are those of mixed
    toggled = np.zeros(-(-size // 64) * 64, dtype=np.uint8)
    toggled[:size] = mixed
    steps = np.empty_like(toggled)
    multiplier = TAG_MULTIPLIER & 0xFF
    for bit in range(8):
        lane = 1 << bit
        # this bit of multiplier * (low ^ mixed) is the bit of mixed XOR the
        # carry that the lower bits produce: the step that flips it in the
        # fold; the padding comes after every step, so it changes no byte
        np.multiply(toggled[:-1], multiplier, out=steps[1:])
        steps[0] = first
        _prefix_xor(steps, lane)
        steps &= lane
        toggled ^= steps
    return toggled[:size] ^ mixed


def _fold_block(t: int, block: np.ndarray, window: np.ndarray, powers: np.ndarray) -> int:
    """``t`` after the fold of :func:`make_tag` takes in ``block``, whose
    byte ``i`` meets key byte ``window[i]``; ``powers`` is
    ``_descending_powers(m)`` for some ``m >= len(block)``.

    The multiplier P is odd, so each bit of the low bytes ``l_i`` of ``t`` is
    a prefix XOR fixed by the bits below it; then ``d_i = (l_i ^ b_i) - l_i``
    makes the block linear: ``t_L = t_0 P**L + P sum(d_i P**(L-1-i)) mod 2**64``.
    """
    mixed = block ^ window
    low = _low_bytes(mixed, t & 0xFF)
    offsets = (low ^ mixed).astype(np.int64)
    offsets -= low
    # uint64 dot products wrap like the fold; the carry stays in Python
    # ints, whose arithmetic neither wraps nor warns
    folded = int(np.dot(offsets.view(np.uint64), powers[len(powers) - len(block) :]))
    return (t * pow(TAG_MULTIPLIER, len(block), 1 << 64) + TAG_MULTIPLIER * folded) & _MASK64


class TagFold:
    """The fold of :func:`make_tag` over a message given in parts: call
    :meth:`update` with each part in order, then read :attr:`tag`."""

    def __init__(self, key: CipherKey) -> None:
        self.tag = TAG_SEED
        self._key = _KeyStream(np.frombuffer(key.data, dtype=np.uint8))
        # as long as the longest block _fold_block takes
        self._powers = _descending_powers(BLOCK_BYTES)

    def update(self, part) -> None:
        """Fold in the bytes-like ``part`` in blocks of :data:`BLOCK_BYTES`,
        carrying ``t`` and the key stream from the part before."""
        data = np.frombuffer(_bytes_like(part), dtype=np.uint8)
        for start in range(0, len(data), BLOCK_BYTES):
            block = data[start : start + BLOCK_BYTES]
            self.tag = _fold_block(self.tag, block, self._key.window(len(block)), self._powers)


def make_tag(message: bytes, key: CipherKey) -> int:
    """Keyed 64-bit integrity tag (fold-and-multiply over key-mixed bytes).

    ``t`` starts at ``TAG_SEED`` and each byte folds in as
    ``t = ((t ^ (m[i] ^ k[i % n])) * TAG_MULTIPLIER) mod 2**64``.
    Deterministic and length-sensitive; the empty message maps to the seed
    constant.  This detects accidental and casual corruption; it is not a
    cryptographic MAC.
    """
    fold = TagFold(key)
    fold.update(message)
    return fold.tag


def verify_tag(message: bytes, key: CipherKey, tag: int) -> bool:
    """True iff ``tag`` matches :func:`make_tag` for this message and key."""
    return make_tag(message, key) == tag


def envelope_header(mode: str, tag: int | None) -> bytes:
    """Bit-exact FZK1 header: magic, version :data:`ENVELOPE_VERSION` (the
    only one :func:`parse_envelope_header` accepts), mode, flags, and the
    8-byte big-endian tag when there is one.  The ciphertext follows it."""
    flags = _FLAG_TAG if tag is not None else 0x00
    header = MAGIC + bytes([ENVELOPE_VERSION, _MODE_CODES[mode], flags])
    if tag is not None:
        header += struct.pack(">Q", tag)
    return header


def parse_envelope_header(data) -> tuple[str, int | None, int]:
    """``(mode, tag, offset)`` of the envelope in the bytes-like ``data``,
    whose ciphertext starts at ``offset``; nothing is copied, so a
    ``memoryview`` parses without slicing out the body."""
    if len(data) < 7:
        raise DataFormatError(f"envelope truncated: {len(data)} bytes")
    if data[:4] != MAGIC:
        raise DataFormatError(f"bad magic {bytes(data[:4])!r}, expected {MAGIC!r}")
    version, mode_code, flags = data[4], data[5], data[6]
    if version != ENVELOPE_VERSION:
        raise DataFormatError(f"unsupported envelope version {version}")
    if mode_code not in _CODE_MODES:
        raise DataFormatError(f"unknown mode byte 0x{mode_code:02x}")
    if flags & ~_FLAG_TAG:
        raise DataFormatError(f"unknown flag bits 0x{flags:02x}")
    if not flags & _FLAG_TAG:
        return _CODE_MODES[mode_code], None, 7
    if len(data) < MAX_HEADER_BYTES:
        raise DataFormatError("envelope truncated inside the tag field")
    (tag,) = struct.unpack_from(">Q", data, 7)
    return _CODE_MODES[mode_code], tag, MAX_HEADER_BYTES


def check_ciphertext(blocks: Iterable, key: CipherKey, tag: int | None) -> None:
    """Make the checks that opening makes before it shifts a byte, over a
    ciphertext given as ``blocks``, each read once and left unchanged:
    :class:`IntegrityError` unless ``tag`` (when present) verifies, then, in
    letters mode, :class:`InvalidPlaintextError` for a byte outside A-Z."""
    fold = TagFold(key) if tag is not None else None
    letters = True
    for block in blocks:
        if fold is not None:
            fold.update(block)
        if key.mode == MODE_LETTERS and letters:
            letters = _is_letters(block)
    if fold is not None and fold.tag != tag:
        raise IntegrityError("integrity check failed")
    if not letters:
        raise InvalidPlaintextError("letters mode accepts only uppercase A-Z input")


@dataclass(frozen=True)
class CipherEnvelope:
    """Ciphertext, mode and an optional tag; every envelope is version 1."""

    ciphertext: bytes
    mode: str = MODE_BYTE_SHIFT
    tag: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in _MODE_CODES:
            raise DataFormatError(f"unknown cipher mode {self.mode!r}")
        if self.tag is not None and (
            not isinstance(self.tag, int) or isinstance(self.tag, bool) or not 0 <= self.tag <= _MASK64
        ):
            raise DataFormatError(f"tag must be an int that fits in 64 bits, got {self.tag!r}")
        object.__setattr__(self, "ciphertext", bytes(_bytes_like(self.ciphertext, DataFormatError)))

    def to_bytes(self) -> bytes:
        """Bit-exact layout: :func:`envelope_header`, then the ciphertext."""
        return envelope_header(self.mode, self.tag) + self.ciphertext

    @classmethod
    def from_bytes(cls, data: bytes) -> "CipherEnvelope":
        view = memoryview(data)
        mode, tag, offset = parse_envelope_header(view)
        return cls(ciphertext=view[offset:], mode=mode, tag=tag)


def seal(plaintext: bytes, key: CipherKey, with_tag: bool = True) -> CipherEnvelope:
    """Encrypt and wrap; the tag, when enabled, covers the ciphertext."""
    ciphertext = _shifted(plaintext, key, +1)
    tag = make_tag(ciphertext, key) if with_tag else None
    return CipherEnvelope(ciphertext=ciphertext, mode=key.mode, tag=tag)


def open_envelope(envelope: CipherEnvelope, key: CipherKey) -> bytes:
    """Check the key's mode, verify the tag (when present), then decrypt."""
    if key.mode != envelope.mode:
        raise InvalidKeyError(f"key mode {key.mode!r} does not match envelope mode {envelope.mode!r}")
    check_ciphertext([envelope.ciphertext], key, envelope.tag)
    return bytes(_shifted(envelope.ciphertext, key, -1))


def serialize_selection(result, feature_names: list[str]) -> bytes:
    """Canonical byte form of a selection: LF-terminated lines of
    ``rank<TAB>name<TAB>score`` with scores at fixed 9 decimals.

    ``feature_names`` maps feature ids to names; a name must be nonempty and
    hold no tab or line feed.  Equal results serialize byte-identically; an
    empty selection is the empty byte string.
    """
    chosen = set(result.selected)
    lines = []
    rank = 0
    for fid, score in result.ranked:
        if fid not in chosen:
            continue
        name = feature_names[fid]
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
