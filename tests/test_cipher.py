import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fuzzkey import (
    CipherEnvelope,
    CipherKey,
    ContractViolationError,
    DataFormatError,
    IntegrityError,
    InvalidKeyError,
    InvalidPlaintextError,
    MODE_BYTE_SHIFT,
    MODE_LETTERS,
    RelevanceScore,
    decrypt,
    encrypt,
    make_tag,
    open_envelope,
    parse_selection,
    seal,
    select_topk,
    serialize_selection,
    verify_tag,
)
from fuzzkey.cipher import BLOCK_BYTES, TagFold, _low_bytes, shift_blocks
from fuzzkey.cli import MAX_KEY_BYTES

DATA = Path(__file__).resolve().parent / "data"
TO_LETTERS = bytes(65 + i % 26 for i in range(256))

TABULA = [[chr((row + col) % 26 + 65) for col in range(26)] for row in range(26)]


def tabula_recta(plaintext: str, key: str) -> str:
    # classic table lookup, independent of the modular-arithmetic code path
    out = []
    for i, p in enumerate(plaintext):
        k = key[i % len(key)]
        out.append(TABULA[ord(k) - 65][ord(p) - 65])
    return "".join(out)


def _reference_transform(data: bytes, key: CipherKey, sign: int) -> bytes:
    # the per-byte loop that the numpy transform must reproduce
    key_bytes = key.data
    n = len(key_bytes)
    if key.mode == MODE_BYTE_SHIFT:
        return bytes((b + sign * key_bytes[i % n]) % 256 for i, b in enumerate(data))
    return bytes(
        ((b - 65) + sign * (key_bytes[i % n] - 65)) % 26 + 65 for i, b in enumerate(data)
    )


def _reference_tag(message: bytes, key: CipherKey) -> int:
    # the serial fold that the block-parallel tag must reproduce
    key_bytes = key.data
    n = len(key_bytes)
    t = 14695981039346656037
    for i, m in enumerate(message):
        t = ((t ^ (m ^ key_bytes[i % n])) * 1099511628211) & ((1 << 64) - 1)
    return t


@st.composite
def cipher_inputs(draw, mode):
    """(data, key) with lengths at every key-period and tag-block boundary;
    bytes come from a drawn seed, as the multi-block ones are too long to
    draw directly."""
    n = draw(st.integers(1, 70))
    boundaries = [0, 1, n - 1, n, n + 1, BLOCK_BYTES - 1, BLOCK_BYTES, BLOCK_BYTES + 1]
    multi_block = [2 * BLOCK_BYTES + n, 3 * BLOCK_BYTES - 1]
    length = draw(st.sampled_from(boundaries + multi_block + [None]))
    if length is None:
        length = draw(st.integers(0, 300))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    key_bytes, data = rng.randbytes(n), rng.randbytes(length)
    if mode == MODE_LETTERS:
        key_bytes, data = key_bytes.translate(TO_LETTERS), data.translate(TO_LETTERS)
    if draw(st.booleans()):
        data = bytearray(data)
    return data, CipherKey(key_bytes, mode)


class TestKeys:
    def test_empty_key_rejected(self):
        with pytest.raises(InvalidKeyError):
            CipherKey(b"")

    def test_letters_key_must_be_uppercase(self):
        with pytest.raises(InvalidKeyError):
            CipherKey(b"secret", MODE_LETTERS)

    def test_letters_key_accepts_a_to_z(self):
        CipherKey(b"SECRET", MODE_LETTERS)


class TestEncryptDecrypt:
    def test_hello_secret_matches_tabula_recta(self):
        key = CipherKey(b"SECRET", MODE_LETTERS)
        assert encrypt(b"HELLO", key) == tabula_recta("HELLO", "SECRET").encode()
        assert encrypt(b"HELLO", key) == b"ZINCS"

    def test_identity_letters_key(self):
        key = CipherKey(b"AAAAA", MODE_LETTERS)
        assert encrypt(b"HELLO", key) == b"HELLO"

    def test_byte_shift_example(self):
        key = CipherKey(b"\x01\x02")
        assert encrypt(b"\x48\x49", key) == b"\x49\x4b"

    def test_identity_byte_key(self):
        key = CipherKey(b"\x00")
        assert encrypt(b"arbitrary \xff bytes", key) == b"arbitrary \xff bytes"

    def test_decrypt_inverts(self):
        key = CipherKey(b"SECRET", MODE_LETTERS)
        assert decrypt(b"ZINCS", key) == b"HELLO"

    def test_byte_shift_wraps(self):
        key = CipherKey(b"\x01")
        assert decrypt(b"\x00", key) == b"\xff"

    def test_letters_rejects_non_alphabet_plaintext(self):
        key = CipherKey(b"SECRET", MODE_LETTERS)
        with pytest.raises(InvalidPlaintextError):
            encrypt(b"hello!", key)

    @given(st.binary(max_size=200), st.binary(min_size=1, max_size=16))
    def test_byte_shift_roundtrip(self, plaintext, key_bytes):
        key = CipherKey(key_bytes)
        assert decrypt(encrypt(plaintext, key), key) == plaintext
        assert len(encrypt(plaintext, key)) == len(plaintext)

    @given(
        st.text(alphabet=st.characters(min_codepoint=65, max_codepoint=90), max_size=60),
        st.text(alphabet=st.characters(min_codepoint=65, max_codepoint=90), min_size=1, max_size=8),
    )
    def test_letters_roundtrip(self, plaintext, key_text):
        key = CipherKey(key_text.encode(), MODE_LETTERS)
        data = plaintext.encode()
        assert decrypt(encrypt(data, key), key) == data

    @pytest.mark.parametrize("mode", [MODE_BYTE_SHIFT, MODE_LETTERS])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_per_byte_reference(self, mode, data):
        payload, key = data.draw(cipher_inputs(mode))
        ciphertext = encrypt(payload, key)
        assert type(ciphertext) is bytes
        assert ciphertext == _reference_transform(payload, key, +1)
        assert decrypt(payload, key) == _reference_transform(payload, key, -1)
        assert decrypt(ciphertext, key) == payload

    def test_key_cycling_equals_doubled_key(self):
        rng = random.Random(8)
        payload = bytes(rng.randrange(256) for _ in range(64))
        key_bytes = b"\x03\x11\x44"
        once = encrypt(payload, CipherKey(key_bytes))
        doubled = encrypt(payload, CipherKey(key_bytes * 2))
        assert once == doubled


class TestTag:
    KEY = CipherKey(b"K")

    def test_empty_message_returns_seed(self):
        assert make_tag(b"", self.KEY) == 14695981039346656037

    def test_single_zero_byte(self):
        # one fold step: (seed ^ 0) * prime mod 2^64
        assert make_tag(b"\x00", CipherKey(b"\x00")) == 12638153115695167455

    def test_verify_roundtrip(self):
        tag = make_tag(b"payload", self.KEY)
        assert verify_tag(b"payload", self.KEY, tag)

    def test_single_byte_flip_changes_tag(self):
        rng = random.Random(42)
        for _ in range(100):
            message = bytearray(rng.randrange(256) for _ in range(rng.randint(1, 64)))
            tag = make_tag(bytes(message), self.KEY)
            position = rng.randrange(len(message))
            message[position] ^= 1 << rng.randrange(8)
            assert not verify_tag(bytes(message), self.KEY, tag)

    def test_wrong_key_fails(self):
        tag = make_tag(b"payload", self.KEY)
        assert not verify_tag(b"payload", CipherKey(b"other"), tag)

    def test_length_sensitive(self):
        assert make_tag(b"\x00", self.KEY) != make_tag(b"\x00\x00", self.KEY)

    @pytest.mark.parametrize("mode", [MODE_BYTE_SHIFT, MODE_LETTERS])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_serial_reference(self, mode, data):
        message, key = data.draw(cipher_inputs(mode))
        assert make_tag(message, key) == _reference_tag(message, key)


def _reference_low_bytes(mixed: bytes, first: int) -> list[int]:
    # the low byte of the fold's t before each step: 0xB3 is the low byte
    # of the multiplier, and no higher byte of t reaches the low one
    low, lows = first, []
    for m in mixed:
        lows.append(low)
        low = ((low ^ m) * 0xB3) & 0xFF
    return lows


# lengths next to every multiple of 8 (a word) and of 64 (a group of words)
# up to 1000, where the lane-multiply prefix carries across a seam
SEAM_LENGTHS = sorted({n + d for n in range(8, 1001, 8) for d in (-1, 0, 1) if n + d <= 1000})


class TestLowBytes:
    """The bit passes of the tag fold equal the per-byte recurrence of its
    low byte."""

    @settings(max_examples=200, deadline=None)
    @given(
        mixed=st.one_of(st.integers(1, 1000), st.sampled_from(SEAM_LENGTHS)).flatmap(
            lambda n: st.binary(min_size=n, max_size=n)
        ),
        first=st.integers(0, 255),
    )
    # whole blocks of one byte value, from a first byte under which some bit
    # of the low byte flips at every step (bit 1, 0, 7 and 0): eight flips
    # per word, the largest count a lane holds, and in bit 7 the most carry
    @example(mixed=b"\x00" * BLOCK_BYTES, first=235)
    @example(mixed=b"\x01" * BLOCK_BYTES, first=0xFF)
    @example(mixed=b"\x80" * BLOCK_BYTES, first=0x00)
    @example(mixed=b"\xff" * BLOCK_BYTES, first=0x01)
    def test_matches_the_per_byte_loop(self, mixed, first):
        low = _low_bytes(np.frombuffer(mixed, dtype=np.uint8), first)
        assert low.tolist() == _reference_low_bytes(mixed, first)


class TestParts:
    """A message given in parts, split anywhere, folds and shifts as it
    does whole."""

    @pytest.mark.parametrize("mode", [MODE_BYTE_SHIFT, MODE_LETTERS])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_split_matches_the_whole_message(self, mode, data):
        message, key = data.draw(cipher_inputs(mode))
        cuts = sorted(data.draw(st.lists(st.integers(0, len(message)), max_size=6)))
        parts = [message[start:stop] for start, stop in zip([0, *cuts], [*cuts, len(message)])]
        fold = TagFold(key)
        for part in parts:
            fold.update(part)
        assert fold.tag == make_tag(message, key)
        shifted = shift_blocks([bytearray(part) for part in parts], key, +1)
        assert b"".join(shifted) == encrypt(message, key)


class TestLongKeys:
    """Keys at and past a block, up to the longest a key file may hold: a
    block meets its key bytes as far into the pad as the pad reaches."""

    @pytest.mark.parametrize("mode", [MODE_BYTE_SHIFT, MODE_LETTERS])
    @pytest.mark.parametrize(
        "key_length",
        [BLOCK_BYTES - 1, BLOCK_BYTES, BLOCK_BYTES + 1, MAX_KEY_BYTES],
        ids=["block-less-1", "block", "block-plus-1", "key-file-cap"],
    )
    def test_parts_match_the_per_byte_reference(self, mode, key_length):
        rng = random.Random(key_length)
        key_bytes, message = rng.randbytes(key_length), rng.randbytes(3 * BLOCK_BYTES - 1)
        if mode == MODE_LETTERS:
            key_bytes, message = key_bytes.translate(TO_LETTERS), message.translate(TO_LETTERS)
        key = CipherKey(key_bytes, mode)
        # parts shorter than a block, and one longer, that starts mid-block
        cuts = [0, 1, BLOCK_BYTES - 2, 2 * BLOCK_BYTES + 5, len(message)]

        def parts(data):
            return [bytearray(data[start:stop]) for start, stop in zip(cuts, cuts[1:])]

        fold = TagFold(key)
        for part in parts(message):
            fold.update(part)
        assert fold.tag == _reference_tag(message, key)
        shifted = b"".join(shift_blocks(parts(message), key, +1))
        assert shifted == _reference_transform(message, key, +1)
        assert b"".join(shift_blocks(parts(shifted), key, -1)) == message


class TestBytesLike:
    """The bytes API refuses a message that does not support the buffer
    protocol, rather than read an int as a length of zero bytes."""

    KEY = CipherKey(b"k")

    @pytest.mark.parametrize("message", [5, "abc"], ids=["int", "str"])
    @pytest.mark.parametrize("call", [encrypt, decrypt, seal, make_tag], ids=lambda call: call.__name__)
    def test_a_message_that_is_not_bytes_like_is_refused(self, call, message):
        with pytest.raises(ContractViolationError, match="expected a bytes-like object"):
            call(message, self.KEY)

    def test_verify_tag_refuses_it_too(self):
        with pytest.raises(ContractViolationError):
            verify_tag(5, self.KEY, make_tag(bytes(5), self.KEY))

    @pytest.mark.parametrize("message", [bytearray(b"abc"), memoryview(b"abc"), np.frombuffer(b"abc", np.uint8)])
    def test_every_bytes_like_message_is_taken(self, message):
        assert encrypt(message, self.KEY) == encrypt(b"abc", self.KEY)
        assert make_tag(message, self.KEY) == make_tag(b"abc", self.KEY)

    @pytest.mark.parametrize("ciphertext", [5, "abc"], ids=["int", "str"])
    def test_an_envelope_refuses_a_ciphertext_that_is_not_bytes_like(self, ciphertext):
        with pytest.raises(DataFormatError, match="expected a bytes-like object"):
            CipherEnvelope(ciphertext)

    @pytest.mark.parametrize("tag", [1.5, True, False, "1", -1, 1 << 64], ids=repr)
    def test_an_envelope_refuses_a_tag_that_is_not_a_64_bit_int(self, tag):
        with pytest.raises(DataFormatError, match="tag must be an int"):
            CipherEnvelope(b"abc", tag=tag)

    @pytest.mark.parametrize("tag", [None, 0, (1 << 64) - 1])
    def test_an_envelope_takes_a_64_bit_tag(self, tag):
        assert CipherEnvelope.from_bytes(CipherEnvelope(b"abc", tag=tag).to_bytes()).tag == tag


class TestEnvelope:
    def test_layout_without_tag(self):
        env = CipherEnvelope(ciphertext=b"ABC", mode=MODE_BYTE_SHIFT, tag=None)
        assert env.to_bytes() == b"FZK1" + bytes([1, 0, 0]) + b"ABC"

    def test_layout_with_tag(self):
        env = CipherEnvelope(ciphertext=b"ZINCS", mode=MODE_LETTERS, tag=0x0102030405060708)
        raw = env.to_bytes()
        assert raw[:4] == b"FZK1"
        assert raw[4:7] == bytes([1, 1, 1])
        assert raw[7:15] == bytes([1, 2, 3, 4, 5, 6, 7, 8])
        assert raw[15:] == b"ZINCS"

    def test_roundtrip(self):
        env = CipherEnvelope(ciphertext=b"\x00\xff", mode=MODE_BYTE_SHIFT, tag=77)
        assert CipherEnvelope.from_bytes(env.to_bytes()) == env

    def test_bad_magic(self):
        with pytest.raises(DataFormatError):
            CipherEnvelope.from_bytes(b"NOPE" + bytes([1, 0, 0]))

    def test_bad_version(self):
        with pytest.raises(DataFormatError):
            CipherEnvelope.from_bytes(b"FZK1" + bytes([9, 0, 0]))

    def test_truncated_tag(self):
        with pytest.raises(DataFormatError):
            CipherEnvelope.from_bytes(b"FZK1" + bytes([1, 0, 1]) + b"\x00\x01")

    def test_seal_and_open(self):
        key = CipherKey(b"hunter2")
        env = seal(b"selected features", key)
        assert env.tag is not None
        assert open_envelope(env, key) == b"selected features"

    def test_open_detects_corruption(self):
        key = CipherKey(b"hunter2")
        env = seal(b"selected features", key)
        broken = CipherEnvelope(
            ciphertext=bytes([env.ciphertext[0] ^ 0x01]) + env.ciphertext[1:],
            mode=env.mode,
            tag=env.tag,
        )
        with pytest.raises(IntegrityError):
            open_envelope(broken, key)

    @pytest.mark.parametrize(
        "golden, mode, with_tag",
        [
            ("golden_seal_byte_tag.fzk", MODE_BYTE_SHIFT, True),
            ("golden_seal_byte_notag.fzk", MODE_BYTE_SHIFT, False),
            ("golden_seal_letters_tag.fzk", MODE_LETTERS, True),
        ],
        ids=["byte-tag", "byte-notag", "letters-tag"],
    )
    def test_seal_matches_golden_bytes(
        self, golden_payload, golden_key, golden, mode, with_tag
    ):
        # sealed by the per-byte cipher before it was vectorised
        plaintext, key = golden_payload, CipherKey(golden_key)
        if mode == MODE_LETTERS:
            plaintext, key = plaintext.translate(TO_LETTERS), CipherKey(b"FUZZKEY", MODE_LETTERS)
        expected = (DATA / golden).read_bytes()
        assert seal(plaintext, key, with_tag=with_tag).to_bytes() == expected
        assert open_envelope(CipherEnvelope.from_bytes(expected), key) == plaintext

    def test_open_rejects_mode_mismatch(self):
        env = seal(b"HELLO", CipherKey(b"SECRET", MODE_LETTERS))
        with pytest.raises(InvalidKeyError):
            open_envelope(env, CipherKey(b"SECRET", MODE_BYTE_SHIFT))


class TestSerializeSelection:
    def test_single_feature(self):
        result = select_topk([RelevanceScore(0, 0.5)], 1)
        assert serialize_selection(result, ["temp"]) == b"0\ttemp\t0.500000000\n"

    def test_empty_selection(self):
        result = select_topk([RelevanceScore(0, 0.5)], 0)
        assert serialize_selection(result, ["temp"]) == b""

    def test_two_features_in_rank_order(self):
        scores = [RelevanceScore(0, 0.2), RelevanceScore(1, 0.9)]
        result = select_topk(scores, 2)
        data = serialize_selection(result, ["a", "b"])
        assert data == b"0\tb\t0.900000000\n1\ta\t0.200000000\n"

    def test_parse_roundtrip(self):
        rng = random.Random(31)
        for _ in range(50):
            n = rng.randint(1, 9)
            scores = [RelevanceScore(i, round(rng.random(), 9)) for i in range(n)]
            names = [f"col{i}" for i in range(n)]
            result = select_topk(scores, rng.randint(0, n))
            rows = parse_selection(serialize_selection(result, names))
            assert [r[0] for r in rows] == list(range(len(result.selected)))
            assert [r[1] for r in rows] == [names[fid] for fid in result.selected]
            ranked_scores = dict(result.ranked)
            for _, name, score in rows:
                fid = int(name[3:])
                assert abs(score - ranked_scores[fid]) <= 5e-10

    def test_rejects_unusable_names(self):
        result = select_topk([RelevanceScore(0, 1.0)], 1)
        with pytest.raises(ContractViolationError):
            serialize_selection(result, ["has\ttab"])

    def test_parse_requires_final_newline(self):
        with pytest.raises(DataFormatError):
            parse_selection(b"0\ttemp\t0.5")

    @pytest.mark.parametrize(
        "data",
        [b"x\tname\t0.5\n", b"0\tname\thigh\n", b"0\tn\xe4me\t0.5\n"],
        ids=["rank", "score", "non-ascii"],
    )
    def test_parse_rejects_malformed_rows(self, data):
        with pytest.raises(DataFormatError):
            parse_selection(data)
