import argparse
import codecs
import io
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fuzzkey import CipherKey, ConfigurationError, DefuzzConfig, cipher, cli, fuzzy, ingest, pipeline, seal

SRC = str(Path(__file__).resolve().parent.parent / "src")
DATA = Path(__file__).resolve().parent / "data"

TOY = "a,b,c\n1,9,4\n2,3,4\n3,6,4\n"


def run_cli(args, env_extra=None, cwd=None, timeout=None, stdin=None):
    env = os.environ.copy()
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("FUZZKEY_KEY_FILE", None)
    if env_extra:
        env.update(env_extra)
    # ``stdin`` is bytes to write, or a file the child reads from
    source = {"input": stdin} if isinstance(stdin, bytes) else {"stdin": stdin}
    return subprocess.run(
        [sys.executable, "-m", "fuzzkey", *args],
        **source,
        capture_output=True,
        env=env,
        cwd=cwd,
        timeout=timeout,
    )


def assert_one_error_line(proc):
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("fuzzkey: ")


@pytest.fixture
def toy_csv(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text(TOY)
    return path


@pytest.fixture
def key_env(tmp_path):
    key_path = tmp_path / "key.bin"
    key_path.write_bytes(b"hunter2\n")  # trailing newline must be tolerated
    return {"FUZZKEY_KEY_FILE": str(key_path)}


class TestSelect:
    def test_ranks_all_selects_k(self, toy_csv):
        proc = run_cli(["select", str(toy_csv), "--k", "2"])
        assert proc.returncode == 0
        report = proc.stdout.decode()
        assert report.count("\n", report.index("[ranking]"), report.index("[selected]")) == 4
        selected = report.split("[selected]\n", 1)[1].split("[stats]", 1)[0]
        assert len(selected.splitlines()) == 2

    def test_k_zero_is_fine(self, toy_csv):
        proc = run_cli(["select", str(toy_csv), "--k", "0"])
        assert proc.returncode == 0
        assert b"[selected]\n[stats]" in proc.stdout

    def test_missing_file_exits_3(self, tmp_path):
        proc = run_cli(["select", str(tmp_path / "absent.csv"), "--k", "1"])
        assert proc.returncode == 3
        assert proc.stderr.decode().startswith("fuzzkey: ")
        assert proc.stdout == b""

    @pytest.mark.parametrize(
        "content",
        [b"a,b\n1\n", b"a,b\n1,\xff\n", b"a,b\n", b"a\n1\n\n2\n"],
        ids=["short-row", "non-utf8", "header-only", "empty-line"],
    )
    def test_bad_csv_exits_3(self, tmp_path, content):
        # a subprocess, so that a warning printed to stderr would show
        bad = tmp_path / "bad.csv"
        bad.write_bytes(content)
        proc = run_cli(["select", str(bad), "--k", "1"])
        assert proc.returncode == 3
        assert proc.stdout == b""
        assert_one_error_line(proc)

    def test_csv_from_a_pipe_reads_like_a_file(self, toy_csv):
        # a pipe streams like a file: nothing is read twice
        proc = run_cli(["select", "/dev/stdin", "--k", "2"], stdin=TOY.encode())
        assert proc.returncode == 0
        assert proc.stdout == run_cli(["select", str(toy_csv), "--k", "2"]).stdout
        proc = run_cli(["select", "/dev/stdin", "--k", "2"], stdin=TOY.encode() + b"1,2,x\n")
        assert proc.returncode == 3
        assert proc.stderr == b"fuzzkey: /dev/stdin: row 5, column 3 (c): not a number: 'x'\n"

    @pytest.mark.parametrize(
        "source, message",
        [
            (TOY.encode() + b"1,2,1e999\n", "row 5, column 3 (c): value is not finite: '1e999'"),
            (TOY.encode()[:-3], "row 4: expected 3 cells, got 2"),
            (
                ["head", "-c", str(ingest.MAX_LINE_BYTES + 2), "/dev/zero"],
                f"row 1 is longer than {ingest.MAX_LINE_BYTES} bytes",
            ),
        ],
        ids=["gate-passed-1e999-last", "cut-mid-row", "dev-zero-through-head"],
    )
    def test_hostile_pipe_exits_with_a_documented_code(self, source, message):
        # a real pipe, which cannot be read twice
        argv = ["select", "/dev/stdin", "--k", "1"]
        if isinstance(source, bytes):
            proc = run_cli(argv, stdin=source)
        else:
            with subprocess.Popen(source, stdout=subprocess.PIPE) as producer:
                proc = run_cli(argv, stdin=producer.stdout)
        assert (proc.returncode, proc.stdout) == (3, b"")
        assert proc.stderr.decode() == f"fuzzkey: /dev/stdin: {message}\n"

    def test_unwritable_temporary_directory_exits_3(self, toy_csv, tmp_path, monkeypatch, key_env):
        # the parsed table goes to a temporary file; tempfile's directory,
        # normally from TMPDIR, here sits under a regular file, which even
        # root cannot write into
        blocker = tmp_path / "file"
        blocker.write_bytes(b"")
        monkeypatch.setattr(tempfile, "tempdir", str(blocker / "tmp"))
        monkeypatch.setenv("FUZZKEY_KEY_FILE", key_env["FUZZKEY_KEY_FILE"])
        sealed = tmp_path / "sel.fzk"
        for argv in (["select", str(toy_csv)], ["pipeline", str(toy_csv), "--output", str(sealed)]):
            code, out, err = run_in_process(argv)
            assert (code, out) == (3, b"")
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("fuzzkey: ")
        assert not sealed.exists()

    def test_bad_config_value_exits_4(self, toy_csv):
        proc = run_cli(["select", str(toy_csv), "--sets", "1"])
        assert proc.returncode == 4

    def test_bad_jobs_value(self, toy_csv):
        proc = run_cli(["select", str(toy_csv), "--jobs", "0"])
        assert proc.returncode == 4
        assert_one_error_line(proc)
        assert proc.stdout == b""

    def test_jobs_do_not_change_results(self, toy_csv):
        serial = run_cli(["select", str(toy_csv), "--k", "2", "--jobs", "1"])
        threes = run_cli(["select", str(toy_csv), "--k", "2", "--jobs", "3"])
        assert serial.returncode == threes.returncode == 0
        assert threes.stdout == serial.stdout

    @pytest.mark.parametrize("via, code", [("flag", 2), ("config", 4)])
    def test_sum_mode_is_rejected(self, toy_csv, tmp_path, via, code):
        args = ["select", str(toy_csv), "--k", "1"]
        if via == "flag":
            args += ["--mode", "sum"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("mode = sum\n")
            args += ["--config", str(cfg)]
        proc = run_cli(args)
        assert proc.returncode == code
        assert proc.stdout == b""
        if code == 4:
            assert_one_error_line(proc)

    def test_unknown_flag_exits_2(self, toy_csv):
        proc = run_cli(["select", str(toy_csv), "--frobnicate"])
        assert proc.returncode == 2

    def test_output_flag_writes_file(self, toy_csv, tmp_path):
        out = tmp_path / "report.txt"
        proc = run_cli(["select", str(toy_csv), "--k", "1", "--output", str(out)])
        assert proc.returncode == 0
        assert out.read_bytes().startswith(b"fuzzkey-report 1\n")

    @pytest.mark.parametrize(
        "golden, args, config",
        [
            ("golden_select_k2.txt", ["--k", "2"], None),
            (
                "golden_select_sets5_tau0.3_centers.txt",
                ["--sets", "5", "--tau", "0.3"],
                "centers = 0,0.1,0.3,0.9,1\n",
            ),
        ],
        ids=["k2", "sets5-tau0.3-centers"],
    )
    def test_report_matches_golden_bytes(self, tmp_path, golden, args, config):
        # reports print 9 decimals and ties break on feature id, so a
        # one-ulp drift in scoring can change these bytes
        if config is not None:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(config)
            args = args + ["--config", str(cfg)]
        proc = run_cli(["select", str(DATA / "fixture_5x20.csv"), *args])
        assert proc.returncode == 0
        assert proc.stdout == (DATA / golden).read_bytes()

    def test_column_whose_span_overflows_selects(self, tmp_path):
        data = tmp_path / "huge.csv"
        data.write_text("a,b\n-1e308,1\n1e308,2\n0,3\n")
        proc = run_cli(["select", str(data), "--k", "1"])
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert b"a\t-1e+308\t1e+308\n" in proc.stdout

    def test_scoring_builds_no_partition_or_rule_base(self, toy_csv, monkeypatch):
        def build(*args):
            raise AssertionError("select built a partition or a rule base")

        monkeypatch.setattr(fuzzy, "make_uniform_partition", build)
        monkeypatch.setattr(pipeline, "make_uniform_partition", build)
        monkeypatch.setattr(fuzzy.RuleBase, "identity", build)
        code, out, err = run_in_process(["select", str(toy_csv), "--k", "2", "--sets", "5"])
        assert (code, err) == (0, "")
        assert out.startswith(b"fuzzkey-report 1\n")

    def test_config_file_with_flag_override(self, toy_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 1\nsets = 5\n")
        proc = run_cli(["select", str(toy_csv), "--config", str(cfg), "--k", "2"])
        assert proc.returncode == 0
        assert b"sets = 5" in proc.stdout
        assert b"k = 2" in proc.stdout


class TestEncryptDecrypt:
    def test_roundtrip(self, tmp_path, key_env):
        plain = tmp_path / "plain.txt"
        plain.write_bytes(b"0\ttemp\t0.500000000\n")
        env_file = tmp_path / "out.fzk"
        proc = run_cli(["encrypt", str(plain), "--output", str(env_file)], key_env)
        assert proc.returncode == 0
        proc = run_cli(["decrypt", str(env_file)], key_env)
        assert proc.returncode == 0
        assert proc.stdout == b"0\ttemp\t0.500000000\n"

    def test_corrupted_envelope_exits_5(self, tmp_path, key_env):
        plain = tmp_path / "plain.txt"
        plain.write_bytes(b"payload bytes")
        env_file = tmp_path / "out.fzk"
        assert run_cli(["encrypt", str(plain), "--output", str(env_file)], key_env).returncode == 0
        raw = bytearray(env_file.read_bytes())
        raw[-1] ^= 0x01
        env_file.write_bytes(bytes(raw))
        proc = run_cli(["decrypt", str(env_file)], key_env)
        assert proc.returncode == 5
        assert b"integrity check failed" in proc.stderr

    def test_lowercase_letters_key_exits_4(self, tmp_path):
        key_path = tmp_path / "key.txt"
        key_path.write_bytes(b"secret")
        plain = tmp_path / "plain.txt"
        plain.write_bytes(b"HELLO")
        proc = run_cli(
            ["encrypt", str(plain), "--cipher", "letters"],
            {"FUZZKEY_KEY_FILE": str(key_path)},
        )
        assert proc.returncode == 4

    def test_bad_magic_exits_3(self, tmp_path, key_env):
        env_file = tmp_path / "not.fzk"
        env_file.write_bytes(b"JUNKJUNKJUNK")
        proc = run_cli(["decrypt", str(env_file)], key_env)
        assert proc.returncode == 3

    def test_missing_key_env_exits_4(self, tmp_path):
        plain = tmp_path / "plain.txt"
        plain.write_bytes(b"data")
        proc = run_cli(["encrypt", str(plain)])
        assert proc.returncode == 4

    def test_key_file_longer_than_the_cap_exits_4(self, tmp_path, monkeypatch):
        plain = tmp_path / "plain.txt"
        plain.write_bytes(b"data")
        key_path = tmp_path / "key.bin"
        monkeypatch.setenv("FUZZKEY_KEY_FILE", str(key_path))
        key_path.write_bytes(b"k" * (cli.MAX_KEY_BYTES + 1))
        code, out, err = run_in_process(["encrypt", str(plain)])
        assert (code, out) == (4, b"")
        assert err == f"fuzzkey: key file {key_path} is longer than {cli.MAX_KEY_BYTES} bytes\n"
        key_path.write_bytes(b"k" * cli.MAX_KEY_BYTES)
        code, out, err = run_in_process(["encrypt", str(plain)])
        assert (code, err) == (0, "")
        assert out == seal(b"data", CipherKey(b"k" * cli.MAX_KEY_BYTES)).to_bytes()

    def test_key_read_reserves_only_what_it_reads(self, tmp_path, monkeypatch):
        key_path = tmp_path / "key.bin"
        key_path.write_bytes(b"k" * 32 + b"\n")
        monkeypatch.setenv("FUZZKEY_KEY_FILE", str(key_path))
        tracemalloc.start()
        try:
            key = cli._load_key(cipher.MODE_BYTE_SHIFT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert key.data == b"k" * 32
        # one read of the whole 1 MiB cap reserved all of it
        assert peak < 128 << 10

    def test_input_longer_than_the_cap_exits_3(self, tmp_path, monkeypatch):
        cap = 1000
        monkeypatch.setattr(cli, "MAX_PAYLOAD_BYTES", cap)
        key = CipherKey(b"hunter2")
        (tmp_path / "key.bin").write_bytes(key.data)
        monkeypatch.setenv("FUZZKEY_KEY_FILE", str(tmp_path / "key.bin"))
        plain, sealed, output = tmp_path / "plain.bin", tmp_path / "sealed.fzk", tmp_path / "out.bin"
        header = len(seal(b"", key).to_bytes())
        plain.write_bytes(b"p" * (cap + 1))
        sealed.write_bytes(seal(b"p" * (cap + 1 - header), key).to_bytes())
        # a pipe has no size to check first: its read stops one byte past the cap
        read_end, write_end = os.pipe()
        os.write(write_end, b"p" * (cap + 100))
        os.close(write_end)
        try:
            pipe = f"/dev/fd/{read_end}"
            for command, path in [("encrypt", plain), ("decrypt", sealed), ("encrypt", pipe)]:
                code, out, err = run_in_process([command, str(path), "--output", str(output)])
                assert (code, out) == (3, b"")
                assert err == f"fuzzkey: input {path} is longer than {cap} bytes\n"
                assert not output.exists()
            assert len(os.read(read_end, 1 << 16)) == 99
        finally:
            os.close(read_end)
        # the cap itself is accepted
        plain.write_bytes(b"p" * cap)
        sealed.write_bytes(seal(b"p" * (cap - header), key).to_bytes())
        assert run_in_process(["encrypt", str(plain)]) == (0, seal(b"p" * cap, key).to_bytes(), "")
        assert run_in_process(["decrypt", str(sealed)]) == (0, b"p" * (cap - header), "")

    def test_regular_file_longer_than_the_cap_is_never_read(self, tmp_path, monkeypatch, key_env):
        monkeypatch.setattr(cli, "MAX_PAYLOAD_BYTES", 8 << 20)
        monkeypatch.setenv("FUZZKEY_KEY_FILE", key_env["FUZZKEY_KEY_FILE"])
        plain = tmp_path / "sparse.bin"
        with open(plain, "wb") as handle:
            handle.truncate(32 << 20)
        tracemalloc.start()
        try:
            code, out, err = run_in_process(["encrypt", str(plain)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (3, b"")
        assert peak < 4 << 20  # half the 8 MiB cap, so no payload read fits

    def test_letters_mode_rejects_binary_plaintext_exit_3(self, tmp_path):
        key_path = tmp_path / "key.txt"
        key_path.write_bytes(b"SECRET")
        plain = tmp_path / "plain.txt"
        plain.write_bytes(b"lowercase not allowed")
        proc = run_cli(
            ["encrypt", str(plain), "--cipher", "letters"],
            {"FUZZKEY_KEY_FILE": str(key_path)},
        )
        assert proc.returncode == 3

    def test_no_tag_envelope_decrypts(self, tmp_path, key_env):
        plain = tmp_path / "plain.txt"
        plain.write_bytes(b"data")
        env_file = tmp_path / "out.fzk"
        assert run_cli(
            ["encrypt", str(plain), "--no-tag", "--output", str(env_file)], key_env
        ).returncode == 0
        raw = env_file.read_bytes()
        assert raw[6] == 0  # flags byte: no tag bit
        assert run_cli(["decrypt", str(env_file)], key_env).stdout == b"data"


class TestGoldenEnvelope:
    GOLDEN = DATA / "golden_seal_byte_tag.fzk"

    @pytest.fixture
    def golden_env(self, tmp_path, golden_key):
        key_path = tmp_path / "key.bin"
        key_path.write_bytes(golden_key)
        return {"FUZZKEY_KEY_FILE": str(key_path)}

    def test_encrypt_and_decrypt_match_golden_bytes(self, tmp_path, golden_payload, golden_env):
        plain = tmp_path / "payload.bin"
        plain.write_bytes(golden_payload)
        sealed = tmp_path / "out.fzk"
        proc = run_cli(["encrypt", str(plain), "--output", str(sealed)], golden_env)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert sealed.read_bytes() == self.GOLDEN.read_bytes()
        proc = run_cli(["decrypt", str(self.GOLDEN)], golden_env)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == golden_payload

    @pytest.mark.parametrize("offset", [18, -3], ids=["first-tag-block", "last-tag-block"])
    def test_flipped_bit_exits_5(self, tmp_path, golden_env, offset):
        raw = bytearray(self.GOLDEN.read_bytes())
        raw[offset] ^= 0x10
        tampered = tmp_path / "tampered.fzk"
        tampered.write_bytes(bytes(raw))
        proc = run_cli(["decrypt", str(tampered)], golden_env)
        assert proc.returncode == 5
        assert_one_error_line(proc)
        assert proc.stdout == b""

    def test_pipe_input_reads_like_a_file(self, golden_payload, golden_env):
        # a pipe reports size 0, and the payload spans several pipe buffers
        proc = run_cli(["encrypt", "/dev/stdin"], golden_env, stdin=golden_payload)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == self.GOLDEN.read_bytes()
        proc = run_cli(["decrypt", "/dev/stdin"], golden_env, stdin=self.GOLDEN.read_bytes())
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == golden_payload

    def test_output_may_name_the_input(self, tmp_path, monkeypatch, golden_payload, golden_env):
        monkeypatch.setenv("FUZZKEY_KEY_FILE", golden_env["FUZZKEY_KEY_FILE"])
        path = tmp_path / "data.bin"
        path.write_bytes(golden_payload)
        assert run_in_process(["encrypt", str(path), "--output", str(path)]) == (0, b"", "")
        assert path.read_bytes() == self.GOLDEN.read_bytes()
        assert run_in_process(["decrypt", str(path), "--output", str(path)]) == (0, b"", "")
        assert path.read_bytes() == golden_payload


class TestPipeline:
    def test_writes_report_and_envelope(self, toy_csv, tmp_path, key_env):
        env_file = tmp_path / "sel.fzk"
        proc = run_cli(
            ["pipeline", str(toy_csv), "--k", "2", "--output", str(env_file)], key_env
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith(b"fuzzkey-report 1\n")
        assert env_file.read_bytes().startswith(b"FZK1")

    def test_decrypt_recovers_selection(self, toy_csv, tmp_path, key_env):
        env_file = tmp_path / "sel.fzk"
        run_cli(["pipeline", str(toy_csv), "--k", "2", "--output", str(env_file)], key_env)
        plain = run_cli(["decrypt", str(env_file)], key_env).stdout
        report = run_cli(["select", str(toy_csv), "--k", "2"]).stdout.decode()
        block = report.split("[selected]\n", 1)[1].split("[stats]", 1)[0]
        assert plain.decode() == block

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_letters_cipher_exits_4_before_any_work(self, toy_csv, tmp_path, via):
        key_path = tmp_path / "key.txt"
        key_path.write_bytes(b"SECRET")
        env_file = tmp_path / "sel.fzk"
        args = ["pipeline", str(toy_csv), "--k", "2", "--output", str(env_file)]
        if via == "flag":
            args += ["--cipher", "letters"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("cipher = letters\n")
            args += ["--config", str(cfg)]
        proc = run_cli(args, {"FUZZKEY_KEY_FILE": str(key_path)})
        assert proc.returncode == 4
        assert_one_error_line(proc)
        assert b"letters" in proc.stderr
        assert not env_file.exists()


class TestGoldenPipeline:
    """``pipeline --tau 0.5`` on 40 rows x 400 features, against the report
    and envelope written by the per-column scoring code.

    The table mixes signed zeros, ties, constant columns, magnitudes near
    1e300, a column whose span overflows and a target in the middle.  It is
    parsed in one chunk of rows and scored in one block; parsed in chunks of
    two rows and scored in 17 blocks, the last of them partial; and parsed
    a row at a time and scored a column at a time.
    """

    CSV = DATA / "fixture_40x400.csv"

    @pytest.mark.parametrize("block", [None, 999, 39], ids=["one-block", "17-blocks", "column-per-block"])
    def test_report_and_envelope_match_golden_bytes(
        self, tmp_path, monkeypatch, capsysbinary, golden_key, block
    ):
        if block is not None:
            monkeypatch.setattr(ingest, "_SCORE_BLOCK", block)
        key_path = tmp_path / "key.bin"
        key_path.write_bytes(golden_key)
        monkeypatch.setenv("FUZZKEY_KEY_FILE", str(key_path))
        sealed = tmp_path / "sel.fzk"
        code = cli.main(["pipeline", str(self.CSV), "--tau", "0.5", "--output", str(sealed)])
        out, err = capsysbinary.readouterr()
        assert (code, err) == (0, b"")
        assert out == (DATA / "golden_pipeline_40x400_tau0.5.txt").read_bytes()
        assert sealed.read_bytes() == (DATA / "golden_pipeline_40x400_tau0.5.fzk").read_bytes()


HOSTILE_CELLS = [
    "", " ", "0", "-0", "-0.0", "+.5", "1.", "7", " 7 ", "\t2", "1e308", "-1e308",
    "1.7976931348623157e308", "1e999", "-1e999", "5e-324", "1e-400", "inf", "-inf",
    "nan", "NaN", "1_000", "0x10", "1e", "abc", "\u0663", "\u00a07",
]


def mostly(usual, rare, odds=8):
    """``usual`` about ``odds`` times as often as ``rare``."""
    return st.integers(min_value=0, max_value=odds).flatmap(lambda r: rare if r == 0 else usual)


@st.composite
def hostile_csvs(draw):
    """Small CSV bytes with ragged rows, odd spellings and encodings."""
    n_columns = draw(st.integers(min_value=1, max_value=4))
    odd_name = st.sampled_from(["target", " d ", "", "x\ty", "\u00e9t\u00e9", "c0"])
    names = [draw(mostly(st.just(f"c{j}"), odd_name)) for j in range(n_columns)]
    cell = mostly(
        st.one_of(
            st.floats(allow_nan=False, allow_infinity=False).map(repr),
            st.integers(min_value=-(10**6), max_value=10**6).map(str),
        ),
        st.sampled_from(HOSTILE_CELLS),
    )
    # a fixed cell makes a constant column
    fixed = [draw(mostly(st.none(), cell, odds=3)) for _ in range(n_columns + 1)]
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        width = draw(mostly(st.just(n_columns), st.sampled_from([n_columns - 1, n_columns + 1]), odds=12))
        rows.append([draw(cell) if fixed[j] is None else fixed[j] for j in range(width)])
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join([",".join(names)] + [",".join(row) for row in rows])
    text += draw(st.sampled_from([newline, ""]))
    if draw(st.booleans()):
        text = "\ufeff" + text
    data = text.encode("utf-8")
    if draw(mostly(st.just(False), st.just(True), odds=6)):
        at = draw(st.integers(min_value=0, max_value=len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xe9"])) + data[at:]
    return data


def run_in_process(argv):
    """``cli.main(argv)`` with its standard streams captured: (code, stdout,
    stderr), the code 2 of a usage error that argparse reports included."""
    out, err = io.TextIOWrapper(io.BytesIO()), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    out.flush()
    return code, out.buffer.getvalue(), err.getvalue()


class TestHostileCsv:
    @settings(max_examples=300, deadline=None)
    @given(
        hostile_csvs(),
        st.sampled_from(
            [
                ["--k", "2"],
                ["--tau", "0.5"],
                ["--mode", "inference", "--k", "1"],
                ["--sets", "5", "--tau", "0.2"],
                ["--drop-incomplete-rows", "--k", "3"],
            ]
        ),
    )
    def test_select_exits_with_a_documented_code(self, tmp_path_factory, data, args):
        path = tmp_path_factory.mktemp("hostile") / "data.csv"
        path.write_bytes(data)
        self.select(path, *args)

    @staticmethod
    def select(path, *args):
        """(code, stderr) of ``select`` on ``path``, which ends in a report and
        no error, or in one error line and no output."""
        code, out, err = run_in_process(["select", str(path), *args])
        assert code in (0, 3, 4)
        if code == 0:
            assert err == ""
            assert out.startswith(b"fuzzkey-report 1\n")
        else:
            assert out == b""
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("fuzzkey: ")
        return code, err

    @pytest.mark.parametrize(
        "data, message",
        [
            (codecs.BOM_UTF8, "empty file"),
            (b"a,b\n1,2\n3,x\n\xff,4\n", "row 3, column 2 (b): not a number: 'x'"),
            (b"\xef\xbb\xbfa,b\n1,2\n\xff,4\n3,x\n", "not UTF-8 text (byte 11)"),
        ],
        ids=["byte-order-mark-only", "utf-8-error-after-a-bad-line", "utf-8-error-before-a-bad-line"],
    )
    def test_the_first_error_in_file_order_is_named(self, tmp_path, data, message):
        path = tmp_path / "data.csv"
        path.write_bytes(data)
        assert self.select(path, "--k", "1") == (3, f"fuzzkey: {path}: {message}\n")

    def test_dev_zero_ends_at_the_line_cap(self):
        message = f"fuzzkey: /dev/zero: row 1 is longer than {ingest.MAX_LINE_BYTES} bytes\n"
        assert self.select("/dev/zero", "--k", "1") == (3, message)

    @pytest.mark.parametrize(
        "extra, expected, row",
        [(0, 0, 3), (1, 3, 3), (0, 0, 1), (1, 3, 1)],
        ids=["at-the-cap", "cap-plus-one", "header-after-a-mark-at-the-cap", "header-after-a-mark-cap-plus-one"],
    )
    def test_line_at_and_past_the_cap(self, tmp_path, monkeypatch, extra, expected, row):
        # the cap does not count a byte-order mark before the header
        monkeypatch.setattr(ingest, "MAX_LINE_BYTES", 32)
        path = tmp_path / "data.csv"
        if row == 1:
            path.write_text("\ufeff" + "a" * (30 + extra) + ",b\n1,2\n")
        else:
            path.write_text("a,b\n1,2\n" + "7" * (30 + extra) + ",3\n")
        code, err = self.select(path, "--k", "1")
        assert code == expected
        if expected:
            assert err == f"fuzzkey: {path}: row {row} is longer than 32 bytes\n"

    def test_long_comma_line_is_counted_before_it_is_split(self, tmp_path):
        # a split would hold each of the line's 262 145 cells as a string
        path = tmp_path / "data.csv"
        line = b"12," * (1 << 18)
        path.write_bytes(b"a,b\n1,2\n" + line + b"\n")
        tracemalloc.start()
        try:
            code, err = self.select(path, "--k", "1")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, err) == (3, f"fuzzkey: {path}: row 3: expected 2 cells, got {(1 << 18) + 1}\n")
        assert peak < 8 * len(line)

    @pytest.mark.parametrize("cell", ["\u0661\u0662", "\uff15"], ids=["arabic-indic", "fullwidth"])
    def test_non_ascii_digits_exit_3(self, tmp_path, cell):
        path = tmp_path / "data.csv"
        path.write_bytes(f"a,b\n1,2\n{cell},3\n".encode("utf-8"))
        code, out, err = run_in_process(["select", str(path), "--k", "1"])
        assert (code, out) == (3, b"")
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("fuzzkey: ")
        assert "not a number" in lines[0]


class TestOutOfMemory:
    def test_memory_error_exits_3_with_one_line(self, toy_csv, monkeypatch, key_env):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setenv("FUZZKEY_KEY_FILE", key_env["FUZZKEY_KEY_FILE"])
        monkeypatch.setattr(cli, "analyze", exhausted)
        monkeypatch.setattr(cli, "_read_payload", exhausted)
        for argv in (["select", str(toy_csv)], ["encrypt", str(toy_csv)]):
            assert run_in_process(argv) == (3, b"", "fuzzkey: out of memory\n")


def hostile_envelopes():
    """(mutation, exit code) parameters for a tagged byte-shift envelope: every
    truncation up to 16 bytes, each header field broken, and every bit of
    the tag and of the first and last ciphertext bytes flipped."""

    def replaced(offset, value):
        return lambda raw: raw[:offset] + bytes([value]) + raw[offset + 1 :]

    def flipped(offset, bit):
        return lambda raw: replaced(offset, raw[offset] ^ 1 << bit)(raw)

    cases = [(f"truncated-{n}", lambda raw, n=n: raw[:n], 3 if n < 15 else 5) for n in range(17)]
    cases += [
        ("bad-magic", lambda raw: b"FZK2" + raw[4:], 3),
        ("version-0", replaced(4, 0), 3),
        ("version-2", replaced(4, 2), 3),
        ("mode-2", replaced(5, 2), 3),
        ("mode-ff", replaced(5, 0xFF), 3),
    ]
    cases += [(f"flag-bit-{bit}", flipped(6, bit), 3) for bit in range(1, 8)]
    cases += [(f"tag-bit-{i}", flipped(7 + i // 8, i % 8), 5) for i in range(64)]
    cases += [(f"first-byte-bit-{bit}", flipped(15, bit), 5) for bit in range(8)]
    cases += [(f"last-byte-bit-{bit}", flipped(-1, bit), 5) for bit in range(8)]
    return [pytest.param(mutate, code, id=name) for name, mutate, code in cases]


class TestHostileEnvelope:
    KEY = b"hunter2"
    ENVELOPE = seal(b"0\ttemp\t0.500000000\n1\trpm\t0.250000000\n", CipherKey(KEY)).to_bytes()

    @pytest.mark.parametrize("mutate, expected", hostile_envelopes())
    def test_decrypt_fails_before_shifting_or_writing(self, tmp_path, monkeypatch, mutate, expected):
        def shifted(*_):
            raise AssertionError("a byte was shifted before every check passed")

        monkeypatch.setattr(cipher, "_shift", shifted)
        key_path = tmp_path / "key.bin"
        key_path.write_bytes(self.KEY)
        monkeypatch.setenv("FUZZKEY_KEY_FILE", str(key_path))
        path = tmp_path / "hostile.fzk"
        path.write_bytes(mutate(self.ENVELOPE))
        output = tmp_path / "plain.bin"
        for extra in ([], ["--output", str(output)]):
            code, out, err = run_in_process(["decrypt", str(path), *extra])
            assert (code, out) == (expected, b"")
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("fuzzkey: ")
        assert not output.exists()


HOSTILE_CONFIGS = {
    "unknown-key": (b"colour = red\n", 4),
    "bad-int": (b"sets = three\n", 4),
    "bad-float": (b"tau = half\n", 4),
    "bad-bool": (b"tag = maybe\n", 4),
    "centers-length": (b"centers = 0,1\n", 4),
    "empty-centers": (b"centers =\n", 4),
    "centers-gap": (b"centers = 0,,1\n", 4),
    "nul-byte": (b"sets = 3\x00\n", 4),
    "crlf": (b"sets = 4\r\ntag = off\r\n", 0),
    "bom": (b"\xef\xbb\xbfsets = 4\n", 0),
    "at-the-cap": (b"#" * (pipeline.MAX_CONFIG_BYTES - 1) + b"\n", 0),
    "cap-plus-one": (b"#" * pipeline.MAX_CONFIG_BYTES + b"\n", 4),
}

# key file -> exit codes of: encrypt, encrypt --cipher letters, decrypt of a
# byte and of a letters envelope sealed under another key, pipeline
HOSTILE_KEYS = {
    "empty": (b"", [4, 4, 4, 4, 4]),
    "lone-lf": (b"\n", [4, 4, 4, 4, 4]),
    "lone-crlf": (b"\r\n", [4, 4, 4, 4, 4]),
    "binary": (bytes(range(256)), [0, 4, 5, 4, 0]),
    "lowercase": (b"secret", [0, 4, 5, 4, 0]),
    "other-letters": (b"OTHER\r\n", [0, 0, 5, 5, 0]),
    "cap-plus-one": (b"K" * (cli.MAX_KEY_BYTES + 1), [4, 4, 4, 4, 4]),
}


class TestHostileConfigAndKey:
    """Every reader of a config file, a key file or ``--sets`` ends in a
    documented exit code, with output only on success."""

    KEY = CipherKey(b"SECRET", cipher.MODE_LETTERS)

    @pytest.fixture
    def paths(self, tmp_path, monkeypatch):
        names = ("data.csv", "plain.txt", "byte.fzk", "letters.fzk", "key", "cfg", "out")
        paths = {name: tmp_path / name for name in names}
        paths["data.csv"].write_text(TOY)
        paths["plain.txt"].write_bytes(b"PLAIN")
        paths["byte.fzk"].write_bytes(seal(b"PLAIN", CipherKey(self.KEY.data)).to_bytes())
        paths["letters.fzk"].write_bytes(seal(b"PLAIN", self.KEY).to_bytes())
        paths["key"].write_bytes(self.KEY.data)
        monkeypatch.setenv("FUZZKEY_KEY_FILE", str(paths["key"]))
        return paths

    @staticmethod
    def argv(paths, command):
        return {
            "select": ["select", str(paths["data.csv"]), "--output", str(paths["out"])],
            "pipeline": ["pipeline", str(paths["data.csv"]), "--output", str(paths["out"])],
            "encrypt": ["encrypt", str(paths["plain.txt"]), "--output", str(paths["out"])],
            "membership": ["membership", "--x", "0.5", "--output", str(paths["out"])],
            "stats": ["stats", "--features", "3"],
        }[command]

    @staticmethod
    def assert_documented_exit(argv, output):
        code, out, err = run_in_process(argv)
        assert code in (0, 2, 3, 4, 5)
        if code == 0:
            assert err == ""
        else:
            assert out == b""
            assert not output.exists()
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("fuzzkey: ")
        if output.exists():
            output.unlink()
        return code

    @pytest.mark.parametrize("content, expected", HOSTILE_CONFIGS.values(), ids=HOSTILE_CONFIGS)
    @pytest.mark.parametrize("command", ["select", "pipeline", "encrypt", "membership", "stats"])
    def test_config_files(self, paths, command, content, expected):
        paths["cfg"].write_bytes(content)
        argv = self.argv(paths, command) + ["--config", str(paths["cfg"])]
        assert self.assert_documented_exit(argv, paths["out"]) == expected

    @pytest.mark.parametrize("key, expected", HOSTILE_KEYS.values(), ids=HOSTILE_KEYS)
    def test_key_files(self, paths, key, expected):
        paths["key"].write_bytes(key)
        codes = [
            self.assert_documented_exit(argv, paths["out"])
            for argv in (
                self.argv(paths, "encrypt"),
                self.argv(paths, "encrypt") + ["--cipher", "letters"],
                ["decrypt", str(paths["byte.fzk"]), "--output", str(paths["out"])],
                ["decrypt", str(paths["letters.fzk"]), "--output", str(paths["out"])],
                self.argv(paths, "pipeline"),
            )
        ]
        assert codes == expected

    @pytest.mark.parametrize("sets", [pipeline.MAX_SETS, pipeline.MAX_SETS + 1])
    @pytest.mark.parametrize("command", ["select", "pipeline", "membership", "stats"])
    def test_sets_at_and_past_the_cap(self, paths, command, sets):
        argv = self.argv(paths, command) + ["--sets", str(sets)]
        code = self.assert_documented_exit(argv, paths["out"])
        assert code == (0 if sets <= pipeline.MAX_SETS or command == "stats" else 4)


class TestEnvelopeMemory:
    SIZE = 4 << 20

    @pytest.mark.parametrize("mode", ["byte", "letters"])
    def test_peak_is_one_payload_plus_tag_blocks(self, tmp_path, monkeypatch, mode):
        # the payload is held once; the rest is the tag's block temporaries
        payload = os.urandom(self.SIZE)
        key = b"hunter2"
        if mode == "letters":
            payload, key = payload.translate(bytes(65 + i % 26 for i in range(256))), b"FUZZKEY"
        paths = {name: tmp_path / name for name in ("plain.bin", "sealed.fzk", "opened.bin", "key")}
        paths["plain.bin"].write_bytes(payload)
        paths["key"].write_bytes(key)
        monkeypatch.setenv("FUZZKEY_KEY_FILE", str(paths["key"]))
        for argv in (
            ["encrypt", str(paths["plain.bin"]), "--cipher", mode, "--output", str(paths["sealed.fzk"])],
            ["decrypt", str(paths["sealed.fzk"]), "--output", str(paths["opened.bin"])],
        ):
            tracemalloc.start()
            try:
                code = cli.main(argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
            assert peak <= self.SIZE + (3 << 20), (argv[0], peak)
        assert paths["opened.bin"].read_bytes() == payload


class TestSetCap:
    @pytest.mark.parametrize("command", ["select", "pipeline", "membership"])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_too_many_sets_exit_4_before_reading_data(self, tmp_path, monkeypatch, command, via):
        key = tmp_path / "key.bin"
        key.write_bytes(b"hunter2")
        monkeypatch.setenv("FUZZKEY_KEY_FILE", str(key))
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_bytes(b"a,b\n1,x\n")
        sealed = tmp_path / "sel.fzk"
        too_many = str(pipeline.MAX_SETS + 1)
        if via == "flag":
            extra = ["--sets", too_many]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"sets = {too_many}\n")
            extra = ["--config", str(cfg)]
        argv = {
            "select": ["select", str(bad_csv)],
            "pipeline": ["pipeline", str(bad_csv), "--output", str(sealed)],
            "membership": ["membership", "--x", "0.5"],
        }[command]
        code, out, err = run_in_process(argv + extra)
        assert (code, out) == (4, b"")
        assert err == f"fuzzkey: sets must be at most {pipeline.MAX_SETS}, got {too_many}\n"
        assert not sealed.exists()

    def test_select_at_the_cap_exits_0(self, toy_csv):
        code, out, err = run_in_process(["select", str(toy_csv), "--sets", str(pipeline.MAX_SETS)])
        assert (code, err) == (0, "")
        assert f"sets = {pipeline.MAX_SETS}\n".encode() in out


class TestMembership:
    def test_sweep_rows_sum_to_one(self):
        proc = run_cli(["membership", "--sweep", "0:1:0.25"])
        assert proc.returncode == 0
        lines = proc.stdout.decode().splitlines()
        assert lines[0] == "x\tLow\tMedium\tHigh\tcentroid"
        assert len(lines) == 6
        for line in lines[1:]:
            values = [float(v) for v in line.split("\t")]
            assert sum(values[1:4]) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("spec", ["0:1e9:1e-9", "0:1:5e-324", "-1e308:1e308:1"])
    def test_oversized_sweep_exits_4_before_building_points(self, spec):
        proc = run_cli(["membership", f"--sweep={spec}"], timeout=60)
        assert proc.returncode == 4
        assert_one_error_line(proc)
        assert b"at most 1000000 points" in proc.stderr
        assert proc.stdout == b""

    def test_sweep_bound_counts_sets(self, monkeypatch):
        def evaluate(*args):
            raise AssertionError("a sweep point was evaluated")

        with monkeypatch.context() as patched:
            patched.setattr(cli, "fuzzify", evaluate)
            code, out, err = run_in_process(["membership", "--sets", "1000", "--sweep", "0:1:0.0001"])
        assert (code, out) == (4, b"")
        assert err == "fuzzkey: --sweep allows at most 3000 points with 1000 sets, got '0:1:0.0001'\n"
        code, out, err = run_in_process(["membership", "--sets", "1000", "--sweep", "0:1:0.001"])
        assert (code, err) == (0, "")
        lines = out.decode().splitlines()
        assert len(lines) == 1 + 1001 and len(lines[0].split("\t")) == 1000 + 2

    @pytest.mark.parametrize("spec", ["0:0:1e-18", "0:0:1e-320", "1e300:1e300:1"])
    def test_sweep_the_bound_check_missed_exits_4(self, spec):
        # the loop walks 1e-12 past STOP, and rounding can stall it short of
        # STOP: these printed 1000002 lines or never ended
        proc = run_cli(["membership", f"--sweep={spec}"], timeout=60)
        assert (proc.returncode, proc.stdout) == (4, b"")
        message = f"fuzzkey: --sweep allows at most 1000000 points with 3 sets, got {spec!r}\n"
        assert proc.stderr == message.encode()

    @pytest.mark.parametrize("spec", ["0:0:1e-19", "0:0:1e-320"])
    def test_sweep_the_bound_check_missed_builds_no_point(self, spec):
        # the span check rejects these at once; the loop would give up only
        # after a million points, megabytes of them
        tracemalloc.start()
        try:
            with pytest.raises(ConfigurationError, match="at most 1000000 points"):
                cli._sweep_values(spec, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10

    @pytest.mark.parametrize(
        "args, expected",
        [
            (["--sweep", "0:1:0.25"], [
                "x\tLow\tMedium\tHigh\tcentroid",
                "0.000000000\t1.000000000\t0.000000000\t0.000000000\t0.000000000",
                "0.250000000\t1.000000000\t0.000000000\t0.000000000\t0.000000000",
                "0.500000000\t0.000000000\t1.000000000\t0.000000000\t0.500000000",
                "0.750000000\t0.000000000\t0.000000000\t1.000000000\t1.000000000",
                "1.000000000\t0.000000000\t0.000000000\t1.000000000\t1.000000000",
            ]),
            # 0.1 + 2 * 0.1 rounds past 0.3 and is written as 0.3
            (["--sweep", "0.1:0.3:0.1", "--sets", "4"], [
                "x\tSet1\tSet2\tSet3\tSet4\tcentroid",
                "0.100000000\t1.000000000\t0.000000000\t0.000000000\t0.000000000\t0.000000000",
                "0.200000000\t1.000000000\t0.000000000\t0.000000000\t0.000000000\t0.000000000",
                "0.300000000\t0.500000000\t0.500000000\t0.000000000\t0.000000000\t0.166666667",
            ]),
        ],
        ids=["quarters", "rounded-stop"],
    )
    def test_sweep_bytes(self, args, expected):
        assert run_in_process(["membership", *args]) == (0, ("\n".join(expected) + "\n").encode(), "")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_x_exits_4(self, value):
        proc = run_cli(["membership", f"--x={value}"])
        assert proc.returncode == 4
        assert_one_error_line(proc)
        assert proc.stdout == b""

    def test_single_value_row(self):
        proc = run_cli(["membership", "--x", "0.5"])
        assert proc.stdout.decode().splitlines()[1] == (
            "0.500000000\t0.000000000\t1.000000000\t0.000000000\t0.500000000"
        )

    def test_five_set_membership_has_five_columns(self):
        proc = run_cli(["membership", "--x", "0.5", "--sets", "5"])
        header = proc.stdout.decode().splitlines()[0]
        assert len(header.split("\t")) == 7  # x + 5 sets + centroid


class TestConfigFile:
    @pytest.mark.parametrize(
        "content, fragment",
        [
            (b"sets = 3\n# caf\xe9\n", b"not UTF-8 text (byte 14)"),
            (b"colour = red\n", b"unknown key"),
            (b"#" * pipeline.MAX_CONFIG_BYTES + b"\n", b"is longer than 1048576 bytes"),
        ],
        ids=["non-utf8", "unknown-key", "longer-than-the-cap"],
    )
    def test_bad_config_file_exits_4(self, tmp_path, content, fragment):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(content)
        proc = run_cli(["stats", "--features", "3", "--config", str(cfg)])
        assert proc.returncode == 4
        assert_one_error_line(proc)
        assert fragment in proc.stderr


    def test_config_read_reserves_only_what_it_reads(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"k = 2\n")
        tracemalloc.start()
        try:
            loaded = pipeline.load_config_file(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.k == 2
        # one read of the whole 1 MiB cap reserved all of it
        assert peak < 128 << 10


class TestStats:
    def test_counters(self):
        proc = run_cli(["stats", "--features", "4", "--sets", "3", "--layers", "4"])
        assert proc.returncode == 0
        out = proc.stdout.decode()
        assert "mf_evals = 12" in out
        assert "hidden_ops = 52" in out

    def test_large_feature_count_needs_no_network(self):
        proc = run_cli(["stats", "--features", "100000"])
        assert proc.returncode == 0
        out = proc.stdout.decode()
        assert "mf_evals = 300000\n" in out
        assert "hidden_ops = 30000100000\n" in out

    def test_huge_layer_count_needs_no_list(self):
        proc = run_cli(["stats", "--features", "3", "--layers", str(10**18)], timeout=60)
        assert (proc.returncode, proc.stderr) == (0, b"")
        out = proc.stdout.decode()
        assert "mf_evals = 9\n" in out
        assert "hidden_ops = 8999999999999999994\n" in out

    def test_huge_set_count_builds_no_centers(self, monkeypatch):
        def build(*args):
            raise AssertionError("stats built the uniform centers")

        monkeypatch.setattr(DefuzzConfig, "uniform", build)
        code, out, err = run_in_process(["stats", "--features", "1", "--sets", str(10**18)])
        assert (code, err) == (0, "")
        assert f"mf_evals = {10**18}\n".encode() in out


# membership and stats arguments -> exit code; 2 is argparse's usage error
ARGUMENT_EXTREMES = {
    "x-zero": (["membership", "--x", "0"], 0),
    "x-negative-zero": (["membership", "--x", "-0"], 0),
    "x-largest": (["membership", "--x", "1.7976931348623157e308"], 0),
    "x-most-negative": (["membership", "--x=-1.7976931348623157e308"], 0),
    "x-subnormal": (["membership", "--x", "5e-324"], 0),
    "x-overflows": (["membership", "--x", "1e999"], 4),
    "x-nan": (["membership", "--x", "nan"], 4),
    "x-word": (["membership", "--x", "half"], 2),
    "x-and-sweep": (["membership", "--x", "0.5", "--sweep", "0:1:1"], 2),
    "neither-x-nor-sweep": (["membership"], 2),
    "sets-2": (["membership", "--x", "0.5", "--sets", "2"], 0),
    "sets-1": (["membership", "--x", "0.5", "--sets", "1"], 4),
    "sets-0": (["membership", "--x", "0.5", "--sets", "0"], 4),
    "sets-negative": (["membership", "--x", "0.5", "--sets", "-3"], 4),
    "sets-past-the-cap": (["membership", "--x", "0.5", "--sets", "1001"], 4),
    "sets-huge": (["membership", "--x", "0.5", "--sets", str(10**30)], 4),
    "sets-fraction": (["membership", "--x", "0.5", "--sets", "2.5"], 2),
    "sweep-one-point": (["membership", "--sweep", "0:0:1"], 0),
    "sweep-backwards": (["membership", "--sweep", "1:0:0.5"], 0),
    "sweep-step-past-stop": (["membership", "--sweep", "0:1:1e308"], 0),
    "sweep-at-the-largest": (["membership", "--sweep", "1e308:1e308:1e308"], 0),
    "sweep-1000-sets": (["membership", "--sets", "1000", "--sweep", "0:1:0.5"], 0),
    "sweep-past-the-bound-at-1000-sets": (["membership", "--sets", "1000", "--sweep", "0:0:1e-16"], 4),
    "sweep-tiny-step": (["membership", "--sweep", "0:0:5e-324"], 4),
    "sweep-span-overflows": (["membership", "--sweep=-1e308:1e308:1e308"], 4),
    "sweep-stalls": (["membership", "--sweep", "1e300:1e300:1"], 4),
    "sweep-zero-step": (["membership", "--sweep", "0:1:0"], 4),
    "sweep-negative-step": (["membership", "--sweep", "0:1:-0.5"], 4),
    "sweep-nan-step": (["membership", "--sweep", "0:1:nan"], 4),
    "sweep-infinite-stop": (["membership", "--sweep", "0:inf:1"], 4),
    "sweep-words": (["membership", "--sweep", "a:b:c"], 4),
    "sweep-two-parts": (["membership", "--sweep", "0:1"], 4),
    "sweep-four-parts": (["membership", "--sweep", "0:1:1:1"], 4),
    "sweep-empty-parts": (["membership", "--sweep", "::"], 4),
    "sweep-empty": (["membership", "--sweep="], 4),
    "features-1": (["stats", "--features", "1"], 0),
    "features-0": (["stats", "--features", "0"], 4),
    "features-negative": (["stats", "--features", "-1"], 4),
    "features-huge": (["stats", "--features", str(10**30)], 0),
    "features-word": (["stats", "--features", "many"], 2),
    "features-missing": (["stats"], 2),
    "stats-sets-1": (["stats", "--features", "3", "--sets", "1"], 4),
    "stats-sets-negative": (["stats", "--features", "3", "--sets", "-5"], 4),
    "stats-sets-huge": (["stats", "--features", "3", "--sets", str(10**30)], 0),
    "layers-3": (["stats", "--features", "3", "--layers", "3"], 4),
    "layers-huge": (["stats", "--features", str(10**30), "--layers", str(10**30)], 0),
    "layers-fraction": (["stats", "--features", "3", "--layers", "4.5"], 2),
}


class TestArgumentExtremes:
    """``membership`` and ``stats`` end in a documented exit code, with
    output only on success; extreme sizes are met by validation only."""

    @pytest.mark.parametrize("argv, expected", ARGUMENT_EXTREMES.values(), ids=ARGUMENT_EXTREMES)
    def test_documented_exit(self, argv, expected):
        code, out, err = run_in_process(argv)
        assert code in (0, 2, 3, 4, 5) and code == expected
        if code == 0:
            assert err == ""
        else:
            assert out == b""
            lines = err.splitlines()
            if code == 2:  # argparse's usage line, then its error
                assert lines[-1].startswith(f"fuzzkey {argv[0]}: error: ")
            else:
                assert len(lines) == 1 and lines[0].startswith("fuzzkey: ")


README = Path(__file__).resolve().parent.parent / "README.md"


class TestReadme:
    def test_flags_line_matches_the_parser(self):
        # the README lists the long options of select, pipeline and encrypt,
        # with the choices of each option that has them
        text = README.read_text(encoding="utf-8")
        paragraph = text[text.index("Flags: ") :].split("\n\n", 1)[0]
        documented = {}
        for spec in re.findall(r"`(--[^`]+)`", paragraph):
            names, _, argument = spec.partition(" ")
            for name in names.split("/"):
                documented[name] = argument
        parser = cli.build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        registered = {}
        for command in ("select", "pipeline", "encrypt"):
            for action in commands.choices[command]._actions:
                for name in action.option_strings:
                    if name.startswith("--") and name != "--help":
                        registered[name] = action.choices
        assert set(documented) == set(registered)
        for name, choices in registered.items():
            if choices is not None:
                assert documented[name].split("|") == list(choices), name

    def test_limits_match_the_code(self):
        # the set cap, the sweep bound and the read caps the README states
        text = " ".join(README.read_text(encoding="utf-8").split())
        caps = re.findall(r"\(2\.\.(\d+)\)", text) + re.findall(r"take at most (\d+) sets", text)
        assert caps == [str(pipeline.MAX_SETS)] * 2
        bound = re.findall(r"at most (\d+) points up to 3 sets, and at most (\d+) / S points", text)
        assert bound == [(str(cli.MAX_SWEEP_POINTS), str(3 * cli.MAX_SWEEP_POINTS))]
        assert re.findall(r"A key file may hold at most (\d+) bytes", text) == [str(cli.MAX_KEY_BYTES)]
        assert re.findall(r"A config file may hold at most (\d+) bytes", text) == [
            str(pipeline.MAX_CONFIG_BYTES)
        ]
        assert re.findall(r"input may hold at most (\d+) bytes", text) == [str(cli.MAX_PAYLOAD_BYTES)]
        assert re.findall(r"A CSV line may hold at most (\d+) bytes", text) == [str(ingest.MAX_LINE_BYTES)]
