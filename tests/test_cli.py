import argparse
import codecs
import errno
import io
import os
import random
import re
import resource
import shutil
import signal
import stat
import subprocess
import sys
import tempfile
import threading
import tomllib
import tracemalloc
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fuzzkey import CipherKey, ConfigurationError, DefuzzConfig, cipher, cli, fuzzy, ingest, pipeline, seal

SRC = str(Path(__file__).resolve().parent.parent / "src")
DATA = Path(__file__).resolve().parent / "data"

TOY = "a,b,c\n1,9,4\n2,3,4\n3,6,4\n"


def run_cli(
    args,
    env_extra=None,
    cwd=None,
    timeout=None,
    stdin=None,
    close_stdout=False,
    stdout=subprocess.PIPE,
    preexec_fn=None,
):
    env = os.environ.copy()
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("FUZZKEY_KEY_FILE", None)
    if env_extra:
        env.update(env_extra)
    # ``stdin`` is bytes to write, or a file the child reads from
    source = {"input": stdin} if isinstance(stdin, bytes) else {"stdin": stdin}
    command = [sys.executable, "-m", "fuzzkey", *args]
    if close_stdout:
        # the shell starts the child with no file descriptor 1
        command = ["sh", "-c", 'exec "$@" >&-', "sh", *command]
    return subprocess.run(
        command,
        **source,
        stdout=stdout,
        stderr=subprocess.PIPE,
        env=env,
        cwd=cwd,
        timeout=timeout,
        preexec_fn=preexec_fn,
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
        [b"a,b\n1\n", b"a,b\n1,\xff\n", b"a,b\n", b"a\n1\n\n2\n", b"a\n\n"],
        ids=["short-row", "non-utf8", "header-only", "empty-line", "only-an-empty-line"],
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

    @pytest.mark.parametrize(
        "header, other",
        [("a", ""), ("a,target", ",2"), ("a,b", ",2")],
        ids=["alone", "beside-a-target", "beside-a-feature"],
    )
    def test_the_sign_of_a_zero_extreme_ignores_the_other_columns(self, tmp_path, header, other):
        data = tmp_path / "zeros.csv"
        data.write_text(header + "\n" + "".join(f"{cell}{other}\n" for cell in ["0", "-0"] + ["1"] * 7))
        code, out, err = run_in_process(["select", str(data), "--k", "1"])
        assert (code, err) == (0, "")
        assert b"\na\t-0.0\t1.0\n" in out

    def test_scoring_builds_no_partition_or_rule_base(self, toy_csv, monkeypatch):
        def build(*args):
            raise AssertionError("select built a partition or a rule base")

        monkeypatch.setattr(fuzzy, "make_uniform_partition", build)
        monkeypatch.setattr(cli, "make_uniform_partition", build)
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

    def test_a_key_of_the_cap_round_trips(self, tmp_path, monkeypatch):
        # a payload longer than the key, so its last blocks meet the key from
        # its start again; the key ends in no newline for the reader to strip
        key = CipherKey(random.Random(7).randbytes(cli.MAX_KEY_BYTES - 1) + b"k")
        payload = random.Random(8).randbytes(cli.MAX_KEY_BYTES + cipher.BLOCK_BYTES + 3)
        monkeypatch.chdir(tmp_path)
        Path("key").write_bytes(key.data)
        Path("plain.bin").write_bytes(payload)
        monkeypatch.setenv("FUZZKEY_KEY_FILE", "key")
        assert run_in_process(["encrypt", "plain.bin", "--output", "sealed.fzk"]) == (0, b"", "")
        assert Path("sealed.fzk").read_bytes() == seal(payload, key).to_bytes()
        assert run_in_process(["decrypt", "sealed.fzk", "--output", "opened.bin"]) == (0, b"", "")
        assert Path("opened.bin").read_bytes() == payload

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

        def refused(*args):
            raise AssertionError("a regular file longer than the cap was read or copied")

        try:
            pipe = f"/dev/fd/{read_end}"
            for command, path in [("encrypt", plain), ("decrypt", sealed), ("encrypt", pipe)]:
                with pytest.MonkeyPatch.context() as patch:
                    if path != pipe:
                        # a regular file that long is never read
                        patch.setattr(cli, "_fill", refused)
                        patch.setattr(tempfile, "TemporaryFile", refused)
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

    def test_the_selection_is_serialized_once(self, toy_csv, tmp_path, key_env, monkeypatch):
        # the envelope and the report's [selected] block share one copy
        calls = []
        serialize = cipher.serialize_selection
        monkeypatch.setattr(cipher, "serialize_selection", lambda *args: calls.append(args) or serialize(*args))
        monkeypatch.setenv("FUZZKEY_KEY_FILE", key_env["FUZZKEY_KEY_FILE"])
        code, out, err = run_in_process(["pipeline", str(toy_csv), "--k", "2", "--output", str(tmp_path / "sel.fzk")])
        assert (code, err, len(calls)) == (0, "", 1)
        assert out.startswith(b"fuzzkey-report 1\n")

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

    def test_report_to_a_closed_pipe_leaves_no_envelope(self, tmp_path, key_env):
        # stdout is a pipe whose reader has gone, so the report fails after
        # the envelope is written; the envelope must not appear
        env_file = tmp_path / "sel.fzk"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            args = ["pipeline", str(DATA / "fixture_5x20.csv"), "--k", "2", "--output", str(env_file)]
            proc = run_cli(args, key_env, stdout=write_end)
        finally:
            os.close(write_end)
        assert proc.returncode == 3
        assert_one_error_line(proc)
        assert sorted(os.listdir(tmp_path)) == ["key.bin"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_a_full_device_output_leaves_stdout_empty(self, key_env):
        # a device target is written in place; its envelope fails before
        # the report is written
        args = ["pipeline", str(DATA / "fixture_5x20.csv"), "--k", "2", "--output", "/dev/full"]
        proc = run_cli(args, key_env)
        assert proc.returncode == 3
        assert proc.stdout == b""
        assert_one_error_line(proc)


class TestGoldenPipeline:
    """``pipeline --tau 0.5`` on 40 rows x 400 features, against the report
    and envelope written by the per-column scoring code.

    The table mixes signed zeros, ties, constant columns, magnitudes near
    1e300, a column whose span overflows and a target in the middle.  It is
    parsed in one chunk of rows and scored in one block; parsed in chunks of
    two rows and scored in 17 blocks, the last of them partial; and parsed
    a row at a time and scored a column at a time.  Chunks are parsed in up
    to two processes.
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
        code = cli.main(["pipeline", str(self.CSV), "--tau", "0.5", "--jobs", "2", "--output", str(sealed)])
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
            (b"a,b\n1,2\n3,x\n" + b"7" * 40 + b",3\n", "row 3, column 2 (b): not a number: 'x'"),
            (b"a,b\n1,2\n3,4\n" + b"7" * 40 + b",3\n", "row 4 is longer than 32 bytes"),
        ],
        ids=[
            "byte-order-mark-only",
            "utf-8-error-after-a-bad-line",
            "utf-8-error-before-a-bad-line",
            "bad-line-before-a-line-past-the-cap",
            "line-past-the-cap-after-good-lines",
        ],
    )
    def test_the_first_error_in_file_order_is_named(self, tmp_path, monkeypatch, data, message):
        monkeypatch.setattr(ingest, "MAX_LINE_BYTES", 32)
        path = tmp_path / "data.csv"
        path.write_bytes(data)
        assert self.select(path, "--k", "1") == (3, f"fuzzkey: {path}: {message}\n")

    def test_dev_zero_ends_at_the_line_cap(self):
        message = f"fuzzkey: /dev/zero: row 1 is longer than {ingest.MAX_LINE_BYTES} bytes\n"
        assert self.select("/dev/zero", "--k", "1") == (3, message)

    @pytest.mark.parametrize(
        "data, args, row",
        [
            ("a,b\n1,2\n" + "7" * 30 + ",3\n", [], None),
            ("a,b\n1,2\n" + "7" * 31 + ",3\n", [], 3),
            # the cap does not count a byte-order mark before the header
            ("\ufeff" + "a" * 30 + ",b\n1,2\n", [], None),
            ("\ufeff" + "a" * 31 + ",b\n1,2\n", [], 1),
            # split at the cap, the line would give two rows with a blank
            # cell, and drop mode would drop both
            ("a,b\n1,2\n," + "7" * 32 + ",5\n", ["--drop-incomplete-rows"], 3),
            # a line past the cap with a blank cell, and a row after it: the
            # line's first 33 bytes end their chunk, so that the per-cell
            # parser reads them; whole and inside a chunk, drop mode would
            # drop the line
            ("a,b\n1,2\n," + "7" * 40 + "\n3,4\n", ["--drop-incomplete-rows"], 3),
        ],
        ids=[
            "at-the-cap",
            "cap-plus-one",
            "header-after-a-mark-at-the-cap",
            "header-after-a-mark-cap-plus-one",
            "drop-mode-past-the-cap",
            "drop-mode-past-the-cap-before-a-row",
        ],
    )
    def test_line_at_and_past_the_cap(self, tmp_path, monkeypatch, data, args, row):
        monkeypatch.setattr(ingest, "MAX_LINE_BYTES", 32)
        path = tmp_path / "data.csv"
        path.write_text(data)
        code, err = self.select(path, "--k", "1", *args)
        if row is None:
            assert code == 0
        else:
            assert (code, err) == (3, f"fuzzkey: {path}: row {row} is longer than 32 bytes\n")

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
        monkeypatch.setattr(cli, "_payload", exhausted)
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

    @pytest.mark.parametrize(
        "content, sets",
        [
            (b"# default\x0csets = 999\n", 3),
            ("# note\x85sets = 1001\n".encode(), 3),
            (b"sets = 4\rlayers = 5\r", 4),
            (b"# sets = 6\r\nsets = 5 # not 6\r\n", 5),
        ],
        ids=["form-feed", "nel", "cr", "crlf-and-comments"],
    )
    def test_lines_end_only_at_lf_crlf_or_cr(self, paths, content, sets):
        # str.splitlines also ends a line at a form feed or U+0085, which
        # let a comment set a value
        paths["cfg"].write_bytes(content)
        code, out, err = run_in_process(["stats", "--features", "3", "--config", str(paths["cfg"])])
        assert (code, err) == (0, "")
        assert out.decode().splitlines()[1] == f"sets = {sets}"

    @pytest.mark.parametrize("sets", [pipeline.MAX_SETS, pipeline.MAX_SETS + 1])
    @pytest.mark.parametrize("command", ["select", "pipeline", "membership", "stats"])
    def test_sets_at_and_past_the_cap(self, paths, command, sets):
        argv = self.argv(paths, command) + ["--sets", str(sets)]
        code = self.assert_documented_exit(argv, paths["out"])
        assert code == (0 if sets <= pipeline.MAX_SETS or command == "stats" else 4)


class TestEnvelopeMemory:
    @pytest.mark.parametrize("mode", ["byte", "letters"])
    def test_peak_does_not_grow_with_the_payload(self, tmp_path, monkeypatch, mode):
        # one block buffer and the tag's block temporaries, whatever the size
        key = b"hunter2" if mode == "byte" else b"FUZZKEY"
        paths = {name: tmp_path / name for name in ("plain.bin", "sealed.fzk", "opened.bin", "key")}
        paths["key"].write_bytes(key)
        monkeypatch.setenv("FUZZKEY_KEY_FILE", str(paths["key"]))
        for size in (4 << 20, 16 << 20):
            payload = os.urandom(size)
            if mode == "letters":
                payload = payload.translate(bytes(65 + i % 26 for i in range(256)))
            paths["plain.bin"].write_bytes(payload)
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
                assert peak <= 2 << 20, (argv[0], size, peak)
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


class TestFlagsOverConfig:
    """A flag replaces the config key of the same name, and ``--k`` or
    ``--tau`` replaces the config file's selection rule."""

    @pytest.mark.parametrize(
        "config, flags, lines",
        [
            ("tau = 0.3\n", ["--k", "2"], "selection = topk\nk = 2\n"),
            ("k = 2\n", ["--tau", "0.3"], "selection = threshold\ntau = 0.300000000\n"),
        ],
        ids=["k-flag-over-config-tau", "tau-flag-over-config-k"],
    )
    def test_a_selection_flag_replaces_the_file_rule(self, toy_csv, tmp_path, config, flags, lines):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        code, out, err = run_in_process(["select", str(toy_csv), "--config", str(cfg), *flags])
        assert (code, err) == (0, "")
        assert f"\n[config]\nsets = 3\nlayers = 4\nmode = inference\n{lines}" in out.decode()

    def test_k_and_tau_flags_exit_4(self, toy_csv):
        code, out, err = run_in_process(["select", str(toy_csv), "--k", "2", "--tau", "0.3"])
        assert (code, out) == (4, b"")
        assert err == "fuzzkey: choose either k (top-k) or tau (threshold), not both\n"

    @pytest.mark.parametrize(
        "key, value, message",
        [
            pytest.param(*case, id=case[0])
            for case in [
                ("sets", "x", "expected an integer, got 'x'"),
                ("layers", "x", "expected an integer, got 'x'"),
                ("mode", "sum", "expected inference, got 'sum'"),
                ("k", "x", "expected an integer, got 'x'"),
                ("tau", "x", "expected a number, got 'x'"),
                ("centers", "0, x", "expected a number, got 'x'"),
                ("empty_activation_value", "x", "expected a number, got 'x'"),
                ("cipher", "rot13", "expected byte or letters, got 'rot13'"),
                ("tag", "maybe", "expected on/off, got 'maybe'"),
            ]
        ],
    )
    def test_every_key_refuses_a_bad_value(self, tmp_path, key, value, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        result = run_in_process(["stats", "--features", "3", "--config", str(cfg)])
        assert result == (4, b"", f"fuzzkey: {key}: {message}\n")


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


class TestClosedStdout:
    """A command whose output goes to a closed stdout exits 3 with one line;
    pipeline checks before any work, so it leaves no envelope."""

    @pytest.mark.parametrize(
        "command",
        [["stats", "--features", "3"], ["select", "{csv}"], ["pipeline", "{csv}", "--output", "{out}"]],
        ids=["stats", "select", "pipeline"],
    )
    def test_exits_3_and_writes_nothing(self, toy_csv, tmp_path, key_env, command):
        out = tmp_path / "out"
        argv = [arg.format(csv=toy_csv, out=out) for arg in command]
        proc = run_cli(argv, env_extra=key_env, close_stdout=True)
        assert (proc.returncode, proc.stderr) == (3, b"fuzzkey: stdout is closed\n")
        assert not out.exists()

    def test_output_file_needs_no_stdout(self, toy_csv, tmp_path):
        out = tmp_path / "report.txt"
        proc = run_cli(["select", str(toy_csv), "--output", str(out)], close_stdout=True)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert out.read_bytes() == run_cli(["select", str(toy_csv)]).stdout


class TestReadme:
    def test_config_example_parses(self, tmp_path):
        # the README's config block, copied as written, with its comments
        text = README.read_text(encoding="utf-8")
        path = tmp_path / "fuzzkey.cfg"
        path.write_text(text[text.index("### Config file") :].split("```")[1])
        cfg = pipeline.load_config_file(path)
        assert (cfg.sets, cfg.layers, cfg.k, cfg.tau) == (3, 4, 2, None)
        assert (cfg.centers, cfg.empty_activation_value) == ((0.0, 0.5, 1.0), 0.0)
        assert (cfg.cipher_mode, cfg.tag) == (cipher.MODE_BYTE_SHIFT, True)

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
        assert re.findall(r"in rounds of up to (\d+) chunks", text) == [str(ingest._ROUND)]


def open_fds():
    return len(os.listdir("/proc/self/fd"))


@contextmanager
def pipe_holding(data):
    """A path that reads ``data`` from a pipe; ``data`` fits its buffer."""
    read_end, write_end = os.pipe()
    os.write(write_end, data)
    os.close(write_end)
    try:
        yield f"/dev/fd/{read_end}"
    finally:
        os.close(read_end)


@contextmanager
def umask(mask):
    old = os.umask(mask)
    try:
        yield
    finally:
        os.umask(old)


class TestOutputFile:
    """``--output`` is replaced on success only, with the mode, symlink and
    device rules that ``open(path, "wb")`` gave it."""

    @pytest.fixture
    def paths(self, tmp_path, monkeypatch, golden_key, golden_payload):
        paths = {name: tmp_path / name for name in ("key.bin", "plain.bin", "sealed.fzk", "toy.csv")}
        paths["key.bin"].write_bytes(golden_key)
        paths["plain.bin"].write_bytes(golden_payload)
        paths["sealed.fzk"].write_bytes(seal(golden_payload, CipherKey(golden_key)).to_bytes())
        paths["toy.csv"].write_text(TOY)
        monkeypatch.setenv("FUZZKEY_KEY_FILE", str(paths["key.bin"]))
        return paths

    @staticmethod
    def argv(paths, command, output):
        source = {"encrypt": "plain.bin", "decrypt": "sealed.fzk", "select": "toy.csv"}[command]
        return [command, str(paths[source]), "--output", str(output)]

    @pytest.mark.parametrize("mask", [0o022, 0o077])
    @pytest.mark.parametrize("command", ["encrypt", "decrypt", "select"])
    def test_new_file_mode_follows_the_umask(self, paths, tmp_path, command, mask):
        output = tmp_path / "new.out"
        with umask(mask):
            assert run_in_process(self.argv(paths, command, output))[0] == 0
        assert stat.S_IMODE(output.stat().st_mode) == 0o666 & ~mask

    @pytest.mark.parametrize("command", ["encrypt", "decrypt"])
    def test_overwritten_file_keeps_its_mode(self, paths, tmp_path, command):
        output = tmp_path / "private.out"
        output.write_bytes(b"old contents")
        output.chmod(0o600)
        with umask(0o022):
            assert run_in_process(self.argv(paths, command, output)) == (0, b"", "")
        assert stat.S_IMODE(output.stat().st_mode) == 0o600
        source = paths["plain.bin" if command == "decrypt" else "sealed.fzk"]
        assert output.read_bytes() == source.read_bytes()

    @pytest.mark.parametrize("exists", [True, False], ids=["existing", "dangling"])
    def test_symlink_is_written_through(self, paths, tmp_path, exists):
        target = tmp_path / "elsewhere" / "target.fzk"
        target.parent.mkdir()
        if exists:
            target.write_bytes(b"old contents")
        link = tmp_path / "link.fzk"
        link.symlink_to(target)
        assert run_in_process(self.argv(paths, "encrypt", link)) == (0, b"", "")
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == paths["sealed.fzk"].read_bytes()
        assert os.listdir(target.parent) == ["target.fzk"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    @pytest.mark.parametrize("command", ["encrypt", "decrypt"])
    def test_fifo_is_streamed_in_place(self, paths, tmp_path, monkeypatch, command):
        # blocks smaller than the payload and the pipe buffer, so the FIFO
        # takes several writes while the reader drains it
        monkeypatch.setattr(cipher, "BLOCK_BYTES", 1 << 14)
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        try:
            result = run_in_process(self.argv(paths, command, fifo))
            reader.join(timeout=30)
        finally:
            if reader.is_alive():  # the command never opened the FIFO
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        assert result == (0, b"", "")
        source = paths["plain.bin" if command == "decrypt" else "sealed.fzk"]
        assert received == [source.read_bytes()]
        assert stat.S_ISFIFO(fifo.stat().st_mode)

    @pytest.mark.parametrize("command", ["encrypt", "decrypt", "select"])
    def test_missing_directory_names_the_given_path(self, paths, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_in_process(self.argv(paths, command, "missing/out.bin"))
        assert (code, out) == (3, b"")
        assert err == "fuzzkey: [Errno 2] No such file or directory: 'missing/out.bin'\n"


# failure -> (commands it applies to, exit code)
OUTPUT_FAILURES = {
    "success": ({"encrypt", "decrypt", "select", "pipeline"}, 0),
    "missing-key": ({"encrypt", "decrypt", "pipeline"}, 4),
    "letters-plaintext": ({"encrypt"}, 3),
    "tag-mismatch": ({"decrypt"}, 5),
    "pipe-past-the-cap": ({"encrypt", "decrypt"}, 3),
    "missing-tmpdir": ({"encrypt", "decrypt", "select", "pipeline"}, 3),
    "memory-error": ({"encrypt", "decrypt", "select", "pipeline"}, 3),
    "failing-write": ({"encrypt", "decrypt", "select", "pipeline"}, 3),
    "failing-replace": ({"encrypt", "decrypt", "select", "pipeline"}, 3),
}


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
class TestNothingLeftBehind:
    """Whatever the exit, no temporary file stays beside ``--output`` and no
    file descriptor stays open; the output exists only on success."""

    KEY = CipherKey(b"SECRET")
    PAYLOAD = bytes(range(256)) * 80  # five blocks of 4096 bytes, the last partial

    @pytest.mark.parametrize(
        "command, failure, expected",
        [
            pytest.param(command, failure, code, id=f"{command}-{failure}")
            for failure, (commands, code) in OUTPUT_FAILURES.items()
            for command in ("encrypt", "decrypt", "select", "pipeline")
            if command in commands
        ],
    )
    def test_closed_on_every_exit(self, tmp_path, monkeypatch, command, failure, expected):
        inputs, outputs = tmp_path / "in", tmp_path / "out"
        inputs.mkdir()
        outputs.mkdir()
        sealed = bytearray(seal(self.PAYLOAD, self.KEY).to_bytes())
        if failure == "tag-mismatch":
            sealed[-1] ^= 1
        files = {"encrypt": self.PAYLOAD, "decrypt": bytes(sealed), "select": TOY.encode(), "pipeline": TOY.encode()}
        source = inputs / "source"
        source.write_bytes(files[command])
        (inputs / "key").write_bytes(self.KEY.data)
        monkeypatch.setenv("FUZZKEY_KEY_FILE", str(inputs / "key"))
        monkeypatch.setattr(cipher, "BLOCK_BYTES", 4096)
        if failure == "missing-key":
            monkeypatch.delenv("FUZZKEY_KEY_FILE")
        elif failure == "pipe-past-the-cap":
            monkeypatch.setattr(cli, "MAX_PAYLOAD_BYTES", len(self.PAYLOAD) // 2)
        elif failure == "missing-tmpdir":
            monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
        elif failure == "memory-error":
            self.fail_mid_stream(monkeypatch, command, outputs)
        elif failure == "failing-write":
            self.fail_writes(monkeypatch)
        elif failure == "failing-replace":

            def replace(*args):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))

            monkeypatch.setattr(os, "replace", replace)
        output = outputs / "result"
        with pipe_holding(files[command]) as pipe:
            path = pipe if failure == "pipe-past-the-cap" else str(source)
            argv = [command, path, "--output", str(output)]
            if failure == "letters-plaintext":
                argv += ["--cipher", "letters"]
            before = open_fds()
            code, out, err = run_in_process(argv)
            assert open_fds() == before
        assert code == expected
        assert os.listdir(outputs) == (["result"] if expected == 0 else [])
        if expected != 0:
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("fuzzkey: ")
        # only pipeline writes to stdout, its report, before it replaces the
        # envelope
        assert (out != b"") == (command == "pipeline" and failure in ("success", "failing-replace"))

    @staticmethod
    def fail_mid_stream(monkeypatch, command, outputs):
        if command in ("select", "pipeline"):

            def exhausted(*args):
                raise MemoryError

            monkeypatch.setattr(cli, "render_report", exhausted)
            return
        shift = cipher._shift

        def shifted(*args):
            # the second block shifted while the output is open
            if os.listdir(outputs):
                calls.append(args)
                if len(calls) == 2:
                    raise MemoryError
            shift(*args)

        calls = []
        monkeypatch.setattr(cipher, "_shift", shifted)

    @staticmethod
    def fail_writes(monkeypatch):
        class Full:
            def __init__(self, handle):
                self.handle = handle

            def write(self, data):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

        def full(file, mode="r", *args, **kwargs):
            handle = open(file, mode, *args, **kwargs)
            return Full(handle) if "w" in mode else handle

        monkeypatch.setattr(cli, "open", full, raising=False)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
class TestEmptyPath:
    """An empty ``--output`` or ``--config`` names no file: it exits 3, with
    nothing on stdout, no file left in the working directory or its parent
    and no file descriptor left open."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["select", "toy.csv", "--k", "1", "--output", ""],
            ["pipeline", "toy.csv", "--k", "1", "--output", ""],
            ["encrypt", "plain.bin", "--output", ""],
            ["decrypt", "sealed.fzk", "--output", ""],
            ["membership", "--x", "0.5", "--output", ""],
            ["select", "toy.csv", "--config", ""],
            ["pipeline", "toy.csv", "--output", "out.fzk", "--config", ""],
            ["encrypt", "plain.bin", "--config", ""],
            ["membership", "--x", "0.5", "--config", ""],
            ["stats", "--features", "3", "--config", ""],
        ],
        ids=lambda argv: f"{argv[0]}{argv[-2]}",
    )
    def test_exits_3_and_leaves_nothing(self, tmp_path, monkeypatch, argv):
        work = tmp_path / "work"
        work.mkdir()
        (work / "toy.csv").write_text(TOY)
        (work / "plain.bin").write_bytes(b"PLAIN")
        (work / "sealed.fzk").write_bytes(seal(b"PLAIN", CipherKey(b"SECRET")).to_bytes())
        (tmp_path / "key").write_bytes(b"SECRET")
        monkeypatch.setenv("FUZZKEY_KEY_FILE", str(tmp_path / "key"))
        monkeypatch.chdir(work)
        files = sorted(os.listdir(work)), sorted(os.listdir(tmp_path))
        before = open_fds()
        result = run_in_process(argv)
        assert open_fds() == before
        assert result == (3, b"", "fuzzkey: [Errno 2] No such file or directory: ''\n")
        assert (sorted(os.listdir(work)), sorted(os.listdir(tmp_path))) == files


class TestPassTwoReadsTheCopy:
    """Pass 1 copies the input and pass 2 reads only that copy, so a change
    to the input between the passes does not reach the output: it is that
    of the bytes pass 1 read and checked, and ``decrypt`` writes no byte
    whose tag it did not verify."""

    KEY = CipherKey(b"SECRET")
    PAYLOAD = bytes(range(256)) * 80

    @pytest.mark.parametrize("output", ["stdout", "file"])
    @pytest.mark.parametrize("command", ["encrypt", "decrypt"])
    @pytest.mark.parametrize("change", ["none", "grown", "rewritten", "replaced", "flipped"])
    def test_output_is_what_pass_1_read(self, tmp_path, monkeypatch, change, command, output):
        source, outputs = self.inputs(tmp_path, monkeypatch, command)
        sealed = seal(self.PAYLOAD, self.KEY).to_bytes()
        data = source.read_bytes()
        reread = cli._Passes.reread

        def changed(passes, start):
            info = os.stat(source)
            if change == "grown":
                # one byte longer, with the modification time it had
                with open(source, "ab") as handle:
                    handle.write(b"!")
                os.utime(source, ns=(info.st_atime_ns, info.st_mtime_ns))
            elif change == "rewritten":
                # the same size, and a later modification time however
                # coarse the file system's clock
                source.write_bytes(data[::-1])
                os.utime(source, ns=(info.st_atime_ns, info.st_mtime_ns + 10**9))
            elif change == "replaced":
                # the same size and modification time, in another inode
                shutil.copy2(source, tmp_path / "copy")
                os.replace(tmp_path / "copy", source)
            elif change == "flipped":
                # one byte flipped in place: the same size, modification
                # time and inode
                with open(source, "r+b") as handle:
                    handle.seek(100)
                    byte = handle.read(1)[0]
                    handle.seek(100)
                    handle.write(bytes([byte ^ 1]))
                os.utime(source, ns=(info.st_atime_ns, info.st_mtime_ns))
            return reread(passes, start)

        monkeypatch.setattr(cli._Passes, "reread", changed)
        result = outputs / "result"
        argv = [command, str(source)] + (["--output", str(result)] if output == "file" else [])
        before = open_fds()
        code, out, err = run_in_process(argv)
        assert open_fds() == before
        assert (code, err) == (0, "")
        expected = sealed if command == "encrypt" else self.PAYLOAD
        if output == "file":
            assert out == b"" and result.read_bytes() == expected
        else:
            assert out == expected and os.listdir(outputs) == []

    @pytest.mark.parametrize("command", ["encrypt", "decrypt"])
    def test_a_copy_that_ends_early_exits_3(self, tmp_path, monkeypatch, command):
        source, outputs = self.inputs(tmp_path, monkeypatch, command)
        reread = cli._Passes.reread

        def truncated(passes, start):
            passes._copy.truncate(start + 10)
            return reread(passes, start)

        monkeypatch.setattr(cli._Passes, "reread", truncated)
        before = open_fds()
        code, out, err = run_in_process([command, str(source), "--output", str(outputs / "result")])
        assert open_fds() == before
        assert (code, out, err) == (3, b"", f"fuzzkey: the copy of input {source} ended early\n")
        assert os.listdir(outputs) == []

    def inputs(self, tmp_path, monkeypatch, command):
        """The input ``command`` reads and an empty output directory."""
        source, outputs = tmp_path / "source", tmp_path / "out"
        outputs.mkdir()
        source.write_bytes(self.PAYLOAD if command == "encrypt" else seal(self.PAYLOAD, self.KEY).to_bytes())
        (tmp_path / "key").write_bytes(self.KEY.data)
        monkeypatch.setenv("FUZZKEY_KEY_FILE", str(tmp_path / "key"))
        return source, outputs


def reaped():
    """Whether this process has no child process left, running or not."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class TestParsingProcesses:
    """``select --jobs 2`` on twelve rows of three columns, parsed in chunks
    of two rows by forked processes, ends in the report that ``--jobs 1``
    writes, or in the one error line it writes; every process is reaped and
    every pipe closed."""

    ROWS = ["a,b,c"] + [f"{i},{-i},{i / 7!r}" for i in range(1, 13)]

    @pytest.fixture(autouse=True)
    def chunks_of_two_rows(self, monkeypatch):
        monkeypatch.setattr(ingest, "_SCORE_BLOCK", 6)
        monkeypatch.setattr(ingest, "MAX_LINE_BYTES", 32)
        # two processes even on a machine with one CPU
        monkeypatch.setattr(ingest, "usable_cpus", lambda: 2)

    def write(self, tmp_path, edits=()):
        """The table as a CSV file, each ``(row number, line)`` edit applied."""
        rows = [row.encode() for row in self.ROWS]
        for row_number, line in edits:
            rows[row_number - 1] = line
        path = tmp_path / "data.csv"
        path.write_bytes(b"\n".join(rows) + b"\n")
        return path

    def select(self, capfd, path, jobs=None):
        """Run ``select``, with ``--jobs`` unless ``jobs`` is ``None``."""
        assert reaped()
        before = open_fds()
        code = cli.main(["select", str(path), "--k", "1"] + (["--jobs", jobs] if jobs else []))
        out, err = capfd.readouterr()
        assert reaped()
        assert open_fds() == before
        return code, out, err

    def test_report_is_written_once(self, tmp_path, capfd):
        path = self.write(tmp_path)
        serial = self.select(capfd, path, "1")
        assert serial[0] == 0 and serial[1].count("fuzzkey-report 1") == 1
        assert self.select(capfd, path, "2") == serial

    @pytest.mark.parametrize(
        "edits, message",
        [
            ([(5, b"5,x,1"), (6, b"y,6,1")], "row 5, column 2 (b): not a number: 'x'"),
            ([(9, b"9,\xff,1")], "not UTF-8 text (byte 163)"),
            ([(10, b"7" * 40 + b",1,2"), (11, b"z,1,2")], "row 10 is longer than 32 bytes"),
        ],
        ids=["bad-cells-in-chunks-2-and-3", "non-utf-8-in-chunk-4", "line-past-the-cap-in-chunk-5"],
    )
    def test_the_first_error_in_file_order_is_named(self, tmp_path, capfd, edits, message):
        path = self.write(tmp_path, edits)
        expected = (3, "", f"fuzzkey: {path}: {message}\n")
        assert self.select(capfd, path, "1") == expected
        assert self.select(capfd, path, "2") == expected

    @pytest.mark.parametrize(
        "fate, message",
        [("memory-error", "out of memory"), ("killed", "a CSV parsing process ended early")],
    )
    def test_a_failing_process_exits_3(self, tmp_path, capfd, monkeypatch, fate, message):
        parent, loaded = os.getpid(), ingest._loaded

        def failing(chunk, *args):
            # only ever in a forked process, and only on the chunk of rows 6 and 7
            if os.getpid() != parent and chunk[0].startswith(b"5,"):
                if fate == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise MemoryError
            return loaded(chunk, *args)

        monkeypatch.setattr(ingest, "_loaded", failing)
        path = self.write(tmp_path)
        assert self.select(capfd, path, "1")[0] == 0
        assert self.select(capfd, path, "2") == (3, "", f"fuzzkey: {message}\n")

    def test_a_process_that_dies_is_blamed_at_the_chunk_it_died_on(self, tmp_path, capfd, monkeypatch):
        # of two processes, the first finds a bad cell in chunk 2 (rows 6
        # and 7), and the second is killed on chunk 3 after it parsed chunk 1
        parent, loaded = os.getpid(), ingest._loaded

        def killed(chunk, *args):
            if os.getpid() != parent and chunk[0].startswith(b"7,"):
                os.kill(os.getpid(), signal.SIGKILL)
            return loaded(chunk, *args)

        monkeypatch.setattr(ingest, "_loaded", killed)
        path = self.write(tmp_path, [(6, b"5,x,1")])
        expected = (3, "", f"fuzzkey: {path}: row 6, column 2 (b): not a number: 'x'\n")
        assert self.select(capfd, path, "1") == expected
        assert self.select(capfd, path, "2") == expected

    def logged(self, monkeypatch, tmp_path):
        """Count the forks, which still fork, and log the process that parses
        each chunk; returns the processes forked, in order, and a function
        that reads and empties the log as sorted ``(chunk index, pid)``."""
        fork, loaded, log, forked = os.fork, ingest._loaded, tmp_path / "parsed.log", []

        def counting_fork():
            pid = fork()
            if pid:
                forked.append(pid)
            return pid

        def logging_loaded(chunk, *args):
            # chunk i of two rows starts with row i * 2 + 2, whose first cell is i * 2 + 1
            with open(log, "a") as handle:
                handle.write(f"{int(chunk[0].split(b',')[0]) // 2} {os.getpid()}\n")
            return loaded(chunk, *args)

        def parsed():
            lines = log.read_text().splitlines()
            log.unlink()
            return sorted(tuple(map(int, line.split())) for line in lines)

        monkeypatch.setattr(os, "fork", counting_fork)
        monkeypatch.setattr(ingest, "_loaded", logging_loaded)
        return forked, parsed

    @pytest.mark.parametrize(
        "cpus, rows, processes",
        [(2, 12, 2), (4, 6, 3), (4, 2, 0), (2, 4, 2)],
        ids=["cpus-cap", "chunks-cap", "one-chunk", "two-chunks"],
    )
    def test_processes_are_capped_by_cpus_and_chunks(self, tmp_path, capfd, monkeypatch, cpus, rows, processes):
        # the CPUs are those of the affinity mask, which also sets the
        # default of --jobs; no process is pinned to a CPU it may not have
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(ingest, "usable_cpus", cli.usable_cpus)
        monkeypatch.setattr(ingest, "_pin", lambda index: None)
        forked, parsed = self.logged(monkeypatch, tmp_path)
        path = tmp_path / "data.csv"
        path.write_text("\n".join(self.ROWS[: rows + 1]) + "\n")
        serial = self.select(capfd, path, "1")
        assert serial[0] == 0 and forked == []
        assert parsed() == [(index, os.getpid()) for index in range(rows // 2)]
        for jobs in ("1000000", None):
            assert self.select(capfd, path, jobs) == serial
            assert len(forked) == processes
            # a one-chunk file is parsed in this process, and every other
            # chunk by the (index mod P)-th process
            by = forked or [os.getpid()]
            assert parsed() == [(index, by[index % len(by)]) for index in range(rows // 2)]
            forked.clear()

    def test_chunks_go_to_the_processes_in_turn(self, tmp_path, capfd, monkeypatch):
        # six chunks in rounds of four and two, three processes forked for
        # the first and two for the second; the report is the one of six
        # chunks in one round
        monkeypatch.setattr(ingest, "usable_cpus", lambda: 3)
        forked, parsed = self.logged(monkeypatch, tmp_path)
        path = self.write(tmp_path)
        serial = self.select(capfd, path, "1")
        parsed()
        monkeypatch.setattr(ingest, "_ROUND", 4)
        assert self.select(capfd, path, "3") == serial
        assert len(forked) == 5
        # chunk i of a round goes to its (i mod P)-th process
        first, second = forked[:3], forked[3:]
        expected = [(index, first[index % 3]) for index in range(4)] + [(4, second[0]), (5, second[1])]
        assert parsed() == expected

    def test_an_endless_pipe_ends_at_a_bad_row_2(self):
        # the error is raised once the first round is parsed, never at the
        # end of the input, which does not come: a run that reads on until
        # then fails on the timeout
        endless = (
            "import sys\n"
            "sys.stdout.buffer.write(b'a,b\\n1,x\\n')\n"
            "while True:\n"
            "    sys.stdout.buffer.write(b'1,2\\n' * 4096)\n"
        )
        # two processes even on a machine with one CPU
        select = (
            "import sys\n"
            "from fuzzkey import cli, ingest\n"
            "ingest.usable_cpus = lambda: 2\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        argv = [sys.executable, "-c", select, "select", "/dev/stdin", "--k", "1", "--jobs", "2"]
        source = [sys.executable, "-c", endless]
        with subprocess.Popen(source, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL) as producer:
            try:
                proc = subprocess.run(argv, stdin=producer.stdout, capture_output=True, env=env, timeout=30)
            finally:
                producer.kill()
        assert (proc.returncode, proc.stdout) == (3, b"")
        assert proc.stderr.decode() == "fuzzkey: /dev/stdin: row 2, column 2 (b): not a number: 'x'\n"


LETTERS = bytes(65 + i % 26 for i in range(256))


class TestBlockSeams:
    """Block edges fall at every key phase: the command line, reading a file
    or a pipe in blocks of 1 to 97 bytes, writes what the bytes API does."""

    @settings(max_examples=200, deadline=None)
    @given(
        mode=st.sampled_from(["byte", "letters"]),
        # the key file reader strips one trailing newline
        key=st.binary(min_size=1, max_size=17).filter(lambda key: not key.endswith(b"\n")),
        plaintext=st.binary(max_size=400),
        block=st.integers(min_value=1, max_value=97),
        tag=st.booleans(),
        via_pipe=st.booleans(),
    )
    def test_cli_matches_the_bytes_api(self, tmp_path_factory, mode, key, plaintext, block, tag, via_pipe):
        if mode == "letters":
            key, plaintext = key.translate(LETTERS), plaintext.translate(LETTERS)
        cipher_key = CipherKey(key, {"byte": cipher.MODE_BYTE_SHIFT, "letters": cipher.MODE_LETTERS}[mode])
        sealed = seal(plaintext, cipher_key, with_tag=tag).to_bytes()
        directory = tmp_path_factory.mktemp("seams")
        (directory / "key").write_bytes(key)

        @contextmanager
        def source(data):
            if via_pipe:
                with pipe_holding(data) as path:
                    yield path
            else:
                path = directory / "source"
                path.write_bytes(data)
                yield str(path)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cipher, "BLOCK_BYTES", block)
            patch.setenv("FUZZKEY_KEY_FILE", str(directory / "key"))
            argv = ["--cipher", mode, "--tag" if tag else "--no-tag"]
            with source(plaintext) as path:
                assert run_in_process(["encrypt", path, *argv]) == (0, sealed, "")
            with source(sealed) as path:
                assert run_in_process(["decrypt", path]) == (0, plaintext, "")


class TestProcessExit:
    """``python -m fuzzkey`` and the ``fuzzkey`` script end the process with
    ``os._exit`` once ``main`` returns, after flushing stdout and stderr; an
    exit that argparse makes takes the interpreter's usual way out."""

    def test_a_long_report_through_a_pipe_is_all_there(self):
        argv = ["membership", "--sweep", "0:1:0.0002"]
        code, out, err = run_in_process(argv)
        assert (code, err) == (0, "") and len(out) > 128 * 1024  # many pipe buffers
        proc = run_cli(argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, b"")

    def test_an_error_prints_one_line(self):
        proc = run_cli(["stats", "--features", "0"])
        assert (proc.returncode, proc.stdout) == (4, b"")
        assert proc.stderr == b"fuzzkey: --features must be positive, got 0\n"

    @pytest.mark.parametrize("argv, expected", [(["--help"], 0), (["stats"], 2)], ids=["help", "usage-error"])
    def test_argparse_exits_as_in_process(self, monkeypatch, argv, expected):
        # the help text wraps at the terminal width that COLUMNS sets
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = run_in_process(argv)
        assert code == expected and (out if expected == 0 else err.encode()).startswith(b"usage: fuzzkey")
        proc = run_cli(argv, env_extra={"COLUMNS": "80"})
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err.encode())

    def test_the_script_entry_takes_the_same_path(self, monkeypatch):
        pyproject = tomllib.loads((Path(__file__).resolve().parent.parent / "pyproject.toml").read_text())
        module, function = pyproject["project"]["scripts"]["fuzzkey"].split(":")
        # an atexit handler runs only on the interpreter's usual way out
        script = (
            "import atexit, sys\n"
            "atexit.register(lambda: sys.stdout.write('teardown\\n'))\n"
            f"from {module} import {function}\n"
            f"{function}()\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""), COLUMNS="80")
        monkeypatch.setenv("COLUMNS", "80")
        for argv in (["stats", "--features", "3"], ["stats", "--features", "0"], ["--help"]):
            code, out, err = run_in_process(argv)
            if argv == ["--help"]:
                out += b"teardown\n"
            proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, env=env)
            assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err.encode())


# a child that runs the ``fuzzkey`` entry point with ``argv[4:]`` after
# replacing ``argv[2]`` of ``argv[1]`` (an expression) by a call of it that
# then sends the process the signal named ``argv[3]``; pass 1 parses chunks
# of two rows of three columns, in two processes at --jobs 2, and a child
# process still there when main returns adds a line to stderr
INTERRUPTED_RUN = """
import os, pickle, signal, sys
from fuzzkey import cli, ingest

owner, name, signum = eval(sys.argv[1]), sys.argv[2], signal.Signals[sys.argv[3]]
real, main = getattr(owner, name), cli.main


def interrupting(*args, **kwargs):
    result = real(*args, **kwargs)
    os.kill(os.getpid(), signum)
    return result


def checked_main(argv=None):
    code = main(argv)
    try:
        os.waitpid(-1, os.WNOHANG)
        print("a child process is left", file=sys.stderr)
    except ChildProcessError:
        pass
    return code


setattr(owner, name, interrupting)
ingest._SCORE_BLOCK = 6
ingest.usable_cpus = lambda: 2
cli.main = checked_main
sys.argv = ["fuzzkey", *sys.argv[4:]]
cli.run()
"""


class TestInterrupts:
    """Under the entry point, SIGINT, SIGTERM and SIGHUP end a command with
    one stderr line and exit code 128 + the signal's number; stdout stays
    empty, no ``.fuzzkey-*.tmp`` and no child process is left, and the
    ``--output`` target changes only if the rename had happened."""

    CASES = {
        "select-pass-1": ("ingest", "_loaded", ["select", "{csv}", "--jobs", "1", "--output", "{out}"]),
        "select-waiting-for-replies": ("pickle", "load", ["select", "{csv}", "--jobs", "2", "--output", "{out}"]),
        "encrypt-writing-the-temporary": ("cli._Named", "write", ["encrypt", "{payload}", "--output", "{out}"]),
        "encrypt-after-the-rename": ("os", "replace", ["encrypt", "{payload}", "--output", "{out}"]),
    }

    @pytest.mark.parametrize(
        "case, signame",
        [(case, name) for case in CASES for name in ("SIGINT", "SIGTERM")]
        + [("encrypt-writing-the-temporary", "SIGHUP")],
    )
    def test_one_line_and_nothing_left(self, tmp_path, case, signame):
        owner, name, argv = self.CASES[case]
        csv = tmp_path / "data.csv"
        csv.write_text("a,b,c\n" + "".join(f"{i},{-i},{i / 7!r}\n" for i in range(1, 13)))
        payload = tmp_path / "payload.bin"
        payload.write_bytes(bytes(range(256)) * 64)
        (tmp_path / "key").write_bytes(b"hunter2")
        out = tmp_path / "out"
        out.write_bytes(b"before")
        argv = [arg.format(csv=csv, payload=payload, out=out) for arg in argv]
        env = dict(
            os.environ,
            PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""),
            FUZZKEY_KEY_FILE=str(tmp_path / "key"),
        )
        proc = subprocess.run(
            [sys.executable, "-c", INTERRUPTED_RUN, owner, name, signame, *argv],
            capture_output=True,
            env=env,
            timeout=60,
        )
        signum = signal.Signals[signame]
        assert (proc.returncode, proc.stdout) == (128 + signum, b"")
        assert proc.stderr == f"fuzzkey: interrupted by {signame}\n".encode()
        assert sorted(os.listdir(tmp_path)) == ["data.csv", "key", "out", "payload.bin"]
        if case.endswith("after-the-rename"):
            key = CipherKey(b"hunter2", cipher.MODE_BYTE_SHIFT)
            assert out.read_bytes() == seal(payload.read_bytes(), key).to_bytes()
        else:
            assert out.read_bytes() == b"before"

    def test_an_ignored_hangup_stays_ignored(self, tmp_path):
        (tmp_path / "key").write_bytes(b"hunter2")
        script = "import signal; signal.signal(signal.SIGHUP, signal.SIG_IGN)\n" + INTERRUPTED_RUN
        env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        argv = ["cli", "_write_bytes", "SIGHUP", "stats", "--features", "3"]
        proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, env=env, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout.startswith(b"features = 3\n")


class TestFileSizeLimit:
    """A write that ``RLIMIT_FSIZE`` stops, set in the child only, names
    what it was writing: the ``--output`` path, or a temporary file in
    ``TMPDIR`` for the input copy, the round copy and the spill."""

    LIMIT = 1 << 18

    @pytest.fixture
    def env(self, tmp_path):
        (tmp_path / "tmp").mkdir()
        (tmp_path / "key").write_bytes(b"hunter2")
        return {"TMPDIR": str(tmp_path / "tmp"), "FUZZKEY_KEY_FILE": str(tmp_path / "key")}

    def run_limited(self, argv, env):
        def limit():
            # Python ignores SIGXFSZ, so the write itself fails
            resource.setrlimit(resource.RLIMIT_FSIZE, (self.LIMIT, self.LIMIT))

        proc = run_cli(argv, env_extra=env, preexec_fn=limit)
        assert (proc.returncode, proc.stdout) == (3, b"")
        return proc.stderr.decode()

    @staticmethod
    def too_large(what):
        return f"fuzzkey: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}: {what}\n"

    def test_the_input_copy_names_a_temporary_file(self, tmp_path, env):
        payload = tmp_path / "payload.bin"
        payload.write_bytes(bytes(range(256)) * (self.LIMIT // 128))
        out = tmp_path / "out.fzk"
        message = self.run_limited(["encrypt", str(payload), "--output", str(out)], env)
        assert message == self.too_large(f"a temporary file in {env['TMPDIR']}")
        assert sorted(os.listdir(tmp_path)) == ["key", "payload.bin", "tmp"]

    def test_an_output_that_fails_after_its_copy_fit_is_named(self, tmp_path, env):
        # the copy is exactly the limit; the envelope's header takes it past
        payload = tmp_path / "payload.bin"
        payload.write_bytes(bytes(range(256)) * (self.LIMIT // 256))
        out = tmp_path / "out.fzk"
        message = self.run_limited(["encrypt", str(payload), "--output", str(out)], env)
        assert message == self.too_large(repr(str(out)))
        assert sorted(os.listdir(tmp_path)) == ["key", "payload.bin", "tmp"]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_the_round_copy_and_the_spill_name_a_temporary_file(self, tmp_path, env, jobs):
        # text and table both pass the limit, so whichever is written first fails
        columns = 20
        csv = tmp_path / "wide.csv"
        rows = "\n".join(",".join(f"{(r * columns + c) % 997 / 7:.6f}" for c in range(columns)) for r in range(3000))
        csv.write_text(",".join(f"f{c}" for c in range(columns)) + "\n" + rows + "\n")
        assert csv.stat().st_size > self.LIMIT and 8 * 3000 * columns > self.LIMIT
        message = self.run_limited(["select", str(csv), "--jobs", jobs], env)
        assert message == self.too_large(f"a temporary file in {env['TMPDIR']}")
