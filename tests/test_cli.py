import argparse
import io
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fuzzkey import DefuzzConfig, cli, fuzzy, pipeline, selection

SRC = str(Path(__file__).resolve().parent.parent / "src")
DATA = Path(__file__).resolve().parent / "data"

TOY = "a,b,c\n1,9,4\n2,3,4\n3,6,4\n"


def run_cli(args, env_extra=None, cwd=None, timeout=None, stdin=None):
    env = os.environ.copy()
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("FUZZKEY_KEY_FILE", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "fuzzkey", *args],
        input=stdin,
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
        # the streamed pass cannot reread a pipe after a miss
        proc = run_cli(["select", "/dev/stdin", "--k", "2"], stdin=TOY.encode())
        assert proc.returncode == 0
        assert proc.stdout == run_cli(["select", str(toy_csv), "--k", "2"]).stdout
        proc = run_cli(["select", "/dev/stdin", "--k", "2"], stdin=TOY.encode() + b"1,2,x\n")
        assert proc.returncode == 3
        assert proc.stderr == b"fuzzkey: row 5, column 3 (c): not a number: 'x'\n"

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
    scored in one kernel block, in 17 blocks the last of them partial, and
    with fewer rows per block than the column has.
    """

    CSV = DATA / "fixture_40x400.csv"

    @pytest.mark.parametrize("block", [None, 999, 39], ids=["one-block", "17-blocks", "column-per-block"])
    def test_report_and_envelope_match_golden_bytes(
        self, tmp_path, monkeypatch, capsysbinary, golden_key, block
    ):
        if block is not None:
            monkeypatch.setattr(selection, "_SCORE_BLOCK", block)
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
    """``cli.main(argv)`` with its standard streams captured: (code, stdout, stderr)."""
    out, err = io.TextIOWrapper(io.BytesIO()), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
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
        code, out, err = run_in_process(["select", str(path), *args])
        assert code in (0, 3, 4)
        if code == 0:
            assert err == ""
            assert out.startswith(b"fuzzkey-report 1\n")
        else:
            assert out == b""
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("fuzzkey: ")

    @pytest.mark.parametrize("cell", ["\u0661\u0662", "\uff15"], ids=["arabic-indic", "fullwidth"])
    def test_non_ascii_digits_exit_3(self, tmp_path, cell):
        path = tmp_path / "data.csv"
        path.write_bytes(f"a,b\n1,2\n{cell},3\n".encode("utf-8"))
        code, out, err = run_in_process(["select", str(path), "--k", "1"])
        assert (code, out) == (3, b"")
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("fuzzkey: ")
        assert "not a number" in lines[0]


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
        [(b"sets = 3\n# caf\xe9\n", b"not UTF-8 text (byte 14)"), (b"colour = red\n", b"unknown key")],
        ids=["non-utf8", "unknown-key"],
    )
    def test_bad_config_file_exits_4(self, tmp_path, content, fragment):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(content)
        proc = run_cli(["stats", "--features", "3", "--config", str(cfg)])
        assert proc.returncode == 4
        assert_one_error_line(proc)
        assert fragment in proc.stderr


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
        # the set cap and the sweep bound the README states
        text = " ".join(README.read_text(encoding="utf-8").split())
        caps = re.findall(r"\(2\.\.(\d+)\)", text) + re.findall(r"take at most (\d+) sets", text)
        assert caps == [str(pipeline.MAX_SETS)] * 2
        bound = re.findall(r"at most (\d+) points up to 3 sets, and at most (\d+) / S points", text)
        assert bound == [(str(cli.MAX_SWEEP_POINTS), str(3 * cli.MAX_SWEEP_POINTS))]
