import math
import os
import re
import tempfile
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzkey import (
    ConfigurationError,
    DataFormatError,
    DefuzzConfig,
    PipelineConfig,
    analyze,
    cli,
    fuzzify,
    load_config_file,
    make_uniform_partition,
    relevance_inference,
    render_report,
    select_topk,
)
from fuzzkey import ingest, pipeline
from fuzzkey.network import cost
from fuzzkey.selection import RelevanceScore, SelectionResult
from test_cli import run_in_process
from test_ingest import column_extremes, csv_tables

CSV = "t1,t2,t3\n1,10,3\n2,30,3\n3,20,3\n5,40,3\n"


@pytest.fixture
def csv_path(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(CSV)
    return path


def normalized_columns(path):
    """Each feature column of the CSV file at ``path``, rescaled as pass 2
    rescales it."""
    with ingest._spill(path, False) as spill:
        return [column for block, _ in spill.normalized_blocks() for column in block]


class TestConfigFile:
    def test_parses_all_keys(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment\n"
            "sets = 5\n"
            "layers = 6\n"
            "mode = inference\n"
            "k = 2\n"
            "centers = 0, 0.25, 0.5, 0.75, 1\n"
            "empty_activation_value = 0.1\n"
            "cipher = letters\n"
            "tag = off\n"
        )
        cfg = load_config_file(path).validated()
        assert cfg.sets == 5
        assert cfg.layers == 6
        assert cfg.k == 2
        assert cfg.centers == (0.0, 0.25, 0.5, 0.75, 1.0)
        assert cfg.empty_activation_value == 0.1
        assert cfg.cipher_mode == "letters"
        assert cfg.tag is False

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("sets = 3\nbogus = 1\n")
        with pytest.raises(ConfigurationError, match="bogus"):
            load_config_file(path)

    def test_byte_order_mark_is_no_part_of_the_first_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes("\ufeffsets = 5\n".encode())
        assert load_config_file(path).sets == 5
        # a byte offset still counts the mark
        path.write_bytes(b"\xef\xbb\xbfsets = 5\n# caf\xe9\n")
        with pytest.raises(ConfigurationError, match=r"not UTF-8 text \(byte 17\)"):
            load_config_file(path)

    def test_k_must_not_be_a_bool(self):
        # bool is an int, and the report would print k = True
        with pytest.raises(ConfigurationError, match=r"^k must be a nonnegative integer, got True$"):
            PipelineConfig(k=True).validated()

    @pytest.mark.parametrize("tau", ["0.5", True], ids=["str", "bool"])
    def test_tau_must_be_a_number(self, tau):
        # a str must not reach math.isfinite, and a bool would print as tau = 1.000000000
        with pytest.raises(ConfigurationError, match=rf"^tau must be finite and nonnegative, got {re.escape(repr(tau))}$"):
            PipelineConfig(tau=tau).validated()

    @pytest.mark.parametrize("tag", ["off", 1, None], ids=["str", "int", "none"])
    def test_tag_must_be_a_bool(self, tag):
        # a non-empty str is truthy: "off" would print tag = on, and pipeline would seal with a tag
        with pytest.raises(ConfigurationError, match=rf"^tag must be True or False, got {re.escape(repr(tag))}$"):
            PipelineConfig(tag=tag).validated()

    def test_k_and_tau_conflict(self):
        with pytest.raises(ConfigurationError, match="not both"):
            PipelineConfig(k=2, tau=0.5).validated()

    def test_default_selection_is_threshold_at_half(self):
        cfg = PipelineConfig().validated()
        assert cfg.selection_kind == "threshold"
        assert cfg.tau == 0.5

    def test_validation_builds_no_uniform_centers(self, monkeypatch):
        def build(*args):
            raise AssertionError("validated() built the uniform centers")

        monkeypatch.setattr(DefuzzConfig, "uniform", build)
        assert PipelineConfig(sets=10**18).validated().sets == 10**18
        with pytest.raises(ConfigurationError, match="empty_activation_value"):
            PipelineConfig(sets=10**18, empty_activation_value=2.0).validated()

    def test_centers_must_match_sets(self):
        with pytest.raises(ConfigurationError, match="centers"):
            PipelineConfig(sets=3, centers=(0.0, 1.0)).validated()

    def test_bad_values(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("sets = many\n")
        with pytest.raises(ConfigurationError):
            load_config_file(path)


class TestAnalyze:
    def test_report_is_deterministic(self, csv_path):
        cfg = PipelineConfig(k=2)
        first = render_report(analyze(csv_path, cfg), cfg)
        second = render_report(analyze(csv_path, cfg), cfg)
        assert first == second

    @pytest.fixture
    def key_file(self, tmp_path, monkeypatch):
        path = tmp_path / "key.bin"
        path.write_bytes(b"pipeline-key")
        monkeypatch.setenv("FUZZKEY_KEY_FILE", str(path))

    def test_jobs_do_not_change_results(self, csv_path, tmp_path, capsysbinary, key_file):
        runs = []
        for jobs in ("1", "4"):
            sealed = tmp_path / f"jobs{jobs}.fzk"
            args = ["pipeline", str(csv_path), "--k", "2", "--jobs", jobs, "--output", str(sealed)]
            code = cli.main(args)
            out, err = capsysbinary.readouterr()
            assert (code, err) == (0, b"")
            runs.append((out, sealed.read_bytes()))
        assert runs[0] == runs[1]

    def test_matches_manual_composition(self, csv_path):
        cfg = PipelineConfig(k=2).validated()
        outcome = analyze(csv_path, cfg)

        partition, defuzz = make_uniform_partition(cfg.sets), cfg.defuzz_config()
        scores = [
            RelevanceScore(i, relevance_inference(column, partition, None, defuzz))
            for i, column in enumerate(normalized_columns(csv_path))
        ]
        expected = select_topk(scores, 2)
        assert outcome.result == expected
        assert [s.score for s in outcome.scores] == [s.score for s in scores]

    def test_stats_totals(self, csv_path):
        cfg = PipelineConfig(k=1)
        outcome = analyze(csv_path, cfg)
        # 4 rows, 3 features, 3 sets each, 4 layers: 3*9 + 0*9 + 3 = 30 ops per pass
        assert b"\n[stats]\npropagations = 4\n" in render_report(outcome, cfg)
        assert outcome.stats.mf_evals == 4 * 9
        assert outcome.stats.hidden_ops == 4 * 30

    def test_constant_feature_scores_at_midpoint(self, csv_path):
        outcome = analyze(csv_path, PipelineConfig(k=3))
        scores = {s.feature_id: s.score for s in outcome.scores}
        assert scores[2] == 0.5  # constant column normalizes to 0.5 everywhere

    def test_sum_mode_is_degenerate_under_uniform_partition(self, csv_path):
        # the reason the only relevance mode is inference: under the pipeline's
        # partition every instance's degrees sum to 1, so a sum-of-degrees
        # score would be 1.0 for every feature
        cfg = PipelineConfig(k=1).validated()
        partition = make_uniform_partition(cfg.sets)
        for column in normalized_columns(csv_path):
            sums = [math.fsum(fuzzify(v, partition).degrees) for v in column]
            assert math.fsum(sums) / len(sums) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("jobs", [0, -3, 1.5, "2", True, False, None], ids=repr)
    @pytest.mark.parametrize("exists", [True, False], ids=["file", "missing-file"])
    def test_analyze_refuses_a_bad_jobs_value_before_any_read(self, csv_path, monkeypatch, jobs, exists):
        # 1.5 and "2" used to reach the parse of a file of two chunks
        monkeypatch.setattr(ingest, "_SCORE_BLOCK", 6)
        path = csv_path if exists else csv_path.with_name("missing.csv")
        message = f"jobs must be a positive integer, got {jobs!r}"
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            analyze(path, PipelineConfig(k=1), jobs=jobs)

    def test_bad_jobs_value(self, csv_path, tmp_path, capsysbinary, key_file):
        sealed = tmp_path / "sel.fzk"
        code = cli.main(["pipeline", str(csv_path), "--k", "1", "--jobs", "0", "--output", str(sealed)])
        out, err = capsysbinary.readouterr()
        assert code == cli.EXIT_CONFIG
        assert out == b""
        assert err.decode().startswith("fuzzkey: ") and err.count(b"\n") == 1
        assert not sealed.exists()

    def test_report_sections_in_order(self, csv_path):
        cfg = PipelineConfig(k=2)
        report = render_report(analyze(csv_path, cfg), cfg).decode()
        positions = [report.index(s) for s in (
            "fuzzkey-report 1",
            "[dataset]",
            "[config]",
            "[normalization]",
            "[scores]",
            "[ranking]",
            "[selected]",
            "[stats]",
        )]
        assert positions == sorted(positions)
        assert report.endswith("\n")

    @staticmethod
    def write_table(path, table):
        names = [f"x{i}" for i in range(table.shape[1] - 1)] + ["target"]
        with open(path, "w") as handle:
            handle.write(",".join(names) + "\n")
            for row in table.tolist():
                handle.write(",".join(map(repr, row)) + "\n")

    def test_outcome_holds_no_matrix(self, tmp_path):
        # names, ranges and scores are all a run keeps of its dataset
        table = np.random.default_rng(5).standard_normal((4000, 25))
        self.write_table(tmp_path / "data.csv", table)
        tracemalloc.start()
        try:
            outcome = analyze(tmp_path / "data.csv", PipelineConfig(k=3))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert (len(outcome.feature_names), outcome.n_rows, outcome.has_target) == (24, 4000, True)
        assert held <= 0.05 * table.nbytes

    @pytest.mark.parametrize("shape", [(40_000, 50), (4_000, 500)], ids=["tall", "wide"])
    def test_path_run_peak_is_a_fraction_of_the_table(self, tmp_path, shape):
        # memory grows with rows plus a block, not with rows x features: a
        # run that held the parsed table peaked at 1.2 tables at both shapes
        table = np.random.default_rng(6).standard_normal(shape)
        self.write_table(tmp_path / "data.csv", table)
        tracemalloc.start()
        try:
            outcome = analyze(tmp_path / "data.csv", PipelineConfig(k=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert outcome.n_rows == shape[0]
        assert peak <= 0.35 * table.nbytes

    def test_thin_table_peak_is_about_one_column(self, tmp_path):
        # past 2^15 rows a block is one whole column, with one feature the
        # whole table, and scoring takes it a small tile of rows at a time; a
        # run that scored the column whole peaked at 11 columns, and one in
        # tiles of 2^15 values at 2.6.  No extreme is zero, whose sign rule
        # indexes the column
        n = 200_000
        table = np.random.default_rng(7).uniform(1, 2, size=(n, 2))
        self.write_table(tmp_path / "data.csv", table)
        tracemalloc.start()
        try:
            outcome = analyze(tmp_path / "data.csv", PipelineConfig(k=1), jobs=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (outcome.n_rows, outcome.feature_names) == (n, ("x0",))
        assert peak <= 8 * n + (1 << 20), peak

    def test_selection_bytes_match_report_block(self, csv_path):
        cfg = PipelineConfig(k=2)
        outcome = analyze(csv_path, cfg)
        report = render_report(outcome, cfg).decode()
        block = report.split("[selected]\n", 1)[1].split("[stats]", 1)[0]
        assert block.encode() == outcome.selection_bytes()


def open_fds():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
class TestSpill:
    """A run from a path parses into a temporary file, through a temporary
    copy of each round of its text, and closes both however the run ends."""

    @pytest.fixture
    def opened(self, monkeypatch):
        files, make = [], tempfile.TemporaryFile

        def temporary_file(*args, **kwargs):
            files.append(make(*args, **kwargs))
            return files[-1]

        monkeypatch.setattr(tempfile, "TemporaryFile", temporary_file)
        return files

    @pytest.mark.parametrize(
        "last, fails",
        [
            ("7,8,9", None),
            ("7,x,9", DataFormatError),  # the per-cell parser names it
            ("7,1e999,9", DataFormatError),  # loadtxt reads inf; the rescan names it
            ("7,8,9", "pass-1"),
            ("7,8,9", "pass-2"),
        ],
        ids=["success", "bad-cell", "rescan", "memory-error-parsing", "memory-error-scoring"],
    )
    def test_closed_on_every_exit(self, tmp_path, monkeypatch, opened, last, fails):
        path = tmp_path / "data.csv"
        path.write_text("a,target,b\n" + "1,2,3\n4,5,6\n" * 20 + last + "\n")
        monkeypatch.setattr(ingest, "_SCORE_BLOCK", 6)  # chunks of two rows
        chunks, all_finite = [], ingest._all_finite

        def exhausted(*args):
            chunks.append(args)
            if fails == "pass-2" or len(chunks) == 3:
                raise MemoryError
            return all_finite(*args)

        if fails == "pass-1":
            monkeypatch.setattr(ingest, "_all_finite", exhausted)  # after two chunks are written
        elif fails == "pass-2":
            monkeypatch.setattr(pipeline, "score_columns", exhausted)
        before = open_fds()
        if fails is None:
            assert analyze(path, PipelineConfig(k=1)).n_rows == 41
        else:
            with pytest.raises(MemoryError if isinstance(fails, str) else fails):
                analyze(path, PipelineConfig(k=1))
        assert open_fds() == before
        # the spill and the copy of pass 1's round of CSV text
        assert len(opened) == 2 and all(file.closed for file in opened)


def oracle_outcome(data, cfg, drop_incomplete_rows):
    """The outcome of ``select`` on the CSV bytes ``data`` under ``cfg``, by
    the definitions, with no numpy: each cell parsed by ``float``, extremes
    taken by :func:`column_extremes`, each column rescaled and scored one
    value at a time, and the ranking a sort on (-score, id)."""
    header, *lines = data.decode("ascii").splitlines()
    names = header.split(",")
    rows = []
    for line in lines:
        cells = [cell.strip() for cell in line.split(",")]
        if not (drop_incomplete_rows and "" in cells):
            rows.append([float(cell) for cell in cells])
    features = [i for i, name in enumerate(names) if name != "target"]
    ranges, scores = [], []
    partition, defuzz = make_uniform_partition(cfg.sets), cfg.defuzz_config()
    for fid, i in enumerate(features):
        column = [row[i] for row in rows]
        lo, hi = column_extremes(column)
        ranges.append((lo, hi))
        if hi == lo:
            rescaled = [0.5] * len(column)
        elif math.isfinite(hi - lo):
            rescaled = [(x - lo) / (hi - lo) for x in column]
        else:
            rescaled = [(x / 2 - lo / 2) / (hi / 2 - lo / 2) for x in column]
        scores.append(RelevanceScore(fid, relevance_inference(rescaled, partition, None, defuzz)))
    ranked = tuple((s.feature_id, s.score) for s in sorted(scores, key=lambda s: (-s.score, s.feature_id)))
    if cfg.k is not None:
        result = SelectionResult(ranked, tuple(fid for fid, _ in ranked[: cfg.k]), k=cfg.k)
    else:
        result = SelectionResult(ranked, tuple(fid for fid, score in ranked if score >= cfg.tau), tau=cfg.tau)
    return pipeline.PipelineOutcome(
        feature_names=tuple(names[i] for i in features),
        ranges=tuple(ranges),
        n_rows=len(rows),
        has_target=len(features) < len(names),
        scores=scores,
        result=result,
        stats=cost(len(features), cfg.sets, cfg.layers, len(rows)),
    )


# a set count and its centers, None for uniform ones: 2 to 12 sets, and in
# one draw of ten up to MAX_SETS, whose centers are uniform
SETS_AND_CENTERS = st.integers(min_value=0, max_value=9).flatmap(
    lambda roll: st.tuples(st.integers(min_value=13, max_value=pipeline.MAX_SETS), st.none())
    if roll == 9
    else st.integers(min_value=2, max_value=12).flatmap(
        lambda sets: st.tuples(
            st.just(sets),
            st.one_of(st.none(), st.lists(st.floats(0, 1), min_size=sets, max_size=sets).map(sorted)),
        )
    )
)


class TestDifferential:
    """``select`` in process against :func:`oracle_outcome`, its report
    byte for byte, over tables, drop mode, ``--jobs``, block sizes, rounds
    of pass 1, set counts, centers, ``empty_activation_value`` and ``k`` or
    ``tau``."""

    @settings(max_examples=150, deadline=None)
    @given(
        csv_tables(),
        st.booleans(),
        st.sampled_from(["1", "2", "3"]),
        st.sampled_from([1, 2, 5, 13, ingest._SCORE_BLOCK]),
        st.sampled_from([1, 2, ingest._ROUND]),
        SETS_AND_CENTERS,
        st.floats(0, 1),
        st.data(),
    )
    def test_select_matches_the_oracle(
        self, tmp_path_factory, table, drop, jobs, block, round_size, shape, empty, data
    ):
        features, target_at, target = table
        columns, names = list(features), [f"c{i}" for i in range(len(features))]
        if target_at is not None:
            columns.insert(target_at, target)
            names.insert(target_at, "target")
        lines = [",".join(names)] + [",".join(map(repr, row)) for row in zip(*columns)]
        if drop:
            # rows with a missing cell, which drop mode skips
            blank = ",".join(["1"] * (len(names) - 1) + [" "])
            lines[1:1] = [blank]
            lines.append(blank)
        text = "\n".join(lines) + "\n"
        directory = tmp_path_factory.mktemp("differential")
        (directory / "data.csv").write_text(text)
        sets, centers = shape
        (directory / "run.cfg").write_text(
            f"empty_activation_value = {empty!r}\n"
            + ("" if centers is None else "centers = " + ",".join(map(repr, centers)) + "\n")
        )
        cfg = PipelineConfig(sets=sets, centers=None if centers is None else tuple(centers), empty_activation_value=empty)
        if data.draw(st.booleans(), label="by k"):
            cfg = replace(cfg, k=data.draw(st.integers(min_value=0, max_value=len(features) + 1), label="k"))
            rule = ["--k", str(cfg.k)]
        else:
            # some taus are scores, which the threshold keeps
            scores = [s.score for s in oracle_outcome(text.encode(), replace(cfg, k=0), drop).scores]
            cfg = replace(cfg, tau=data.draw(st.one_of(st.sampled_from(scores), st.floats(0, 1)), label="tau"))
            rule = ["--tau", repr(cfg.tau)]
        argv = ["select", str(directory / "data.csv"), "--sets", str(sets), *rule]
        argv += ["--config", str(directory / "run.cfg"), "--jobs", jobs] + ["--drop-incomplete-rows"] * drop
        # up to three processes even on a machine with fewer CPUs
        with mock.patch.object(ingest, "_SCORE_BLOCK", block), mock.patch.object(ingest, "usable_cpus", lambda: 3):
            with mock.patch.object(ingest, "_ROUND", round_size):
                code, out, err = run_in_process(argv)
        assert (code, err) == (0, "")
        assert out == render_report(oracle_outcome(text.encode(), cfg, drop), cfg)
