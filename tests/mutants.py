"""Mutation check: each mutant must make the tests named for it fail.

Every entry of :data:`MUTANTS` names a file under ``src/``, a snippet that
must occur in it exactly once, the snippet's replacement, and the tests that
must fail once it is replaced.  For each entry the script copies ``src/``,
``tests/`` and the files pytest reads to a temporary directory, makes the one
replacement there and runs the listed tests against that copy, so the
subprocesses the tests start import the mutant too.  First it runs every
listed test against an unchanged copy, which must pass.

    python tests/mutants.py [NAME ...]

Given names, it runs only the mutants so named; given none, it runs them
all.  It exits 0 when every mutant run is killed, 1 when one survives and 2
when a name is unknown, the unchanged copy fails or a snippet does not occur
exactly once.  A mutant whose tests run past :data:`TIMEOUT_S` counts as
killed, by a hang.  It uses only the standard library besides what the suite
needs, and pytest does not collect it, so it is not part of the test suite.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# what a copy needs for the tests to run as they do in the repository
COPIED = ["src", "tests", "conftest.py", "pyproject.toml", "README.md"]
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    snippet: str
    replacement: str
    tests: list[str]  # pytest node ids


MUTANTS = [
    Mutant(
        "reread-reads-the-input",
        "src/fuzzkey/cli.py",
        "            self._copy.seek(start)  # which writes what pass 1 left buffered\n"
        "        left = self._size - start\n"
        "        while left:\n"
        "            count = _fill(self._copy, self._block[:left])\n",
        "            self._source.seek(start)\n"
        "        left = self._size - start\n"
        "        while left:\n"
        "            count = _fill(self._source, self._block[:left])\n",
        ["tests/test_cli.py::TestPassTwoReadsTheCopy"],
    ),
    Mutant(
        "no-copy-written",
        "src/fuzzkey/cli.py",
        "            self._copy.write(view[:count])\n",
        "            pass\n",
        ["tests/test_cli.py::TestGoldenEnvelope"],
    ),
    Mutant(
        "no-size-check-before-reading",
        "src/fuzzkey/cli.py",
        "if stat.S_ISREG(info.st_mode) and info.st_size > MAX_PAYLOAD_BYTES:",
        "if False:",
        ["tests/test_cli.py::TestEncryptDecrypt::test_input_longer_than_the_cap_exits_3"],
    ),
    Mutant(
        "decrypt-writes-before-the-check",
        "src/fuzzkey/cli.py",
        "        check_ciphertext(itertools.chain([head[offset:filled]], payload.blocks()), key, tag)\n"
        "        with _output(args.output) as handle:\n"
        "            for block in shift_blocks(payload.reread(offset), key, -1):\n"
        "                handle.write(block)\n",
        "        with _output(args.output) as handle:\n"
        "            for block in shift_blocks(payload.reread(offset), key, -1):\n"
        "                handle.write(block)\n"
        "        check_ciphertext(itertools.chain([head[offset:filled]], payload.blocks()), key, tag)\n",
        ["tests/test_cli.py::TestHostileEnvelope"],
    ),
    Mutant(
        "stream-phase-0",
        "src/fuzzkey/cipher.py",
        "        self._phase = (self._phase + length) % self._period\n",
        "        self._phase = 0\n",
        ["tests/test_cipher.py::TestParts"],
    ),
    Mutant(
        "shift-blocks-phase-0",
        "src/fuzzkey/cipher.py",
        "        _shift(block, key.mode, shifts)\n",
        "        _shift(block, key.mode, _shifts(key, sign))\n",
        ["tests/test_cipher.py::TestParts"],
    ),
    Mutant(
        "tag-fold-phase-0",
        "src/fuzzkey/cipher.py",
        "self._key.window(len(block))",
        "self._key._pad[: len(block)]",
        ["tests/test_cipher.py::TestParts"],
    ),
    Mutant(
        "window-from-key-start",
        "src/fuzzkey/cipher.py",
        "        window = self._pad[self._phase : self._phase + length]\n",
        "        window = self._pad[:length]\n",
        ["tests/test_cipher.py::TestParts"],
    ),
    Mutant(
        "pad-two-blocks",
        "src/fuzzkey/cipher.py",
        "        self._pad = np.pad(codes, (0, BLOCK_BYTES), mode=\"wrap\")\n",
        "        self._pad = np.resize(codes, 2 * BLOCK_BYTES)\n",
        ["tests/test_cipher.py::TestLongKeys"],
    ),
    Mutant(
        "tag-fold-from-the-seed",
        "src/fuzzkey/cipher.py",
        "            self.tag = _fold_block(self.tag, block, self._key.window(len(block)), self._powers)\n",
        "            self.tag = _fold_block(TAG_SEED, block, self._key.window(len(block)), self._powers)\n",
        ["tests/test_cipher.py::TestParts"],
    ),
    Mutant(
        "prefix-xor-without-carry",
        "src/fuzzkey/cipher.py",
        "    words[1:] ^= spread[:-1]\n",
        "",
        ["tests/test_cipher.py::TestLowBytes"],
    ),
    Mutant(
        "prefix-xor-without-lane-mask",
        "src/fuzzkey/cipher.py",
        "    buf &= lane\n",
        "",
        ["tests/test_cipher.py::TestLowBytes"],
    ),
    Mutant(
        "group-totals-shifted-48",
        "src/fuzzkey/cipher.py",
        "    carry = groups >> 56\n",
        "    carry = groups >> 48\n",
        ["tests/test_cipher.py::TestLowBytes"],
    ),
    Mutant(
        "word-totals-from-byte-6",
        "src/fuzzkey/cipher.py",
        "    totals = buf[7::8] & lane\n",
        "    totals = buf[6::8] & lane\n",
        ["tests/test_cipher.py::TestLowBytes"],
    ),
    Mutant(
        "word-totals-without-their-prefix",
        "src/fuzzkey/cipher.py",
        "    groups *= _BYTE_SUMS\n",
        "",
        ["tests/test_cipher.py::TestLowBytes"],
    ),
    Mutant(
        "exit-flush-without-none-guard",
        "src/fuzzkey/cli.py",
        "            if stream is not None:\n                stream.flush()\n",
        "            stream.flush()\n",
        ["tests/test_cli.py::TestClosedStdout"],
    ),
    Mutant(
        "sigterm-not-handled",
        "src/fuzzkey/cli.py",
        "            signal.signal(signum, _raise_signal)\n",
        "            pass\n",
        ["tests/test_cli.py::TestInterrupts"],
    ),
    Mutant(
        "interrupt-keeps-the-temporary",
        "src/fuzzkey/cli.py",
        "    except BaseException:\n        # gone if an interrupt came after the rename\n",
        "    except Exception:\n        # gone if an interrupt came after the rename\n",
        ["tests/test_cli.py::TestInterrupts"],
    ),
    Mutant(
        "output-write-failure-unnamed",
        "src/fuzzkey/errors.py",
        "            exc.filename = name\n",
        "",
        ["tests/test_cli.py::TestFileSizeLimit::test_an_output_that_fails_after_its_copy_fit_is_named"],
    ),
    Mutant(
        "selection-serialized-twice",
        "src/fuzzkey/pipeline.py",
        "        if self._selection is None:\n",
        "        if True:\n",
        ["tests/test_cli.py::TestPipeline::test_the_selection_is_serialized_once"],
    ),
    Mutant(
        "low-bytes-seed-0",
        "src/fuzzkey/cipher.py",
        "        steps[0] = first\n",
        "        steps[0] = 0\n",
        ["tests/test_cipher.py::TestTag"],
    ),
    Mutant(
        "four-lanes",
        "src/fuzzkey/ingest.py",
        "np.arange(1, 8 * ((n - 1) // 8) + 1).reshape(-1, 8)",
        "np.arange(1, 4 * ((n - 1) // 4) + 1).reshape(-1, 4)",
        ["tests/test_ingest.py::TestZeroRule"],
    ),
    Mutant(
        "first-zero-kept",
        "src/fuzzkey/ingest.py",
        "np.arange(len(lanes) + 1, n)))[::-1]",
        "np.arange(len(lanes) + 1, n)))",
        ["tests/test_ingest.py::TestZeroRule"],
    ),
    Mutant(
        "lowest-lane-wins",
        "src/fuzzkey/ingest.py",
        ".reshape(-1, 8).T.ravel()",
        ".reshape(-1, 8).T[::-1].ravel()",
        ["tests/test_ingest.py::TestZeroRule"],
    ),
    Mutant(
        "zero-rule-skipped",
        "src/fuzzkey/ingest.py",
        "    if len(zero):\n",
        "    if False:\n",
        ["tests/test_ingest.py::TestZeroRule"],
    ),
    Mutant(
        "highest-index-error-wins",
        "src/fuzzkey/ingest.py",
        "    for _, result in results:\n",
        "    for _, result in results[::-1]:\n",
        ["tests/test_cli.py::TestParsingProcesses::test_the_first_error_in_file_order_is_named"],
    ),
    Mutant(
        "read-error-before-the-copied-chunks",
        "src/fuzzkey/ingest.py",
        "            except Exception:\n                counts += _parse_round(parse, copy.fileno(), copied, cap)\n",
        "            except Exception:\n",
        ["tests/test_ingest.py::TestParsingProcesses::test_a_read_error_comes_after_the_chunks_sent[bad-cell-first]"],
    ),
    Mutant(
        "refused-fork-share-dropped",
        "src/fuzzkey/ingest.py",
        "for r in range(len(forked), shares)",
        "for r in range(0)",
        ["tests/test_ingest.py::TestParsingProcesses::test_a_failed_fork_leaves_the_parse_to_the_processes_running"],
    ),
    Mutant(
        "refused-fork-tried-again",
        "src/fuzzkey/ingest.py",
        "                    os.close(end)\n                break\n",
        "                    os.close(end)\n                continue\n",
        ["tests/test_ingest.py::TestParsingProcesses::test_a_failed_fork_leaves_the_parse_to_the_processes_running"],
    ),
    Mutant(
        "replies-not-flushed",
        "src/fuzzkey/ingest.py",
        "                            pipe.flush()\n",
        "",
        ["tests/test_cli.py::TestParsingProcesses::test_a_process_that_dies_is_blamed_at_the_chunk_it_died_on"],
    ),
    Mutant(
        "affinity-ignored",
        "src/fuzzkey/ingest.py",
        'return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1',
        "return os.cpu_count() or 1",
        ["tests/test_cli.py::TestParsingProcesses::test_processes_are_capped_by_cpus_and_chunks"],
    ),
    Mutant(
        "lines-split-by-splitlines",
        "src/fuzzkey/ingest.py",
        "io.BytesIO(_read_at(fd, length, at)).readlines()",
        "_read_at(fd, length, at).splitlines(keepends=True)",
        ["tests/test_ingest.py::TestParsingProcesses::test_lines_end_at_newlines_only"],
    ),
    Mutant(
        "round-local-index-parsed",
        "src/fuzzkey/ingest.py",
        "copied.append((index, row_number, offset, at, len(text)))",
        "copied.append((len(copied), row_number, offset, at, len(text)))",
        ["tests/test_cli.py::TestParsingProcesses::test_chunks_go_to_the_processes_in_turn"],
    ),
    Mutant(
        "one-share-round-forks",
        "src/fuzzkey/ingest.py",
        "range(shares if shares > 1 else 0)",
        "range(shares)",
        ["tests/test_cli.py::TestParsingProcesses::test_processes_are_capped_by_cpus_and_chunks"],
    ),
    Mutant(
        "spill-in-file-column-order",
        "src/fuzzkey/ingest.py",
        "table.T[columns]",
        "np.ascontiguousarray(table.T)",
        ["tests/test_ingest.py::TestLoadTable::test_target_column_split"],
    ),
    Mutant(
        "whole-input-in-one-round",
        "src/fuzzkey/ingest.py",
        "itertools.islice(chunks, _ROUND)",
        "chunks",
        ["tests/test_cli.py::TestParsingProcesses::test_an_endless_pipe_ends_at_a_bad_row_2"],
    ),
    Mutant(
        "cap-does-not-end-chunk",
        "src/fuzzkey/ingest.py",
        "            chunk.append(line)\n            if len(line) > MAX_LINE_BYTES:\n                break\n",
        "            chunk.append(line)\n",
        ["tests/test_cli.py::TestHostileCsv::test_line_at_and_past_the_cap[drop-mode-past-the-cap-before-a-row]"],
    ),
    Mutant(
        "no-comma-count-before-loadtxt",
        "src/fuzzkey/ingest.py",
        '    if not all(line.count(b",") == commas for line in chunk):\n        return None\n',
        "",
        ["tests/test_ingest.py::TestLoadTable::test_non_decimal_spellings_rejected"],
    ),
    Mutant(
        "no-row-count-check",
        "src/fuzzkey/ingest.py",
        "len(table) == len(chunk) and ",
        "",
        ["tests/test_ingest.py::TestLoadTable::test_empty_line_is_a_missing_value"],
    ),
    Mutant(
        "no-finite-check",
        "src/fuzzkey/ingest.py",
        " and _all_finite(table)",
        "",
        ["tests/test_ingest.py::TestBulkParsing::test_rechecked_lines_match_the_per_cell_parser"],
    ),
    Mutant(
        "all-finite-reads-only-min",
        "src/fuzzkey/ingest.py",
        "np.isfinite(array.min()) and np.isfinite(array.max())",
        "np.isfinite(array.min())",
        ["tests/test_ingest.py::TestBulkParsing::test_rechecked_lines_match_the_per_cell_parser"],
    ),
    Mutant(
        "overflow-halved-after-the-pass",
        "src/fuzzkey/ingest.py",
        "        halved = (rows[:, overflow] / 2 - lo2) / (hi2 - lo2)\n        rows -= lo\n        rows /= span\n",
        "        rows -= lo\n        rows /= span\n        halved = (rows[:, overflow] / 2 - lo2) / (hi2 - lo2)\n",
        ["tests/test_ingest.py::TestNormalize::test_matches_per_column_reference"],
    ),
    Mutant(
        "ties-on-the-higher-id",
        "src/fuzzkey/selection.py",
        "key=lambda s: (-s.score, s.feature_id)",
        "key=lambda s: (-s.score, -s.feature_id)",
        ["tests/test_pipeline.py::TestDifferential"],
    ),
    Mutant(
        "threshold-strictly-above",
        "src/fuzzkey/selection.py",
        "if score >= tau)",
        "if score > tau)",
        ["tests/test_pipeline.py::TestDifferential"],
    ),
    Mutant(
        "analyze-under-uniform-centers",
        "src/fuzzkey/pipeline.py",
        "    defuzz = cfg.defuzz_config()\n",
        "    defuzz = DefuzzConfig.uniform(cfg.sets)\n",
        ["tests/test_pipeline.py::TestDifferential"],
    ),
    Mutant(
        "k-flag-keeps-config-tau",
        "src/fuzzkey/cli.py",
        'overrides = {"k": None, "tau": None} | overrides',
        'overrides = {"k": None} | overrides',
        ["tests/test_cli.py::TestFlagsOverConfig::test_a_selection_flag_replaces_the_file_rule[k-flag-over-config-tau]"],
    ),
    Mutant(
        "k-may-be-a-bool",
        "src/fuzzkey/pipeline.py",
        " or isinstance(self.k, bool)",
        "",
        ["tests/test_pipeline.py::TestConfigFile::test_k_must_not_be_a_bool"],
    ),
    Mutant(
        "shape-order-not-strict",
        "src/fuzzkey/fuzzy.py",
        "if any(q <= p for p, q in zip(values, values[1:])):",
        "if any(q < p for p, q in zip(values, values[1:])):",
        ["tests/test_fuzzy.py::TestEvalMembership::test_malformed_shapes_rejected_at_construction"],
    ),
    Mutant(
        "widest-slope",
        "src/fuzzkey/fuzzy.py",
        "return min(q - p for p, q in zip(points, points[1:]))",
        "return max(q - p for p, q in zip(points, points[1:]))",
        ["tests/test_fuzzy.py::TestEvalMembership::test_shape_contract[triangle]"],
    ),
    Mutant(
        "peak-at-the-first-breakpoint",
        "src/fuzzkey/fuzzy.py",
        " if eval_membership(p, self) == 1.0)",
        ")",
        ["tests/test_fuzzy.py::TestEvalMembership::test_shape_contract[triangle]"],
    ),
    Mutant(
        "triangle-rise-over-the-base",
        "src/fuzzkey/fuzzy.py",
        "return (x - mf.a) / (mf.b - mf.a)",
        "return (x - mf.a) / (mf.c - mf.a)",
        ["tests/test_fuzzy.py::TestEvalMembership::test_matches_interpolation_oracle"],
    ),
    Mutant(
        "rule-index-not-checked",
        "src/fuzzkey/fuzzy.py",
        "            if any(not isinstance(i, int) or isinstance(i, bool) for i in (ant, cons)):\n",
        "            if False:\n",
        ["tests/test_fuzzy.py::TestEvaluateRules::test_rule_indices_must_be_integers"],
    ),
]


def copy_tree(destination: Path) -> None:
    ignored = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, destination / name, ignore=ignored)
        else:
            shutil.copy2(source, destination / name)


def run_tests(root: Path, tests: list[str]) -> tuple[bool | None, float]:
    """Whether ``tests`` pass in the copy at ``root`` (None on a timeout),
    and the seconds they took."""
    env = os.environ.copy()
    env["PYTHONPATH"] = str(root / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    start = time.monotonic()
    try:
        proc = subprocess.run(
            command, cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return None, time.monotonic() - start
    return proc.returncode == 0, time.monotonic() - start


def mutated(mutant: Mutant) -> str:
    """The text of the mutant's file with its snippet replaced."""
    text = (ROOT / mutant.path).read_text()
    count = text.count(mutant.snippet)
    if count != 1:
        raise SystemExit(f"mutant {mutant.name}: its snippet occurs {count} times in {mutant.path}, not once")
    return text.replace(mutant.snippet, mutant.replacement)


def main(names: list[str]) -> int:
    unknown = sorted(set(names) - {mutant.name for mutant in MUTANTS})
    if unknown:
        print(f"no mutant named {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [mutant for mutant in MUTANTS if not names or mutant.name in names]
    texts = [mutated(mutant) for mutant in chosen]  # every snippet checked first
    with tempfile.TemporaryDirectory(prefix="fuzzkey-mutants-") as scratch:
        baseline = Path(scratch) / "baseline"
        copy_tree(baseline)
        tests = list(dict.fromkeys(test for mutant in chosen for test in mutant.tests))
        passed, seconds = run_tests(baseline, tests)
        print(f"unchanged copy: {'passed' if passed else 'FAILED'} in {seconds:.0f} s", flush=True)
        if not passed:
            return 2
        survivors = []
        for mutant, text in zip(chosen, texts):
            root = Path(scratch) / mutant.name
            copy_tree(root)
            (root / mutant.path).write_text(text)
            passed, seconds = run_tests(root, mutant.tests)
            verdict = {True: "SURVIVED", False: "killed", None: "killed by a hang"}[passed]
            print(f"{mutant.name}: {verdict} in {seconds:.0f} s", flush=True)
            if passed:
                survivors.append(mutant.name)
            shutil.rmtree(root)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
