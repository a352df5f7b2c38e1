"""fuzzkey benchmark: seeded workloads run through the real CLI.

    python3 perfbench/run.py --workload tall --seed 1 --seconds 35 --trace 0

Workloads (closed loop: one client, one operation at a time; an operation
is the workload's sequence of CLI calls, each a fresh ``python -m fuzzkey``
child):

* ``tall``: ``select tall.csv --k 5`` on 20 000 rows x 50 features.
  Scoring and the per-row network pass dominate.
* ``wide``: ``pipeline wide.csv --tau 0.5 --jobs 2`` on 100 rows x 3 000
  features.  The dense first weight layer dominates memory; scoring is many
  short pool tasks; about half the features are selected and sealed.
* ``envelope``: ``encrypt`` and ``decrypt`` of an 8 MiB random payload, then
  ``decrypt`` of a copy with one ciphertext bit flipped, which must exit 5.
  Only the cipher and the CLI run.

``--trace 0`` prints the end-to-end metrics, measured on child processes,
each the median of its samples in the run:

* ``setup_s``: wall time of a fresh interpreter running ``import
  fuzzkey.cli``, which every CLI call pays; sampled after every operation.
* ``op_s``: wall time of one operation, the sum over its CLI children.
* ``peak_rss_mb``: the largest peak RSS among the operation's children,
  each read for that child alone (see ``launch.py``).

An operation fails on an unexpected exit code or any failed check; the
error rate is printed with its counts, ``failed`` of ``attempted``.

``--trace 1`` alternates untraced operations with operations that call
``fuzzkey.cli.main(argv)`` in this process under the span recorder of
``spans.py``, and prints the per-layer metrics.  Every output is checked by
``gate.py``; the run exits 1 if any check fails.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Spans and metrics are also written under ``.bench_work/results``.

Measurement limits: the benchmark pins no CPU and drops no page cache, so
on a shared machine other tenants' load shows in the spread.  numpy's BLAS
pool is held to one thread (see below).
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# numpy's BLAS pool runs one thread, in the CLI children (which inherit this
# environment) and in the traced run in this process; it must be set before
# numpy loads.  With its default of one thread per core, starting the pool on
# a shared 2-core machine made the bare import of the CLI bimodal (about
# 0.11 s or 0.19 s, in stretches of seconds).
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import gate  # noqa: E402  (the benchmark's own modules, beside this file)
from inputs import Inputs, generate  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
LAUNCHER = Path(__file__).resolve().parent / "launch.py"

WORKLOADS = ("tall", "wide", "envelope")
SETUP_WARMUPS = 2
# a tall operation takes 9-15 s on a shared 2-core machine, so a run of
# --seconds may hold only two, whose median is their mean: operations of
# 11.2 s and 15.1 s read as 13.1 s.  Three make the median one operation.
MIN_OPS = 3
# set-up is sampled after every operation, so a run's samples span its whole
# length rather than one stretch of the shared machine's state
SETUP_PER_OP = 4
CHILD_TIMEOUT_S = 150.0

END_TO_END_UNITS = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB"}

# which end-to-end metric each layer's metrics should move, and on which workload
LAYER_TARGETS = {
    "ingest": "op_s on tall",
    "selection": "op_s on tall and wide",
    "network": "op_s on tall; op_s and peak_rss_mb on wide",
    "pipeline": "op_s on wide",
    "cipher": "op_s on envelope; no change on tall and wide",
    "cli": "every end-to-end metric",
    "trace": "none: the cost of tracing itself",
}
PER_LAYER_UNITS = {
    "ingest.load_table_s": "s",
    "ingest.normalize_s": "s",
    "ingest.cells": "count",
    "selection.score_busy_s": "s",
    "selection.score_wall_s": "s",
    "selection.score_calls": "count",
    "selection.select_s": "s",
    "network.build_s": "s",
    "network.weight_bytes": "B",
    "network.propagate_s": "s",
    "network.propagations": "count",
    "pipeline.analyze_s": "s",
    "pipeline.analyze_self_s": "s",
    "pipeline.render_report_s": "s",
    "pipeline.report_bytes": "B",
    "cipher.serialize_s": "s",
    "cipher.encrypt_s": "s",
    "cipher.decrypt_s": "s",
    "cipher.tag_s": "s",
    "cipher.bytes": "B",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Step:
    """One CLI call of an operation; its standard output goes to ``stdout``."""

    name: str
    argv: list[str]
    stdout: Path
    expect_exit: int = 0


@dataclass
class StepResult:
    exit_code: int
    seconds: float
    stderr: bytes
    rss_mb: float = 0.0


class Scenario:
    """A workload's steps and the checks on what they write."""

    def __init__(self, workload: str, inputs: Inputs, rundir: Path) -> None:
        self.workload = workload
        self.inputs = inputs
        self.dir = rundir
        self.reference: dict[str, bytes] = {}
        out = rundir / "out"
        out.mkdir()
        self.out = out
        if workload == "envelope":
            payload = str(inputs.files["payload"])
            self.steps = [
                Step("encrypt", ["encrypt", payload, "--output", str(out / "payload.fzk")], out / "encrypt.stdout"),
                Step("decrypt", ["decrypt", str(out / "payload.fzk"), "--output", str(out / "payload.out")], out / "decrypt.stdout"),
                Step(
                    "decrypt_tampered",
                    ["decrypt", str(out / "tampered.fzk"), "--output", str(out / "tampered.out")],
                    out / "tampered.stdout",
                    expect_exit=5,
                ),
            ]
        else:
            csv = str(inputs.files["csv"])
            if workload == "tall":
                analysis = Step("select", ["select", csv, "--k", "5"], out / "report.txt")
            else:
                argv = ["pipeline", csv, "--tau", "0.5", "--jobs", "2", "--output", str(out / "selection.fzk")]
                analysis = Step("pipeline", argv, out / "report.txt")
            self.steps = [analysis]

    def reset(self) -> None:
        """Remove the previous operation's outputs so none can pass for new ones."""
        for path in self.out.iterdir():
            path.unlink()

    def after_step(self, step: Step) -> None:
        if self.workload == "envelope" and step.name == "encrypt":
            source = self.out / "payload.fzk"
            if source.exists():
                envelope = bytearray(source.read_bytes())
                offset, bit = self.inputs.flip
                envelope[offset] ^= 1 << bit
                (self.out / "tampered.fzk").write_bytes(bytes(envelope))

    def _same_as_first(self, name: str, data: bytes, check) -> list[str]:
        """Fully check the first output of each kind; later ones must repeat it byte for byte."""
        if name not in self.reference:
            errors = check()
            if not errors:
                self.reference[name] = data
            return errors
        return [] if data == self.reference[name] else [f"{name} bytes differ from the first operation's"]

    def check(self, results: list[StepResult]) -> list[str]:
        errors = []
        for step, result in zip(self.steps, results):
            if step.expect_exit != 0:
                continue
            if result.exit_code != 0:
                stderr = result.stderr.decode("utf-8", "replace").strip()
                errors.append(f"{step.name} exited {result.exit_code}: {stderr}")
        if errors:
            return errors
        try:
            return errors + self._check_outputs(results)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"malformed output: {exc!r}"]

    def _check_outputs(self, results: list[StepResult]) -> list[str]:
        out, inputs, key = self.out, self.inputs, self.inputs.key
        if self.workload == "envelope":
            payload = inputs.payload
            envelope = (out / "payload.fzk").read_bytes()
            errors = self._same_as_first("payload.fzk", envelope, lambda: gate.check_envelope(envelope, payload, key))
            if (out / "payload.out").read_bytes() != payload:
                errors.append("decrypted payload differs from the plaintext")
            return errors + gate.check_integrity_failure(results[2].exit_code, results[2].stderr)

        report = (out / "report.txt").read_bytes()
        options = {"k": 5} if self.workload == "tall" else {"tau": 0.5}
        errors = self._same_as_first(
            "report", report, lambda: gate.check_report(report, inputs.features, resample=inputs.resample, **options)
        )
        if self.workload == "wide":
            selection = (out / "selection.fzk").read_bytes()
            errors += self._same_as_first(
                "selection.fzk", selection, lambda: self._check_selection(selection, report)
            )
        return errors

    def _check_selection(self, selection: bytes, report: bytes) -> list[str]:
        from fuzzkey.cipher import CipherEnvelope, CipherKey, open_envelope
        from fuzzkey.errors import FuzzkeyError

        block = gate.selected_block(report)
        errors = gate.check_envelope(selection, block, self.inputs.key)
        try:
            opened = open_envelope(CipherEnvelope.from_bytes(selection), CipherKey(self.inputs.key))
        except FuzzkeyError as exc:
            return errors + [f"selection envelope does not open: {exc}"]
        if opened != block:
            errors.append("opened selection envelope differs from the [selected] block")
        return errors


def spawn(argv: list[str], env: dict[str, str], stdout, stderr, result: Path) -> tuple[int, float, float]:
    """Run a child through ``launch.py``: (exit code, wall seconds, its own peak RSS in MB)."""
    launcher = subprocess.run(
        [sys.executable, "-S", str(LAUNCHER), str(result), str(CHILD_TIMEOUT_S), *argv],
        stdout=stdout,
        stderr=stderr,
        env=env,
    )
    if launcher.returncode != 0:
        return launcher.returncode, 0.0, 0.0
    record = json.loads(result.read_text(encoding="utf-8"))
    result.unlink()
    return record["exit"], record["seconds"], record["maxrss_kb"] / 1024.0


def run_child(step: Step, env: dict[str, str]) -> StepResult:
    """Run one CLI call as a child process."""
    stderr_path = step.stdout.with_suffix(".stderr")
    with open(step.stdout, "wb") as out, open(stderr_path, "wb") as err:
        argv = [sys.executable, "-m", "fuzzkey", *step.argv]
        code, seconds, rss_mb = spawn(argv, env, out, err, step.stdout.with_suffix(".launch"))
    return StepResult(code, seconds, stderr_path.read_bytes(), rss_mb)


def run_traced(step: Step, recorder) -> StepResult:
    """Run one CLI call in this process, as ``fuzzkey.cli.main(argv)``, under spans."""
    from fuzzkey import cli

    out, err = io.BytesIO(), io.BytesIO()
    saved = sys.stdout, sys.stderr
    sys.stdout = io.TextIOWrapper(out, encoding="utf-8", write_through=True)
    sys.stderr = io.TextIOWrapper(err, encoding="utf-8", write_through=True)
    start = time.perf_counter()
    try:
        code = recorder.call("cli.main", cli.main, (step.argv,), {})
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        sys.stderr.write(traceback.format_exc())
        code = 1
    finally:
        seconds = time.perf_counter() - start
        for wrapper in (sys.stdout, sys.stderr):
            wrapper.flush()
            wrapper.detach()  # keep the buffers open once the wrappers are dropped
        sys.stdout, sys.stderr = saved
    step.stdout.write_bytes(out.getvalue())
    return StepResult(code, seconds, err.getvalue())


def measure_setup(env: dict[str, str], result: Path, repeats: int) -> list[float]:
    """Wall times of fresh interpreters importing the CLI."""
    times = []
    for _ in range(repeats):
        code, seconds, _ = spawn([sys.executable, "-c", "import fuzzkey.cli"], env, None, None, result)
        if code != 0:
            raise RuntimeError(f"importing fuzzkey.cli exited {code}")
        times.append(seconds)
    return times


def child_env(key_path: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["FUZZKEY_KEY_FILE"] = str(key_path)
    # cache bytecode inside the checkout, as an installed package would have it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    return env


def run_op(scenario: Scenario, runner) -> tuple[list[StepResult], list[str]]:
    scenario.reset()
    results = []
    for step in scenario.steps:
        results.append(runner(step))
        scenario.after_step(step)
    return results, scenario.check(results)


def describe(values: list[float]) -> str:
    if not values:
        return "n=0"
    return f"median of n={len(values)}, min {min(values):.4f}, max {max(values):.4f}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fuzzkey" / "cli.py").is_file():
        print(f"perfbench: no fuzzkey sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fuzzkey

    if Path(fuzzkey.__file__).resolve().parent != (SRC / "fuzzkey").resolve():
        print(f"perfbench: imported fuzzkey from {fuzzkey.__file__}, not {SRC}", file=sys.stderr)
        return 2

    rundir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        generated = generate(args.workload, args.seed, rundir / "inputs")
        sizes = generated.sizes()
        scenario = Scenario(args.workload, generated, rundir)
        env = child_env(generated.key_path)
        measure_setup(env, rundir / "setup.launch", SETUP_WARMUPS)  # fills the bytecode cache
        if args.trace:
            outcome = measure_traced(scenario, env, args.seconds, stem.with_suffix(".spans.jsonl"))
        else:
            outcome = measure_untraced(scenario, env, args.seconds)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    metrics, attempted, failures, details = outcome
    print(f"workload {args.workload}, seed {args.seed}, inputs {json.dumps(sizes)}")
    for message in failures:
        print(f"FAILED: {message}", file=sys.stderr)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for name, value in metrics.items():
        note = details.get(name, "")
        if args.trace:
            note = f"-> {LAYER_TARGETS[name.split('.')[0]]} {note}"
        print(f"  {name:<26} {value:>16.6f} {units[name]:<5} {note}")
    print(f"  {'error_rate':<26} {len(failures) / attempted:>16.6f} ratio ({len(failures)} failed of {attempted} operations)")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    stem.with_suffix(".metrics.json").write_text(
        json.dumps({**result, "inputs": sizes, "failures": failures, "details": details}, indent=1)
    )
    print(json.dumps(result))
    return 0 if not failures else 1


def closed_loop(seconds: int, operation, at_least: int) -> None:
    """Run ``operation`` back to back: ``at_least`` times, then again while
    one more of the last one's length fits in ``seconds``."""
    start = time.perf_counter()
    for done in itertools.count(1):
        began = time.perf_counter()
        operation()
        now = time.perf_counter()
        if done >= at_least and now - start + (now - began) > seconds:
            return


def measure_untraced(scenario: Scenario, env, seconds: int):
    ops, failures, setup = [], [], []

    def operation():
        results, errors = run_op(scenario, lambda step: run_child(step, env))
        ops.append(results)
        if errors:
            failures.append("; ".join(errors))
        setup.extend(measure_setup(env, scenario.dir / "setup.launch", SETUP_PER_OP))

    closed_loop(seconds, operation, MIN_OPS)
    samples = {
        "setup_s": setup,
        "op_s": [sum(r.seconds for r in op) for op in ops],
        "peak_rss_mb": [max(r.rss_mb for r in op) for op in ops],
    }
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    details = {name: describe(values) for name, values in samples.items()}
    return metrics, len(ops), failures, details


def measure_traced(scenario: Scenario, env, seconds: int, spans_path: Path):
    """Alternate untraced and traced operations; per-layer metrics are medians over the traced ones."""
    os.environ["FUZZKEY_KEY_FILE"] = env["FUZZKEY_KEY_FILE"]
    spans_path.unlink(missing_ok=True)
    untraced, traced, failures, setup = [], [], [], []

    def pair():
        results, errors = run_op(scenario, lambda step: run_child(step, env))
        untraced.append(sum(r.seconds for r in results))
        if errors:
            failures.append("untraced: " + "; ".join(errors))
        setup.extend(measure_setup(env, scenario.dir / "setup.launch", SETUP_PER_OP))
        recorder = spans.SpanRecorder()
        spans.install(recorder)
        try:
            results, errors = run_op(scenario, lambda step: run_traced(step, recorder))
        finally:
            recorder.uninstall()
        recorder.dump(spans_path, op=len(traced))
        traced.append(spans.layer_metrics(recorder.spans))
        if errors:
            failures.append("traced: " + "; ".join(errors))

    closed_loop(seconds, pair, 1)
    # a child's wall time minus interpreter set-up is the part main() runs in
    baseline = statistics.median(untraced) - len(scenario.steps) * statistics.median(setup)
    metrics = {name: statistics.median([op[name] for op in traced]) for name in traced[0]}
    metrics["trace.overhead_s"] = metrics["cli.main_s"] - baseline
    details = {
        "trace.overhead_s": f"untraced operation {describe(untraced)}, less {len(scenario.steps)} x setup_s",
    }
    analyze, own = metrics["pipeline.analyze_s"], metrics["pipeline.analyze_self_s"]
    if analyze:
        details["pipeline.analyze_s"] = f"child spans cover {100 * (1 - own / analyze):.1f}%"
    return metrics, len(untraced) + len(traced), failures, details


if __name__ == "__main__":
    sys.exit(main())
