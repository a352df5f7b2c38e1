"""Correctness gate: checks the program's outputs against independent oracles.

Reports are checked against a closed form of the default configuration
(three uniform sets with breakpoints 0.25/0.5/0.75, identity rules, centers
0/0.5/1), under which each value's centroid is ``clip((x - 0.25)/0.5, 0, 1)``
of its min-max normalized value.  A few features are also re-scored with the
public scalar ``relevance_inference``, and the cost counters are checked
against their closed form.  Each check returns a list of failure messages;
an empty list means the output is correct.
"""

from __future__ import annotations

import numpy as np

ENVELOPE_HEADER = b"FZK1\x01\x00\x01"  # magic, version 1, byte-shift mode, tag flag
SETS, LAYERS = 3, 4  # the defaults the workloads run with
SCORE_TOLERANCE = 1e-9
TIE_TOLERANCE = 1e-12  # oracle scores closer than this may rank either way

_SECTIONS = ("[dataset]", "[config]", "[normalization]", "[scores]", "[ranking]", "[selected]", "[stats]")


def oracle_scores(features: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lo, hi, mean centroid) per feature column."""
    lo, hi = features.min(axis=0), features.max(axis=0)
    normalized = (features - lo) / (hi - lo)
    return lo, hi, np.clip((normalized - 0.25) / 0.5, 0.0, 1.0).mean(axis=0)


def parse_report(report: bytes) -> dict[str, list[str]]:
    lines = report.decode("utf-8").split("\n")
    if lines[0] != "fuzzkey-report 1" or lines[-1] != "":
        raise ValueError("report header or final line feed missing")
    sections: dict[str, list[str]] = {}
    current = None
    for line in lines[1:-1]:
        if line in _SECTIONS:
            current = sections.setdefault(line, [])
        elif current is None:
            raise ValueError(f"line outside any section: {line!r}")
        else:
            current.append(line)
    if tuple(sections) != _SECTIONS:
        raise ValueError(f"sections {list(sections)} differ from {list(_SECTIONS)}")
    return sections


def _keyvalues(lines: list[str]) -> dict[str, str]:
    return dict(line.split(" = ", 1) for line in lines)


def check_report(
    report: bytes,
    features: np.ndarray,
    *,
    k: int | None = None,
    tau: float | None = None,
    resample: list[int] = (),
) -> list[str]:
    """Check a ``select``/``pipeline`` report on ``features`` with top-k or tau."""
    try:
        sections = parse_report(report)
    except (UnicodeDecodeError, ValueError) as exc:
        return [f"report does not parse: {exc}"]
    errors = []
    rows, n = features.shape
    names = [f"x{i}" for i in range(n)]
    lo, hi, oracle = oracle_scores(features)

    dataset = _keyvalues(sections["[dataset]"])
    if dataset != {"features": str(n), "rows": str(rows), "target": "present"}:
        errors.append(f"[dataset] reads {dataset}")

    expected_norm = [f"{names[i]}\t{float(lo[i])!r}\t{float(hi[i])!r}" for i in range(n)]
    if sections["[normalization]"] != expected_norm:
        errors.append("[normalization] differs from the column minima and maxima")

    printed: dict[str, float] = {}
    score_lines = sections["[scores]"]
    if len(score_lines) != n:
        return errors + [f"[scores] has {len(score_lines)} lines, expected {n}"]
    for i, line in enumerate(score_lines):
        fid, name, value = line.split("\t")
        printed[name] = float(value)
        if fid != str(i) or name != names[i]:
            errors.append(f"[scores] line {i} is {line!r}")
        elif abs(float(value) - oracle[i]) > SCORE_TOLERANCE:
            errors.append(f"[scores] {name} = {value}, oracle {oracle[i]:.12f}")

    if resample:
        from fuzzkey.fuzzy import make_uniform_partition
        from fuzzkey.selection import relevance_inference

        partition = make_uniform_partition(SETS)
        for i in resample:
            column = (features[:, i] - lo[i]) / (hi[i] - lo[i])
            rescored = f"{relevance_inference(column.tolist(), partition):.9f}"
            if score_lines[i].split("\t")[2] != rescored:
                errors.append(f"{names[i]}: relevance_inference prints {rescored}, report {score_lines[i]!r}")

    ranking = [line.split("\t") for line in sections["[ranking]"]]
    ids = {name: i for i, name in enumerate(names)}
    order = [ids.get(name, -1) for _, name, _ in ranking]
    if sorted(order) != list(range(n)):
        return errors + ["[ranking] is not a permutation of the features"]
    for rank, (r, name, value) in enumerate(ranking):
        if r != str(rank) or float(value) != printed[name]:
            errors.append(f"[ranking] line {rank} is {r}\t{name}\t{value}")
    for a, b in zip(order, order[1:]):
        gap = oracle[a] - oracle[b]
        # exact oracle ties come from equal value multisets, which score equal
        if gap < -TIE_TOLERANCE or (gap == 0 and a > b):
            errors.append(f"[ranking] puts {names[a]} before {names[b]}")

    if k is not None:
        chosen = min(k, n)
    else:
        chosen = sum(1 for i in order if oracle[i] >= tau)
        near = [i for i in order if abs(oracle[i] - tau) <= TIE_TOLERANCE]
        if near:  # the program's exact score decides; take the report's cut
            chosen = len(sections["[selected]"])
    if sections["[selected]"] != sections["[ranking]"][:chosen]:
        errors.append(f"[selected] is not the first {chosen} ranking lines")

    hidden = rows * (SETS * n * n + (LAYERS - 4) * n * n + n)
    expected_stats = {"propagations": str(rows), "mf_evals": str(rows * SETS * n), "hidden_ops": str(hidden)}
    stats = _keyvalues(sections["[stats]"])
    if stats != expected_stats:
        errors.append(f"[stats] reads {stats}, closed form {expected_stats}")
    return errors


def selected_block(report: bytes) -> bytes:
    """The ``[selected]`` section exactly as ``pipeline`` encrypts it."""
    _, _, rest = report.partition(b"\n[selected]\n")
    block, _, _ = rest.partition(b"[stats]\n")
    return block


def check_envelope(envelope: bytes, plaintext: bytes, key: bytes) -> list[str]:
    """Header layout and an independent byte-shift of ``plaintext``."""
    errors = []
    if envelope[:7] != ENVELOPE_HEADER:
        errors.append(f"envelope header {envelope[:7].hex()} is not {ENVELOPE_HEADER.hex()}")
    plain = np.frombuffer(plaintext, dtype=np.uint8)
    pad = np.resize(np.frombuffer(key, dtype=np.uint8), plain.size)
    expected = (plain + pad).astype(np.uint8).tobytes()  # wraps modulo 256
    if envelope[15:] != expected:
        errors.append("ciphertext differs from the plaintext shifted by the cycled key")
    return errors


def check_integrity_failure(exit_code: int, stderr: bytes) -> list[str]:
    """A tampered envelope must exit 5 with exactly one ``fuzzkey:`` line."""
    errors = []
    if exit_code != 5:
        errors.append(f"tampered envelope exited {exit_code}, expected 5")
    lines = stderr.decode("utf-8", "replace").splitlines()
    if len(lines) != 1 or not lines[0].startswith("fuzzkey: "):
        errors.append(f"tampered envelope stderr is {lines!r}")
    return errors
