"""Feature relevance scoring and ranked selection.

Relevance is fuzzy inference: per instance, fuzzify the value, fire the
rules and take the defuzzified centroid; the feature score is the mean over
instances.

Ranking is deterministic: scores descend, ties break on the lower feature
id.

:func:`score_columns` scores every column of a matrix with one numpy kernel,
a block of columns at a time, under the uniform partition and identity
rules, the only ones the pipeline builds.  At most two adjacent sets of
that strong (Ruspini) partition are active at any value, and the kernel
evaluates only those.  Results are bit-identical to the public scalar
functions (:func:`fuzzify`, :func:`evaluate_rules`,
:func:`defuzzify_centroid`, :func:`relevance_inference`), which take any
partition and rule base and stay the reference the kernel is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ContractViolationError
from .fuzzy import (
    DefuzzConfig,
    FuzzyPartition,
    RuleBase,
    defuzzify_centroid,
    evaluate_rules,
    fuzzify,
    uniform_breakpoints,
)
from .ingest import _SCORE_BLOCK, _all_finite


@dataclass(frozen=True)
class RelevanceScore:
    feature_id: int
    score: float


@dataclass(frozen=True)
class SelectionResult:
    """Ranked features plus the selected subset.

    ``ranked`` pairs every feature id with its score, best first;
    ``selected`` is always a prefix of the ranking.  Exactly one of ``k``
    and ``tau`` is set, matching the selection mode used.
    """

    ranked: tuple[tuple[int, float], ...]
    selected: tuple[int, ...]
    k: int | None = None
    tau: float | None = None


def relevance_inference(
    values: Sequence[float],
    partition: FuzzyPartition,
    rules: RuleBase | None = None,
    defuzz: DefuzzConfig | None = None,
) -> float:
    """Mean defuzzified centroid of a feature's per-instance values."""
    if len(values) == 0:
        raise ContractViolationError("relevance needs at least one instance value")
    if rules is None:
        rules = RuleBase.identity(partition.n_sets)
    if defuzz is None:
        defuzz = DefuzzConfig.uniform(partition.n_sets)
    crisp = [
        defuzzify_centroid(evaluate_rules(fuzzify(float(v), partition), rules), defuzz)
        for v in values
    ]
    return math.fsum(crisp) / len(crisp)


def _centroids(x: np.ndarray, points: np.ndarray, defuzz: DefuzzConfig) -> np.ndarray:
    """Defuzzified centroid of every value under the uniform partition.

    Between ``points[j]`` and ``points[j + 1]`` only set ``j`` (falling) and
    set ``j + 1`` (rising) are active.  Each degree is the IEEE expression
    :func:`eval_membership` evaluates; the clamp into ``[points[0],
    points[-1]]`` gives the shoulder plateaus.  A two-term sum is one
    rounded addition, equal to ``math.fsum`` but for the sign of a zero,
    which the mean's ``math.fsum`` drops.
    """
    x = np.minimum(np.maximum(x, points[0]), points[-1])
    j = np.minimum(np.searchsorted(points, x, "right") - 1, len(points) - 2)
    left, right = points[j], points[j + 1]
    width = right - left
    falling = (right - x) / width
    rising = (x - left) / width
    centers = np.asarray(defuzz.centers)
    score = (centers[j] * falling + centers[j + 1] * rising) / (falling + rising)
    # min(max(score, lo), hi) as Python evaluates it, signed zeros included
    lo, hi = defuzz.centers[0], defuzz.centers[-1]
    score = np.where(lo > score, lo, score)
    return np.where(hi < score, hi, score)


def score_columns(rows: np.ndarray | Sequence[Sequence[float]], defuzz: DefuzzConfig) -> list[float]:
    """Score every column of an n x F matrix of instance values.

    Each score is equal bit for bit to ``relevance_inference(column,
    make_uniform_partition(S), None, defuzz)`` with S = ``len(defuzz.centers)``,
    and the error raised is the one a loop of that call over the columns
    raises first: fewer than 2 centers, no rows, then the first non-finite
    value in column order.

    Columns run in blocks of at most ``_SCORE_BLOCK`` values, each copied
    into a contiguous f x n array, so every step is a few numpy calls per
    block whatever the number of columns or sets.
    """
    points = np.asarray(uniform_breakpoints(len(defuzz.centers)))
    x = np.asarray(rows, dtype=float)
    n, n_features = x.shape
    if n == 0:
        raise ContractViolationError("relevance needs at least one instance value")
    if not _all_finite(x):
        finite = np.isfinite(x)
        j = int(np.flatnonzero(~finite.all(axis=0))[0])
        value = float(x[np.flatnonzero(~finite[:, j])[0], j])
        raise ContractViolationError(f"expected a finite value, got {value!r}")

    scores: list[float] = []
    width = max(1, _SCORE_BLOCK // n)
    for start in range(0, n_features, width):
        block = np.ascontiguousarray(x[:, start : start + width].T)
        per_value = _centroids(block, points, defuzz)
        # a memoryview hands fsum one float at a time, where tolist() would
        # build all f x n of them first
        scores.extend(math.fsum(memoryview(values)) / n for values in per_value)
    return scores


def rank_scores(scores: Sequence[RelevanceScore]) -> tuple[tuple[int, float], ...]:
    """Sort by score descending, ties by ascending feature id."""
    ordered = sorted(scores, key=lambda s: (-s.score, s.feature_id))
    return tuple((s.feature_id, s.score) for s in ordered)


def select_topk(scores: Sequence[RelevanceScore], k: int) -> SelectionResult:
    """Keep the first ``min(k, n)`` features of the ranking."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise ContractViolationError(f"k must be a nonnegative integer, got {k!r}")
    ranked = rank_scores(scores)
    selected = tuple(fid for fid, _ in ranked[: min(k, len(ranked))])
    return SelectionResult(ranked=ranked, selected=selected, k=k)


def select_threshold(scores: Sequence[RelevanceScore], tau: float) -> SelectionResult:
    """Keep every feature whose score reaches ``tau``."""
    if not math.isfinite(tau) or tau < 0:
        raise ContractViolationError(f"tau must be a finite nonnegative value, got {tau!r}")
    ranked = rank_scores(scores)
    selected = tuple(fid for fid, score in ranked if score >= tau)
    return SelectionResult(ranked=ranked, selected=selected, tau=float(tau))
