"""Feature relevance scoring and ranked selection.

Two relevance definitions coexist:

* ``inference`` (default): per instance, fuzzify the value, fire the rules
  and take the defuzzified centroid; the feature score is the mean over
  instances.
* ``sum``: the plain sum of membership degrees.  Under any uniform
  partition the degrees sum to 1 for every value, so this mode ranks all
  features equally there; it only discriminates on non-uniform partitions.

Ranking is deterministic: scores descend, ties break on the lower feature
id.

:func:`score_feature` scores a whole column at once with numpy.  Its result
is bit-identical to the public scalar functions (:func:`fuzzify`,
:func:`evaluate_rules`, :func:`defuzzify_centroid`,
:func:`relevance_inference`, :func:`relevance_sum`), which stay the
reference it is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ContractViolationError
from .fuzzy import (
    DefuzzConfig,
    FuzzyPartition,
    LEFT_SHOULDER,
    TRIANGLE,
    MembershipVector,
    RuleBase,
    defuzzify_centroid,
    evaluate_rules,
    fuzzify,
)

MODE_INFERENCE = "inference"
MODE_SUM = "sum"


@dataclass(frozen=True)
class RelevanceScore:
    feature_id: int
    score: float
    mode: str = MODE_INFERENCE


@dataclass(frozen=True)
class SelectionResult:
    """Ranked features plus the selected subset.

    ``ranked`` pairs every feature id with its score, best first;
    ``selected`` is always a prefix of the ranking.  Exactly one of ``k``
    and ``tau`` is set, matching the selection mode used.
    """

    ranked: tuple[tuple[int, float], ...]
    selected: tuple[int, ...]
    mode: str = MODE_INFERENCE
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


def relevance_sum(mv: MembershipVector | Sequence[float]) -> float:
    """Sum of membership degrees of a single fuzzified value."""
    return math.fsum(mv)


def _degrees(x: np.ndarray, partition: FuzzyPartition) -> np.ndarray:
    """Membership degrees of every value in every set, shape S x n.

    Each branch is the IEEE expression :func:`eval_membership` evaluates,
    after the same clamp into [0, 1], so every degree is bit-identical.
    """
    x = np.where(x < 0.0, 0.0, np.where(x > 1.0, 1.0, x))
    rows = []
    # a slope np.where discards may overflow where its width is subnormal
    with np.errstate(over="ignore"):
        for mf in partition.sets:
            a, b, c = mf.a, mf.b, mf.c
            if mf.kind == LEFT_SHOULDER:
                row = np.where(x <= a, 1.0, np.where(x < c, (c - x) / (c - a), 0.0))
            elif mf.kind == TRIANGLE:
                inner = np.where(x < b, (x - a) / (b - a), (c - x) / (c - b))
                row = np.where((x <= a) | (x >= c), 0.0, inner)
            else:
                row = np.where(x <= b, 0.0, np.where(x < c, (x - b) / (c - b), 1.0))
            rows.append(row)
    return np.stack(rows)


def _column_fsums(terms: np.ndarray) -> np.ndarray:
    """Per-column sums of ``terms`` (S x n), each equal to ``math.fsum``.

    A column with at most two nonzero terms needs one correctly rounded
    addition, so the plain sum is exact there in any order; the uniform
    partitions never activate more than two sets.  Other columns take
    ``math.fsum`` over their own terms.
    """
    sums = terms.sum(axis=0)
    for j in np.flatnonzero(np.count_nonzero(terms, axis=0) > 2).tolist():
        sums[j] = math.fsum(terms[:, j].tolist())
    return sums


def _check_finite(x: np.ndarray, first_only: bool = False) -> None:
    bad = np.flatnonzero(~np.isfinite(x[:1] if first_only else x))
    if bad.size:
        raise ContractViolationError(f"expected a finite value, got {float(x[bad[0]])!r}")


def score_feature(
    values: Sequence[float],
    partition: FuzzyPartition,
    rules: RuleBase | None = None,
    defuzz: DefuzzConfig | None = None,
    mode: str = MODE_INFERENCE,
) -> float:
    """Per-feature score: mean over instances in either relevance mode.

    Equal bit for bit to :func:`relevance_inference` in ``inference`` mode
    and to the ``math.fsum`` mean of :func:`relevance_sum` over fuzzified
    values in ``sum`` mode, and raises the same errors in the same order.
    """
    if mode not in (MODE_INFERENCE, MODE_SUM):
        raise ContractViolationError(f"unknown relevance mode {mode!r}")
    if len(values) == 0:
        raise ContractViolationError("relevance needs at least one instance value")
    x = np.asarray(values, dtype=float)
    if mode == MODE_SUM:
        _check_finite(x)
        per_value = _column_fsums(_degrees(x, partition))
        return math.fsum(per_value.tolist()) / len(x)

    if rules is None:
        rules = RuleBase.identity(partition.n_sets)
    if defuzz is None:
        defuzz = DefuzzConfig.uniform(partition.n_sets)
    # the scalar path fuzzifies the first value before it checks any shape
    _check_finite(x, first_only=True)
    if partition.n_sets != rules.size:
        raise ContractViolationError(
            f"membership vector has {partition.n_sets} entries but the rule base has {rules.size} rules"
        )
    if rules.size != len(defuzz.centers):
        raise ContractViolationError(
            f"activation vector has {rules.size} entries but there are {len(defuzz.centers)} centers"
        )
    _check_finite(x)

    degrees = _degrees(x, partition)
    activation = np.zeros_like(degrees)
    for ant, cons in rules.mapping:
        np.maximum(activation[cons], degrees[ant], out=activation[cons])
    centers = np.asarray(defuzz.centers)
    denominator = _column_fsums(activation)
    numerator = _column_fsums(centers[:, None] * activation)
    with np.errstate(divide="ignore", invalid="ignore"):
        score = numerator / denominator
    # min(max(score, lo), hi) as Python evaluates it, signed zeros included
    lo, hi = centers[0], centers[-1]
    score = np.where(lo > score, lo, score)
    score = np.where(hi < score, hi, score)
    per_value = np.where(denominator == 0.0, defuzz.empty_activation_value, score)
    return math.fsum(per_value.tolist()) / len(x)


def score_features(
    columns: Iterable[Sequence[float]],
    partition: FuzzyPartition,
    rules: RuleBase | None = None,
    defuzz: DefuzzConfig | None = None,
    mode: str = MODE_INFERENCE,
) -> list[RelevanceScore]:
    """Score one column of instance values per feature."""
    return [
        RelevanceScore(feature_id=i, score=score_feature(col, partition, rules, defuzz, mode), mode=mode)
        for i, col in enumerate(columns)
    ]


def rank_scores(scores: Sequence[RelevanceScore]) -> tuple[tuple[int, float], ...]:
    """Sort by score descending, ties by ascending feature id."""
    ordered = sorted(scores, key=lambda s: (-s.score, s.feature_id))
    return tuple((s.feature_id, s.score) for s in ordered)


def select_topk(scores: Sequence[RelevanceScore], k: int) -> SelectionResult:
    """Keep the first ``min(k, n)`` features of the ranking."""
    if not isinstance(k, int) or k < 0:
        raise ContractViolationError(f"k must be a nonnegative integer, got {k!r}")
    ranked = rank_scores(scores)
    selected = tuple(fid for fid, _ in ranked[: min(k, len(ranked))])
    mode = scores[0].mode if scores else MODE_INFERENCE
    return SelectionResult(ranked=ranked, selected=selected, mode=mode, k=k)


def select_threshold(scores: Sequence[RelevanceScore], tau: float) -> SelectionResult:
    """Keep every feature whose score reaches ``tau``."""
    if not math.isfinite(tau) or tau < 0:
        raise ContractViolationError(f"tau must be a finite nonnegative value, got {tau!r}")
    ranked = rank_scores(scores)
    selected = tuple(fid for fid, score in ranked if score >= tau)
    mode = scores[0].mode if scores else MODE_INFERENCE
    return SelectionResult(ranked=ranked, selected=selected, mode=mode, tau=float(tau))
