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

:func:`score_columns` scores every column of a matrix with one numpy kernel,
a block of columns at a time; :func:`score_feature` is its one-column call.
Results are bit-identical to the public scalar functions
(:func:`fuzzify`, :func:`evaluate_rules`, :func:`defuzzify_centroid`,
:func:`relevance_inference`, :func:`relevance_sum`), which stay the
reference the kernel is tested against.
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


# values per kernel block: a block of f columns of n values runs as f x n
# arrays, and each of its temporaries holds S x f x n floats
_SCORE_BLOCK = 1 << 15


def _degrees(x: np.ndarray, partition: FuzzyPartition) -> np.ndarray:
    """Membership degrees of every value in every set, shape S x ``x.shape``.

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
    """Sums of ``terms`` over axis 0, each equal to ``math.fsum``.

    Where at most two terms are nonzero the sum is one correctly rounded
    addition, so the plain sum is exact there in any order; the uniform
    partitions never activate more than two sets.  Every other sum takes
    ``math.fsum`` over its own terms.
    """
    sums = terms.sum(axis=0)
    for index in np.argwhere(np.count_nonzero(terms, axis=0) > 2).tolist():
        sums[tuple(index)] = math.fsum(terms[(slice(None), *index)].tolist())
    return sums


def _centroids(degrees: np.ndarray, rules: RuleBase, defuzz: DefuzzConfig) -> np.ndarray:
    """Defuzzified centroid of each value's fired rules, from S x f x n degrees."""
    activation = np.zeros_like(degrees)
    for ant, cons in rules.mapping:
        np.maximum(activation[cons], degrees[ant], out=activation[cons])
    centers = np.asarray(defuzz.centers)[:, None, None]
    denominator = _column_fsums(activation)
    numerator = _column_fsums(centers * activation)
    with np.errstate(divide="ignore", invalid="ignore"):
        score = numerator / denominator
    # min(max(score, lo), hi) as Python evaluates it, signed zeros included
    lo, hi = defuzz.centers[0], defuzz.centers[-1]
    score = np.where(lo > score, lo, score)
    score = np.where(hi < score, hi, score)
    return np.where(denominator == 0.0, defuzz.empty_activation_value, score)


def _non_finite(value: float) -> ContractViolationError:
    return ContractViolationError(f"expected a finite value, got {value!r}")


def score_columns(
    rows: np.ndarray | Sequence[Sequence[float]],
    partition: FuzzyPartition,
    rules: RuleBase | None = None,
    defuzz: DefuzzConfig | None = None,
    mode: str = MODE_INFERENCE,
) -> list[float]:
    """Score every column of an n x F matrix of instance values.

    Each score is equal bit for bit to :func:`relevance_inference` of its
    column in ``inference`` mode and to the ``math.fsum`` mean of
    :func:`relevance_sum` over the fuzzified column in ``sum`` mode.  The
    error raised is the one a loop over the columns would raise first: an
    unknown mode, no rows, a non-finite ``rows[0, 0]`` (inference only),
    the rule count, the center count, then the first non-finite value in
    column order.

    Columns run in blocks of at most ``_SCORE_BLOCK`` values, each copied
    into a contiguous f x n array, so every step is a few numpy calls per
    block whatever the number of columns.
    """
    if mode not in (MODE_INFERENCE, MODE_SUM):
        raise ContractViolationError(f"unknown relevance mode {mode!r}")
    x = np.asarray(rows, dtype=float)
    n, n_features = x.shape
    if n == 0:
        raise ContractViolationError("relevance needs at least one instance value")
    if n_features == 0:
        return []
    if mode == MODE_INFERENCE:
        if rules is None:
            rules = RuleBase.identity(partition.n_sets)
        if defuzz is None:
            defuzz = DefuzzConfig.uniform(partition.n_sets)
        # the scalar path fuzzifies the first value before it checks any shape
        if not math.isfinite(x[0, 0]):
            raise _non_finite(float(x[0, 0]))
        if partition.n_sets != rules.size:
            raise ContractViolationError(
                f"membership vector has {partition.n_sets} entries but the rule base has {rules.size} rules"
            )
        if rules.size != len(defuzz.centers):
            raise ContractViolationError(
                f"activation vector has {rules.size} entries but there are {len(defuzz.centers)} centers"
            )
    finite = np.isfinite(x)
    if not finite.all():
        j = int(np.flatnonzero(~finite.all(axis=0))[0])
        raise _non_finite(float(x[np.flatnonzero(~finite[:, j])[0], j]))

    scores: list[float] = []
    width = max(1, _SCORE_BLOCK // n)
    for start in range(0, n_features, width):
        block = np.ascontiguousarray(x[:, start : start + width].T)
        degrees = _degrees(block, partition)
        if mode == MODE_SUM:
            per_value = _column_fsums(degrees)
        else:
            per_value = _centroids(degrees, rules, defuzz)
        scores.extend(math.fsum(values) / n for values in per_value.tolist())
    return scores


def score_feature(
    values: Sequence[float],
    partition: FuzzyPartition,
    rules: RuleBase | None = None,
    defuzz: DefuzzConfig | None = None,
    mode: str = MODE_INFERENCE,
) -> float:
    """Per-feature score: :func:`score_columns` of one column of values."""
    column = np.asarray(values, dtype=float)
    return score_columns(column[:, None], partition, rules, defuzz, mode)[0]


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
