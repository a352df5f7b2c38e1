import functools
import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fuzzkey import (
    ContractViolationError,
    DefuzzConfig,
    FuzzkeyError,
    RelevanceScore,
    RuleBase,
    defuzzify_centroid,
    evaluate_rules,
    fuzzify,
    make_uniform_partition,
    rank_scores,
    relevance_inference,
    score_columns,
    select_threshold,
    select_topk,
)
from fuzzkey import selection
from fuzzkey.fuzzy import uniform_breakpoints
from fuzzkey.pipeline import MAX_SETS

PARTITION = make_uniform_partition(3)
RULES = RuleBase.identity(3)
Y = DefuzzConfig.uniform(3)


def crisp(value):
    return defuzzify_centroid(evaluate_rules(fuzzify(value, PARTITION), RULES), Y)


class TestRelevance:
    def test_single_instance_at_medium_peak(self):
        assert relevance_inference([0.5], PARTITION) == 0.5

    def test_mean_of_extremes(self):
        assert relevance_inference([0.0, 1.0], PARTITION) == 0.5

    def test_mid_slope_instance(self):
        assert relevance_inference([0.375], PARTITION) == 0.25

    def test_empty_values_rejected(self):
        with pytest.raises(ContractViolationError):
            relevance_inference([], PARTITION)

    def test_sum_is_constant_under_uniform_partitions(self):
        # Ruspini partitions make the degree sum identically 1, so a relevance
        # summing the degrees could not discriminate between features.
        rng = random.Random(5)
        for n_sets in range(2, 8):
            partition = make_uniform_partition(n_sets)
            for _ in range(100):
                mv = fuzzify(rng.random(), partition)
                assert math.fsum(mv.degrees) == pytest.approx(1.0, abs=1e-9)


class TestSelect:
    SCORES = [RelevanceScore(0, 0.9), RelevanceScore(1, 0.2), RelevanceScore(2, 0.5)]

    def test_threshold_selects_and_ranks(self):
        result = select_threshold(self.SCORES, 0.5)
        assert result.selected == (0, 2)
        assert [fid for fid, _ in result.ranked] == [0, 2, 1]
        assert result.tau == 0.5

    def test_vacuous_threshold(self):
        assert select_threshold(self.SCORES, 0.0).selected == (0, 2, 1)

    def test_threshold_nobody_clears(self):
        assert select_threshold([RelevanceScore(0, 0.1)], 0.5).selected == ()

    def test_topk_picks_best_two(self):
        result = select_topk(self.SCORES, 2)
        assert result.selected == (0, 2)
        assert result.k == 2

    def test_topk_zero(self):
        assert select_topk(self.SCORES, 0).selected == ()

    def test_topk_tie_break_low_index(self):
        scores = [RelevanceScore(0, 0.5), RelevanceScore(1, 0.5)]
        assert select_topk(scores, 1).selected == (0,)

    def test_topk_clamps_to_feature_count(self):
        assert select_topk(self.SCORES, 99).selected == (0, 2, 1)

    def test_topk_negative_k(self):
        with pytest.raises(ContractViolationError):
            select_topk(self.SCORES, -1)

    def test_topk_bool_k(self):
        with pytest.raises(ContractViolationError, match=r"^k must be a nonnegative integer, got True$"):
            select_topk(self.SCORES, True)

    def test_threshold_matches_topk_of_clearers(self):
        rng = random.Random(77)
        for _ in range(200):
            scores = [RelevanceScore(i, rng.random()) for i in range(rng.randint(1, 10))]
            tau = rng.random()
            by_threshold = select_threshold(scores, tau)
            m = sum(1 for s in scores if s.score >= tau)
            assert by_threshold.selected == select_topk(scores, m).selected

    def test_permutation_equivariance(self):
        rng = random.Random(13)
        base = [rng.random() for _ in range(6)]
        ranked = rank_scores([RelevanceScore(i, s) for i, s in enumerate(base)])
        perm = list(range(6))
        rng.shuffle(perm)
        permuted = [RelevanceScore(i, base[perm[i]]) for i in range(6)]
        ranked_perm = rank_scores(permuted)
        # the same score multiset ranks in the same order of scores
        assert [s for _, s in ranked] == [s for _, s in ranked_perm]
        inverse = {perm[i]: i for i in range(6)}
        assert [fid for fid, _ in ranked_perm] == [inverse[fid] for fid, _ in ranked]


class TestMonotonicity:
    def test_dominated_multiset_never_scores_higher(self):
        rng = random.Random(99)
        strict_seen = 0
        for _ in range(2000):
            m = rng.randint(1, 10)
            lower = [rng.random() for _ in range(m)]
            upper = [min(v + rng.random() * 0.4, 1.0) for v in lower]
            score_low = relevance_inference(lower, PARTITION)
            score_high = relevance_inference(upper, PARTITION)
            assert score_high >= score_low
            crisp_low = [crisp(v) for v in lower]
            crisp_high = [crisp(v) for v in upper]
            assert all(h >= l for h, l in zip(crisp_high, crisp_low))
            if any(h > l for h, l in zip(crisp_high, crisp_low)):
                strict_seen += 1
                assert score_high > score_low
        assert strict_seen > 1000  # the suite actually exercises strictness

    def test_inference_scores_stay_within_center_range(self):
        rng = random.Random(4)
        for _ in range(100):
            values = [rng.random() for _ in range(rng.randint(1, 8))]
            score = relevance_inference(values, PARTITION)
            assert 0.0 <= score <= 1.0


def brute_force_topk(scores, k):
    # exact subset-sum argmax; combinations() yields id-sorted tuples in
    # lexicographic order, which matches the ascending-id tie rule
    exact = [Fraction(s.score) for s in scores]
    best, best_sum = None, None
    for subset in itertools.combinations(range(len(scores)), min(k, len(scores))):
        total = sum(exact[i] for i in subset)
        if best_sum is None or total > best_sum:
            best, best_sum = subset, total
    return set(best)


def test_topk_matches_exhaustive_enumeration():
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.randint(1, 8)
        scores = [RelevanceScore(i, rng.choice([0.1, 0.25, 0.5, 0.5, 0.9, rng.random()])) for i in range(n)]
        k = rng.randint(0, n)
        assert set(select_topk(scores, k).selected) == brute_force_topk(scores, k)


unit = st.floats(min_value=0.0, max_value=1.0)
# centers the config file can spell: signed zeros, a subnormal, the ends
center = st.one_of(unit, st.sampled_from([-0.0, 0.0, 5e-324, 1.0]))


# partitions are frozen, so one per set count serves every example
uniform_partition = functools.lru_cache(maxsize=None)(make_uniform_partition)


def reference(values, defuzz):
    """relevance_inference under the partition score_columns uses."""
    return relevance_inference(values, uniform_partition(len(defuzz.centers)), None, defuzz)


@st.composite
def uniform_setups(draw):
    """Centers for the uniform partition of S sets, plus a strategy for values.

    S runs from 2 to 60, or is MAX_SETS; centers are nondecreasing and often
    equal.  Values hit every kind of breakpoint, signed zeros, subnormals
    and both sides of [0, 1].
    """
    n_sets = draw(st.one_of(st.integers(min_value=2, max_value=60), st.just(MAX_SETS)))
    pool = draw(st.lists(center, min_size=1, max_size=6))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    centers = sorted(rng.choice(pool) if rng.random() < 0.5 else rng.random() for _ in range(n_sets))
    defuzz = DefuzzConfig(tuple(centers), draw(unit))
    value = st.one_of(
        st.sampled_from(uniform_breakpoints(n_sets) + [0.0, -0.0, 1.0, 5e-324, -5e-324]),
        st.floats(min_value=-2.0, max_value=3.0),
        st.floats(min_value=-1e300, max_value=1e300),
    )
    return defuzz, value


@st.composite
def scoring_cases(draw):
    defuzz, value = draw(uniform_setups())
    return draw(st.lists(value, min_size=1, max_size=40)), defuzz


@st.composite
def matrix_cases(draw):
    """An n x F matrix and a tile size that n * F crosses, down to n > tile."""
    defuzz, value = draw(uniform_setups())
    n = draw(st.integers(min_value=1, max_value=12))
    n_features = draw(st.integers(min_value=1, max_value=10))
    cells = draw(st.lists(value, min_size=n * n_features, max_size=n * n_features))
    block = draw(st.integers(min_value=1, max_value=2 * n * n_features))
    return np.array(cells).reshape(n, n_features), defuzz, block


def assert_bitwise(fast, reference):
    assert fast == reference and fast.hex() == reference.hex()


def scores_or_error(call):
    """``call()``'s scores as hex strings, or the type and message of its error."""
    try:
        return [score.hex() for score in call()]
    except FuzzkeyError as exc:
        return type(exc).__name__, str(exc)


class TestVectorizedKernel:
    """score_columns against the public scalar functions under the uniform
    partition and identity rules, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(scoring_cases())
    def test_inference_matches_scalar_reference(self, case):
        values, defuzz = case
        fast = score_columns(np.array(values)[:, None], defuzz)[0]
        assert_bitwise(fast, reference(values, defuzz))
        assert_bitwise(score_columns([[v] for v in values], defuzz)[0], fast)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=2, max_value=9), st.lists(unit, min_size=1, max_size=60))
    def test_uniform_partition_defaults_match(self, n_sets, values):
        fast = score_columns(np.array(values)[:, None], DefuzzConfig.uniform(n_sets))[0]
        assert_bitwise(fast, relevance_inference(values, make_uniform_partition(n_sets)))

    @pytest.mark.parametrize("n_sets", [2, 3, 7, 60, MAX_SETS])
    def test_every_breakpoint_matches_scalar_reference(self, n_sets):
        # each breakpoint and its two neighbouring floats, one column each
        points = np.array(uniform_breakpoints(n_sets))
        values = np.concatenate([points, np.nextafter(points, -1.0), np.nextafter(points, 2.0)])
        rng = np.random.default_rng(n_sets)
        defuzz = DefuzzConfig(tuple(np.sort(rng.choice([0.0, 0.3, 0.3, 1.0, rng.random()], n_sets))))
        fast = score_columns(values[None, :], defuzz)
        for value, score in zip(values.tolist(), fast):
            assert_bitwise(score, reference([value], defuzz))

    @pytest.mark.parametrize(
        "center, value",
        [(0.9654801388982029, 0.4787206222091431), (0.8364614512743888, 0.4921177362331116)],
        ids=["above", "below"],
    )
    def test_centroid_clamp_matches_scalar_reference(self, center, value):
        # equal centers: the unclamped centroid lands one ulp above or below
        defuzz = DefuzzConfig((center, center))
        fast = score_columns([[value]], defuzz)[0]
        assert_bitwise(fast, reference([value], defuzz))
        assert fast == center

    @pytest.mark.parametrize(
        "values, centers",
        [
            ([], (0.0, 0.5, 1.0)),
            ([0.5, float("nan")], (0.0, 0.5, 1.0)),
            ([float("inf"), 0.5], (0.0, 0.5, 1.0)),
            ([0.5], (0.5,)),
            ([float("nan")], (0.5,)),
        ],
        ids=["empty", "nan", "inf-first", "center-count", "center-count-before-nan"],
    )
    def test_inference_errors_match_scalar_reference(self, values, centers):
        defuzz = DefuzzConfig(centers)
        expected = scores_or_error(lambda: [reference(values, defuzz)])
        assert isinstance(expected, tuple)
        assert scores_or_error(lambda: score_columns(np.array(values).reshape(-1, 1), defuzz)) == expected

    @settings(max_examples=200, deadline=None)
    @given(matrix_cases())
    def test_columns_match_scalar_reference(self, case):
        matrix, defuzz, block = case
        with mock.patch.object(selection, "_SCORE_TILE", block):
            fast = score_columns(matrix, defuzz)
        assert len(fast) == matrix.shape[1]
        for j, score in enumerate(fast):
            assert_bitwise(score, reference(matrix[:, j].tolist(), defuzz))

    @settings(max_examples=150, deadline=None)
    @given(matrix_cases(), st.sampled_from(["contiguous", "transposed", "strided"]))
    @example((np.array([[-1.0, 2.0], [0.5, -0.0]]), Y, 1), "contiguous")
    @example((np.array([[-1.0, 2.0], [0.5, -0.0]]), Y, 4), "transposed")
    @example((np.array([[-1.0, 2.0], [0.5, -0.0]]), Y, 1), "strided")
    def test_input_is_never_written(self, case, layout):
        # the kernel clamps and rescales in buffers of its own; the input's
        # bytes, and for a strided view those between its values, stay
        matrix, defuzz, block = case
        n, n_features = matrix.shape
        if layout == "contiguous":
            base = rows = matrix.copy()
        elif layout == "transposed":
            base = matrix.T.copy()
            rows = base.T
        else:
            base = np.full((2 * n, 3 * n_features), 7.0)
            rows = base[1::2, ::3]
            rows[...] = matrix
        before = base.tobytes()
        with mock.patch.object(selection, "_SCORE_TILE", block):
            fast = score_columns(rows, defuzz)
        assert base.tobytes() == before
        for j, score in enumerate(fast):
            assert_bitwise(score, reference(matrix[:, j].tolist(), defuzz))

    @pytest.mark.parametrize(
        "shape", [(70, 470), (selection._SCORE_TILE + 3, 2)], ids=["two-blocks", "column-per-block"]
    )
    def test_full_block_size_matches_scalar_reference(self, shape):
        # n * F crosses the real tile size, or n alone exceeds it
        defuzz = DefuzzConfig((0.0, 0.1, 0.3, 0.9, 1.0))
        matrix = np.random.default_rng(9).uniform(-0.05, 1.05, size=shape)
        fast = score_columns(matrix, defuzz)
        for j in range(shape[1]):
            assert_bitwise(fast[j], reference(matrix[:, j].tolist(), defuzz))

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda n: st.lists(
                st.lists(
                    st.one_of(unit, st.sampled_from([float("nan"), float("inf"), -float("inf")])),
                    min_size=n,
                    max_size=n,
                ),
                min_size=1,
                max_size=6,
            )
        ),
        st.sampled_from([Y, DefuzzConfig((0.0, 1.0)), DefuzzConfig((0.5,))]),
    )
    def test_column_errors_match_the_column_loop(self, columns, defuzz):
        matrix = np.array(columns).T
        expected = scores_or_error(lambda: [reference(c, defuzz) for c in columns])
        with mock.patch.object(selection, "_SCORE_TILE", 4):
            got = scores_or_error(lambda: score_columns(matrix, defuzz))
        assert got == expected

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_a_non_finite_value_is_found_a_tile_at_a_time(self, order):
        # the first in column order; a mask of the whole matrix would take
        # 200 000 bytes
        matrix = np.random.default_rng(4).uniform(size=(1000, 200))
        matrix[999, 150], matrix[3, 199] = np.inf, np.nan
        matrix = np.asarray(matrix, order=order)
        tracemalloc.start()
        try:
            with pytest.raises(ContractViolationError, match=r"^expected a finite value, got inf$"):
                score_columns(matrix, Y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 << 10, peak

    @pytest.mark.parametrize(
        "defuzz", [Y, DefuzzConfig((0.0, 0.1, 0.3, 0.9, 1.0))], ids=["inference", "explicit"]
    )
    def test_columns_without_rows_or_columns(self, defuzz):
        with pytest.raises(ContractViolationError, match="at least one instance value"):
            score_columns(np.empty((0, 3)), defuzz)
        assert score_columns(np.empty((4, 0)), defuzz) == []
