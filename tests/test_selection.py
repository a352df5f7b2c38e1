import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzkey import (
    ContractViolationError,
    DefuzzConfig,
    FuzzyPartition,
    MembershipFunction,
    RelevanceScore,
    RuleBase,
    defuzzify_centroid,
    evaluate_rules,
    fuzzify,
    make_uniform_partition,
    rank_scores,
    relevance_inference,
    relevance_sum,
    score_columns,
    score_feature,
    score_features,
    select_threshold,
    select_topk,
)
from fuzzkey import selection

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

    def test_sum_of_zero_vector(self):
        assert relevance_sum((0.0, 0.0, 0.0)) == 0.0

    def test_sum_of_half_half(self):
        assert relevance_sum((0.5, 0.5, 0.0)) == 1.0

    def test_sum_is_constant_under_uniform_partitions(self):
        # Ruspini partitions make the degree sum identically 1, so sum-mode
        # ranking cannot discriminate there; documented behaviour.
        rng = random.Random(5)
        for _ in range(100):
            mv = fuzzify(rng.random(), PARTITION)
            assert relevance_sum(mv) == pytest.approx(1.0, abs=1e-9)

    def test_sum_mode_feature_scoring_averages_instances(self):
        values = [0.1, 0.4, 0.9]
        expected = math.fsum(relevance_sum(fuzzify(v, PARTITION)) for v in values) / 3
        assert score_feature(values, PARTITION, mode="sum") == expected


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


@st.composite
def partitions(draw):
    """Valid partitions whose triangles may overlap, so more than two sets fire."""
    n_sets = draw(st.integers(min_value=2, max_value=6))
    peaks = sorted(draw(st.lists(unit, min_size=n_sets, max_size=n_sets, unique=True)))
    sets = [
        MembershipFunction.left_shoulder(
            peaks[0], draw(st.floats(min_value=peaks[0], max_value=1.0, exclude_min=True))
        )
    ]
    for b in peaks[1:-1]:
        a = draw(st.floats(min_value=0.0, max_value=b, exclude_max=True))
        c = draw(st.floats(min_value=b, max_value=1.0, exclude_min=True))
        sets.append(MembershipFunction.triangle(a, b, c))
    sets.append(
        MembershipFunction.right_shoulder(
            draw(st.floats(min_value=0.0, max_value=peaks[-1], exclude_max=True)), peaks[-1]
        )
    )
    return FuzzyPartition(tuple(sets))


@st.composite
def scoring_setups(draw):
    """A partition, rule base and centers, plus a strategy for values."""
    partition = draw(partitions())
    n = partition.n_sets
    index = st.integers(min_value=0, max_value=n - 1)
    rules = RuleBase(tuple(draw(st.lists(st.tuples(index, index), min_size=n, max_size=n))))
    centers = sorted(draw(st.lists(unit, min_size=n, max_size=n)))
    defuzz = DefuzzConfig(tuple(centers), draw(unit))
    breakpoints = [p for mf in partition.sets for p in mf.breakpoints()]
    value = st.one_of(
        st.sampled_from(breakpoints + [0.0, 1.0, -0.0]),
        st.floats(min_value=-2.0, max_value=3.0),
        st.floats(min_value=-1e300, max_value=1e300),
    )
    return partition, rules, defuzz, value


@st.composite
def scoring_cases(draw):
    partition, rules, defuzz, value = draw(scoring_setups())
    values = draw(st.lists(value, min_size=1, max_size=40))
    return values, partition, rules, defuzz


@st.composite
def matrix_cases(draw):
    """An n x F matrix and a block size that n * F crosses, down to n > block."""
    partition, rules, defuzz, value = draw(scoring_setups())
    n = draw(st.integers(min_value=1, max_value=12))
    n_features = draw(st.integers(min_value=1, max_value=10))
    cells = draw(st.lists(value, min_size=n * n_features, max_size=n * n_features))
    block = draw(st.integers(min_value=1, max_value=2 * n * n_features))
    return np.array(cells).reshape(n, n_features), partition, rules, defuzz, block


def assert_bitwise(fast, reference):
    assert fast == reference and fast.hex() == reference.hex()


def scores_or_error(call):
    """``call()``'s scores as hex strings, or the message of its error."""
    try:
        return [score.hex() for score in call()]
    except ContractViolationError as exc:
        return str(exc)


def sum_mode_reference(values, partition):
    return math.fsum(relevance_sum(fuzzify(v, partition)) for v in values) / len(values)


class TestVectorizedKernel:
    """score_feature and score_columns against the public scalar functions, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(scoring_cases())
    def test_inference_matches_scalar_reference(self, case):
        values, partition, rules, defuzz = case
        fast = score_feature(values, partition, rules, defuzz)
        assert_bitwise(fast, relevance_inference(values, partition, rules, defuzz))
        assert_bitwise(score_feature(np.array(values), partition, rules, defuzz), fast)

    @settings(max_examples=200, deadline=None)
    @given(scoring_cases())
    def test_sum_mode_matches_scalar_reference(self, case):
        values, partition, _, _ = case
        expected = math.fsum(relevance_sum(fuzzify(v, partition)) for v in values) / len(values)
        assert_bitwise(score_feature(values, partition, mode="sum"), expected)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=2, max_value=9), st.lists(unit, min_size=1, max_size=60))
    def test_uniform_partition_defaults_match(self, n_sets, values):
        partition = make_uniform_partition(n_sets)
        assert_bitwise(score_feature(values, partition), relevance_inference(values, partition))

    @pytest.mark.parametrize(
        "center, value",
        [(0.9654801388982029, 0.4787206222091431), (0.8364614512743888, 0.4921177362331116)],
        ids=["above", "below"],
    )
    def test_centroid_clamp_matches_scalar_reference(self, center, value):
        # equal centers: the unclamped centroid lands one ulp above or below
        partition = make_uniform_partition(2)
        defuzz = DefuzzConfig((center, center))
        fast = score_feature([value], partition, defuzz=defuzz)
        assert_bitwise(fast, relevance_inference([value], partition, defuzz=defuzz))
        assert fast == center

    @pytest.mark.parametrize(
        "values, rules, centers",
        [
            ([], None, None),
            ([0.5, float("nan")], None, None),
            ([float("inf"), 0.5], None, None),
            ([0.5], RuleBase.identity(2), None),
            ([0.5], None, (0.0, 1.0)),
            ([float("nan")], RuleBase.identity(2), None),
            ([0.5, float("nan")], RuleBase.identity(2), None),
            ([0.5, -float("inf")], RuleBase.identity(2), (0.0, 1.0)),
        ],
        ids=[
            "empty",
            "nan",
            "inf-first",
            "rule-count",
            "center-count",
            "nan-before-rule-count",
            "rule-count-before-nan",
            "rule-count-before-center-count",
        ],
    )
    def test_inference_errors_match_scalar_reference(self, values, rules, centers):
        defuzz = DefuzzConfig(centers) if centers is not None else None
        with pytest.raises(ContractViolationError) as reference:
            relevance_inference(values, PARTITION, rules, defuzz)
        with pytest.raises(ContractViolationError) as fast:
            score_feature(values, PARTITION, rules, defuzz)
        assert str(fast.value) == str(reference.value)

    @pytest.mark.parametrize("values", [[0.5, float("nan")], [float("-inf")]], ids=["nan", "inf"])
    def test_sum_mode_errors_match_scalar_reference(self, values):
        with pytest.raises(ContractViolationError) as reference:
            [relevance_sum(fuzzify(v, PARTITION)) for v in values]
        with pytest.raises(ContractViolationError) as fast:
            score_feature(values, PARTITION, mode="sum")
        assert str(fast.value) == str(reference.value)

    def test_sum_mode_empty_input(self):
        with pytest.raises(ContractViolationError, match="at least one instance value"):
            score_feature([], PARTITION, mode="sum")

    @settings(max_examples=200, deadline=None)
    @given(matrix_cases())
    def test_columns_match_scalar_reference(self, case):
        matrix, partition, rules, defuzz, block = case
        with mock.patch.object(selection, "_SCORE_BLOCK", block):
            fast = score_columns(matrix, partition, rules, defuzz)
        assert len(fast) == matrix.shape[1]
        for j, score in enumerate(fast):
            assert_bitwise(score, relevance_inference(matrix[:, j].tolist(), partition, rules, defuzz))

    @settings(max_examples=150, deadline=None)
    @given(matrix_cases())
    def test_sum_mode_columns_match_scalar_reference(self, case):
        matrix, partition, _, _, block = case
        with mock.patch.object(selection, "_SCORE_BLOCK", block):
            fast = score_columns(matrix, partition, mode="sum")
        for j, score in enumerate(fast):
            assert_bitwise(score, sum_mode_reference(matrix[:, j].tolist(), partition))

    def test_fsum_fallback_runs_inside_blocks(self):
        # three sets overlap at every interior value, so each per-value sum
        # has more than two nonzero terms and takes math.fsum
        partition = FuzzyPartition(
            (
                MembershipFunction.left_shoulder(0.0, 0.9),
                MembershipFunction.triangle(0.1, 0.5, 0.9),
                MembershipFunction.right_shoulder(0.1, 0.95),
            )
        )
        rng = np.random.default_rng(8)
        matrix = rng.uniform(0.15, 0.85, size=(9, 7))
        defuzz = DefuzzConfig((0.1, 0.7, 0.8))
        degrees = selection._degrees(np.ascontiguousarray(matrix.T), partition)
        assert (np.count_nonzero(degrees, axis=0) > 2).all()
        with mock.patch.object(selection, "_SCORE_BLOCK", 20):
            fast = score_columns(matrix, partition, defuzz=defuzz)
            fast_sum = score_columns(matrix, partition, mode="sum")
        for j in range(7):
            column = matrix[:, j].tolist()
            assert_bitwise(fast[j], relevance_inference(column, partition, defuzz=defuzz))
            assert_bitwise(fast_sum[j], sum_mode_reference(column, partition))

    @pytest.mark.parametrize(
        "shape", [(70, 470), (selection._SCORE_BLOCK + 3, 2)], ids=["two-blocks", "column-per-block"]
    )
    def test_full_block_size_matches_scalar_reference(self, shape):
        # n * F crosses the real block size, or n alone exceeds it
        partition = make_uniform_partition(5)
        defuzz = DefuzzConfig((0.0, 0.1, 0.3, 0.9, 1.0))
        matrix = np.random.default_rng(9).uniform(-0.05, 1.05, size=shape)
        fast = score_columns(matrix, partition, defuzz=defuzz)
        for j in range(shape[1]):
            assert_bitwise(fast[j], relevance_inference(matrix[:, j].tolist(), partition, defuzz=defuzz))

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
        st.sampled_from([None, RuleBase.identity(2)]),
        st.sampled_from([None, (0.0, 1.0)]),
        st.sampled_from(["inference", "sum"]),
    )
    def test_column_errors_match_the_column_loop(self, columns, rules, centers, mode):
        matrix = np.array(columns).T
        defuzz = DefuzzConfig(centers) if centers is not None else None
        if mode == "sum":
            expected = scores_or_error(lambda: [sum_mode_reference(c, PARTITION) for c in columns])
        else:
            expected = scores_or_error(
                lambda: [relevance_inference(c, PARTITION, rules, defuzz) for c in columns]
            )
        with mock.patch.object(selection, "_SCORE_BLOCK", 4):
            got = scores_or_error(lambda: score_columns(matrix, PARTITION, rules, defuzz, mode))
        assert got == expected

    @pytest.mark.parametrize("mode", ["inference", "sum"])
    def test_score_features_takes_ragged_columns(self, mode):
        columns = [[0.1, 0.7], [0.4], [0.9, 0.2, 0.55]]
        scores = score_features(columns, PARTITION, mode=mode)
        assert [s.feature_id for s in scores] == [0, 1, 2]
        for column, score in zip(columns, scores):
            assert score.mode == mode
            if mode == "sum":
                assert_bitwise(score.score, sum_mode_reference(column, PARTITION))
            else:
                assert_bitwise(score.score, relevance_inference(column, PARTITION))

    @pytest.mark.parametrize("mode", ["inference", "sum"])
    def test_columns_without_rows_or_columns(self, mode):
        with pytest.raises(ContractViolationError, match="at least one instance value"):
            score_columns(np.empty((0, 3)), PARTITION, mode=mode)
        assert score_columns(np.empty((4, 0)), PARTITION, mode=mode) == []

    def test_unknown_mode_comes_first(self):
        with pytest.raises(ContractViolationError, match="unknown relevance mode 'max'"):
            score_columns(np.empty((0, 3)), PARTITION, mode="max")
