import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fuzzkey import (
    ConfigurationError,
    ContractViolationError,
    DefuzzConfig,
    FuzzyPartition,
    MembershipFunction,
    MembershipVector,
    RuleBase,
    defuzzify_centroid,
    eval_membership,
    evaluate_rules,
    fuzzify,
    make_uniform_partition,
)

LOW = MembershipFunction.left_shoulder(0.25, 0.5, label="Low")
MEDIUM = MembershipFunction.triangle(0.25, 0.5, 0.75, label="Medium")
HIGH = MembershipFunction.right_shoulder(0.5, 0.75, label="High")
DEFAULT = FuzzyPartition((LOW, MEDIUM, HIGH))
Y = DefuzzConfig((0.0, 0.5, 1.0))


def interp_oracle(x, mf):
    # independent straight-line interpolation of the same shapes
    if mf.kind == "left-shoulder":
        xp, fp = [mf.a, mf.c], [1.0, 0.0]
    elif mf.kind == "triangle":
        xp, fp = [mf.a, mf.b, mf.c], [0.0, 1.0, 0.0]
    else:
        xp, fp = [mf.b, mf.c], [0.0, 1.0]
    return float(np.interp(x, xp, fp))


class TestEvalMembership:
    def test_left_shoulder_saturation(self):
        assert eval_membership(0.0, LOW) == 1.0

    def test_triangle_peak(self):
        assert eval_membership(0.5, MEDIUM) == 1.0

    def test_low_falling_slope(self):
        assert eval_membership(0.375, LOW) == 0.5

    def test_right_shoulder_saturation(self):
        assert eval_membership(1.0, HIGH) == 1.0

    def test_clamps_out_of_range_inputs(self):
        assert eval_membership(-3.0, LOW) == 1.0
        assert eval_membership(7.5, HIGH) == 1.0

    def test_rejects_non_finite_input(self):
        with pytest.raises(ContractViolationError):
            eval_membership(float("nan"), LOW)

    def test_malformed_shapes_rejected_at_construction(self):
        with pytest.raises(ConfigurationError):
            MembershipFunction.left_shoulder(0.5, 0.25)
        with pytest.raises(ConfigurationError):
            MembershipFunction.triangle(0.2, 0.2, 0.8)
        with pytest.raises(ConfigurationError):
            MembershipFunction.right_shoulder(0.9, 0.1)
        with pytest.raises(ConfigurationError):
            MembershipFunction.triangle(-0.1, 0.5, 0.8)

    @pytest.mark.parametrize(
        "kind, fields, width, peak, refusals",
        [
            (
                "left-shoulder",
                {"a": 0.2, "c": 0.7},
                0.7 - 0.2,
                0.2,
                [
                    ({"a": 0.7, "c": 0.2}, "left-shoulder requires a < c, got a=0.7, c=0.2"),
                    ({"a": 0.2, "c": 1.5}, "c must be a finite value in [0, 1], got 1.5"),
                    ({"a": "0.2", "c": 0.7}, "a must be numeric, got '0.2'"),
                    ({"a": True, "c": 0.7}, "a must be numeric, got True"),
                ],
            ),
            (
                "triangle",
                {"a": 0.1, "b": 0.7, "c": 0.9},
                0.9 - 0.7,
                0.7,
                [
                    ({"a": 0.1, "b": 0.9, "c": 0.7}, "triangle requires a < b < c, got a=0.1, b=0.9, c=0.7"),
                    ({"a": 0.1, "b": float("nan"), "c": 0.9}, "b must be a finite value in [0, 1], got nan"),
                    ({"a": 0.1, "b": 0.7, "c": None}, "c must be numeric, got None"),
                    ({"a": 0.1, "b": False, "c": 0.9}, "b must be numeric, got False"),
                ],
            ),
            (
                "right-shoulder",
                {"b": 0.3, "c": 0.4},
                0.4 - 0.3,
                0.4,
                [
                    ({"b": 0.4, "c": 0.4}, "right-shoulder requires b < c, got b=0.4, c=0.4"),
                    ({"b": -0.5, "c": 0.4}, "b must be a finite value in [0, 1], got -0.5"),
                    ({"b": 0.3, "c": [0.4]}, "c must be numeric, got [0.4]"),
                    ({"b": 0.3, "c": True}, "c must be numeric, got True"),
                ],
            ),
        ],
        ids=["left-shoulder", "triangle", "right-shoulder"],
    )
    def test_shape_contract(self, kind, fields, width, peak, refusals):
        mf = MembershipFunction(kind, **fields)
        assert mf.breakpoints() == tuple(fields.values())
        assert (mf.min_slope_width(), mf.peak_position()) == (width, peak)
        for bad, message in refusals:
            with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
                MembershipFunction(kind, **bad)
        message = f"unknown membership-function kind {kind.upper()!r}"
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            MembershipFunction(kind.upper(), **fields)

    def test_matches_interpolation_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            a, b, c = np.sort(rng.uniform(0, 1, size=3))
            if b - a < 1e-3 or c - b < 1e-3:
                continue
            mf = MembershipFunction.triangle(a, b, c)
            x = float(rng.uniform(0, 1))
            assert abs(eval_membership(x, mf) - interp_oracle(x, mf)) <= 1e-12

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_range_invariant(self, x):
        for mf in (LOW, MEDIUM, HIGH):
            assert 0.0 <= eval_membership(x, mf) <= 1.0

    def test_continuity_at_breakpoints(self):
        eps = 1e-6
        for mf in (LOW, MEDIUM, HIGH):
            bound = 10 * eps / mf.min_slope_width()
            for p in mf.breakpoints():
                lo = eval_membership(max(p - eps, 0.0), mf)
                hi = eval_membership(min(p + eps, 1.0), mf)
                assert abs(lo - hi) <= bound


class TestFuzzify:
    def test_left_extreme(self):
        assert fuzzify(0.0, DEFAULT).degrees == (1.0, 0.0, 0.0)

    def test_mid_slope(self):
        assert fuzzify(0.375, DEFAULT).degrees == (0.5, 0.5, 0.0)

    def test_medium_peak(self):
        assert fuzzify(0.5, DEFAULT).degrees == (0.0, 1.0, 0.0)

    def test_vector_length_matches_partition(self):
        assert len(fuzzify(0.3, DEFAULT)) == DEFAULT.n_sets

    def test_membership_vector_rejects_out_of_range(self):
        with pytest.raises(ContractViolationError):
            MembershipVector((0.5, 1.2))


class TestEvaluateRules:
    def test_identity_passthrough(self):
        rules = RuleBase.identity(3)
        assert evaluate_rules((0.7, 0.3, 0.0), rules) == (0.7, 0.3, 0.0)

    def test_zero_input(self):
        assert evaluate_rules((0.0, 0.0, 0.0), RuleBase.identity(3)) == (0.0, 0.0, 0.0)

    def test_permutation(self):
        reversed_rules = RuleBase(((0, 2), (1, 1), (2, 0)))
        assert evaluate_rules((0.2, 0.9, 0.4), reversed_rules) == (0.4, 0.9, 0.2)

    def test_max_aggregation_when_rules_share_consequent(self):
        rules = RuleBase(((0, 0), (1, 0), (2, 2)))
        assert evaluate_rules((0.2, 0.9, 0.4), rules) == (0.9, 0.0, 0.4)

    def test_length_mismatch(self):
        with pytest.raises(ContractViolationError):
            evaluate_rules((0.5, 0.5), RuleBase.identity(3))

    def test_bad_rule_index(self):
        with pytest.raises(ConfigurationError):
            RuleBase(((0, 3), (1, 1), (2, 2)))

    @pytest.mark.parametrize("index", [1.9, 1.0, "1", True])
    def test_rule_indices_must_be_integers(self, index):
        message = f"rule (0 -> {index!r}) needs integer set indices"
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            RuleBase(((0, index), (1, 0)))


class TestDefuzzify:
    def test_single_active_set_returns_its_center(self):
        assert defuzzify_centroid((0.0, 1.0, 0.0), Y) == 0.5

    def test_weighted_average(self):
        assert defuzzify_centroid((0.5, 0.5, 0.0), Y) == 0.25

    def test_empty_activation_convention(self):
        assert defuzzify_centroid((0.0, 0.0, 0.0), Y) == 0.0
        shifted = DefuzzConfig((0.0, 0.5, 1.0), empty_activation_value=0.25)
        assert defuzzify_centroid((0.0, 0.0, 0.0), shifted) == 0.25

    def test_paper_style_activation(self):
        assert defuzzify_centroid((0.7, 0.3, 0.0), Y) == pytest.approx(0.15, abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ContractViolationError):
            defuzzify_centroid((0.5, 0.5), Y)

    def test_centers_must_be_nondecreasing(self):
        with pytest.raises(ConfigurationError):
            DefuzzConfig((0.5, 0.2, 1.0))

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=3, max_size=3))
    def test_bounds_invariant(self, act):
        r = defuzzify_centroid(act, Y)
        if math.fsum(act) > 0:
            assert 0.0 <= r <= 1.0

    def test_shift_monotonicity(self):
        # moving activation mass to a higher-center set never lowers the centroid
        rng = np.random.default_rng(11)
        for _ in range(2000):
            act = rng.uniform(0, 1, size=3)
            j = rng.integers(0, 2)
            j2 = rng.integers(j + 1, 3)
            eps = rng.uniform(0, act[j])
            moved = act.copy()
            moved[j] -= eps
            moved[j2] += eps
            before = defuzzify_centroid(tuple(act), Y)
            after = defuzzify_centroid(tuple(moved), Y)
            assert after >= before - 1e-12


class TestUniformPartition:
    def test_default_three_set_layout(self):
        p = make_uniform_partition(3)
        low, med, high = p.sets
        assert (low.a, low.c) == (0.25, 0.5)
        assert (med.a, med.b, med.c) == (0.25, 0.5, 0.75)
        assert (high.b, high.c) == (0.5, 0.75)
        assert p.labels == ("Low", "Medium", "High")

    def test_two_set_layout(self):
        p = make_uniform_partition(2)
        left, right = p.sets
        assert (left.a, left.c) == (1 / 3, 2 / 3)
        assert (right.b, right.c) == (1 / 3, 2 / 3)

    def test_too_few_sets(self):
        with pytest.raises(ConfigurationError):
            make_uniform_partition(1)

    @pytest.mark.parametrize("n_sets", range(2, 8))
    def test_partition_of_unity(self, n_sets):
        p = make_uniform_partition(n_sets)
        for x in np.linspace(0, 1, 1000):
            total = math.fsum(fuzzify(float(x), p).degrees)
            assert abs(total - 1.0) <= 1e-9

    def test_partition_structure_validated(self):
        with pytest.raises(ConfigurationError):
            FuzzyPartition((MEDIUM, HIGH))  # must start with a left shoulder
        with pytest.raises(ConfigurationError):
            FuzzyPartition((LOW, HIGH, HIGH))  # peaks must strictly increase


def test_composition_is_nondecreasing():
    rules = RuleBase.identity(3)
    previous = -1.0
    for x in np.linspace(0, 1, 1000):
        crisp = defuzzify_centroid(evaluate_rules(fuzzify(float(x), DEFAULT), rules), Y)
        assert crisp >= previous - 1e-12
        previous = crisp
