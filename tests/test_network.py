import random

import pytest
from hypothesis import given, settings, strategies as st

from fuzzkey import ConfigurationError, ContractViolationError, DynamicFuzzyNetwork
from fuzzkey.network import cost


class TestInit:
    def test_dimension_chain(self):
        net = DynamicFuzzyNetwork(4, 3, 4)
        assert net.fuzzy_width == 12
        assert [w.shape for w in net.weights] == [(4, 12), (1, 4)]

    def test_minimal_network(self):
        net = DynamicFuzzyNetwork(1, 2, 4)
        assert net.fuzzy_width == 2
        assert [w.shape for w in net.weights] == [(1, 2), (1, 1)]

    def test_hidden_layer_count(self):
        net = DynamicFuzzyNetwork(3, 3, 6)
        assert net.n_hidden_layers == 3
        assert [w.shape for w in net.weights] == [(3, 9), (3, 3), (3, 3), (1, 3)]

    @pytest.mark.parametrize("kwargs", [dict(n_features=0), dict(n_sets=1), dict(n_layers=3)])
    def test_bad_shapes(self, kwargs):
        base = dict(n_features=2, n_sets=3, n_layers=4)
        base.update(kwargs)
        with pytest.raises(ConfigurationError):
            DynamicFuzzyNetwork(**base)


class TestPropagate:
    def test_counter_is_sets_times_features(self):
        net = DynamicFuzzyNetwork(4, 3, 4)
        _, _, stats = net.propagate([0.1, 0.4, 0.7, 0.9])
        assert stats.mf_evals == 12

    def test_hidden_ops_counts_multiply_accumulates(self):
        net = DynamicFuzzyNetwork(4, 3, 4)
        _, _, stats = net.propagate([0.0] * 4)
        assert stats.hidden_ops == 4 * 12 + 1 * 4

    def test_single_feature_mean_weights(self):
        net = DynamicFuzzyNetwork(1, 3, 4)
        output, layers, _ = net.propagate([0.5])
        assert layers[0] == (0.0, 1.0, 0.0)
        assert layers[1] == (pytest.approx(1 / 3),)
        assert output == pytest.approx(1 / 3)

    def test_two_feature_mean_weights(self):
        net = DynamicFuzzyNetwork(2, 3, 4)
        output, layers, _ = net.propagate([0.0, 1.0])
        assert layers[0] == (1.0, 0.0, 0.0, 0.0, 0.0, 1.0)
        assert layers[1] == (pytest.approx(1 / 3), pytest.approx(1 / 3))
        assert output == pytest.approx(1 / 3)

    def test_hidden_entries_equal_fuzzy_mean(self):
        rng = random.Random(3)
        for _ in range(25):
            n = rng.randint(1, 6)
            net = DynamicFuzzyNetwork(n, 3, 4)
            x = [rng.random() for _ in range(n)]
            _, layers, _ = net.propagate(x)
            mean = sum(layers[0]) / len(layers[0])
            for h in layers[1]:
                assert h == pytest.approx(mean)
                assert 0.0 <= h <= 1.0

    def test_linear_scaling_in_feature_count(self):
        for n in (1, 2, 5, 9):
            net = DynamicFuzzyNetwork(n, 4, 4)
            _, _, stats = net.propagate([0.5] * n)
            assert stats.mf_evals == 4 * n

    def test_out_of_range_inputs_clamped(self):
        net = DynamicFuzzyNetwork(2, 3, 4)
        clamped, _, _ = net.propagate([-1.0, 2.0])
        reference, _, _ = net.propagate([0.0, 1.0])
        assert clamped == reference

    def test_wrong_input_length(self):
        net = DynamicFuzzyNetwork(2, 3, 4)
        with pytest.raises(ContractViolationError):
            net.propagate([0.5])


class TestStructuralUpdates:
    def test_update_membership_functions_resizes(self):
        net = DynamicFuzzyNetwork(2, 3, 4)
        net.update_membership_functions(5)
        assert net.fuzzy_width == 10
        assert net.weights[0].shape == (2, 10)

    def test_update_same_size_resets_weights(self):
        net = DynamicFuzzyNetwork(2, 3, 4)
        net.weights[0][0, 0] = 123.0
        net.update_membership_functions(3)
        assert net.weights[0][0, 0] == pytest.approx(1 / 6)
        assert net.fuzzy_width == 6

    def test_update_membership_functions_too_few(self):
        net = DynamicFuzzyNetwork(2, 3, 4)
        with pytest.raises(ConfigurationError):
            net.update_membership_functions(1)

    def test_update_clears_registry(self):
        net = DynamicFuzzyNetwork(2, 3, 4)
        net.record_pattern("a", [0.1, 0.9])
        net.update_membership_functions(4)
        assert net.registry.total_recorded() == 0

    def test_remove_feature(self):
        net = DynamicFuzzyNetwork(3, 3, 4)
        net.update_nodes(remove=[1])
        assert net.n_features == 2
        assert net.fuzzy_width == 6

    def test_add_feature(self):
        net = DynamicFuzzyNetwork(1, 3, 4)
        net.update_nodes(add=[1])
        assert net.n_features == 2

    def test_remove_all_features(self):
        net = DynamicFuzzyNetwork(2, 3, 4)
        with pytest.raises(ConfigurationError):
            net.update_nodes(remove=[0, 1])

    def test_remove_out_of_range(self):
        net = DynamicFuzzyNetwork(2, 3, 4)
        with pytest.raises(ContractViolationError):
            net.update_nodes(remove=[5])

    def test_remove_duplicates_rejected(self):
        net = DynamicFuzzyNetwork(3, 3, 4)
        with pytest.raises(ContractViolationError):
            net.update_nodes(remove=[1, 1])

    def test_random_edit_sequences_keep_network_consistent(self):
        rng = random.Random(1234)
        for _ in range(50):
            net = DynamicFuzzyNetwork(rng.randint(1, 5), rng.randint(2, 5), rng.randint(4, 7))
            for _ in range(rng.randint(1, 8)):
                op = rng.choice(["sets", "add", "remove"])
                if op == "sets":
                    net.update_membership_functions(rng.randint(2, 6))
                elif op == "add":
                    net.update_nodes(add=[rng.randint(0, net.n_features)])
                elif net.n_features > 1:
                    net.update_nodes(remove=[rng.randint(0, net.n_features - 1)])
            x = [rng.random() for _ in range(net.n_features)]
            output, _, stats = net.propagate(x)  # must not raise
            assert stats.mf_evals == net.fuzzy_width
            assert 0.0 <= output <= 1.0


class TestCost:
    @given(st.integers(1, 12), st.integers(2, 7), st.integers(4, 8))
    def test_equals_propagate_counters(self, n_features, n_sets, n_layers):
        net = DynamicFuzzyNetwork(n_features, n_sets, n_layers)
        _, _, stats = net.propagate([0.5] * n_features)
        assert cost(n_features, n_sets, n_layers) == stats
        assert stats.mf_evals == n_sets * n_features
        assert stats.hidden_ops == (
            n_sets * n_features**2 + (n_layers - 4) * n_features**2 + n_features
        )

    @settings(deadline=None)
    @given(st.integers(1, 12), st.integers(2, 7), st.integers(4, 8), st.data())
    def test_equals_propagate_counters_after_edits(self, n_features, n_sets, n_layers, data):
        net = DynamicFuzzyNetwork(n_features, n_sets, n_layers)
        for op in data.draw(st.lists(st.sampled_from(["sets", "add", "remove"]), max_size=8)):
            if op == "sets":
                net.update_membership_functions(data.draw(st.integers(2, 7)))
            elif op == "add":
                net.update_nodes(add=[data.draw(st.integers(0, net.n_features))])
            elif net.n_features > 1:
                net.update_nodes(remove=[data.draw(st.integers(0, net.n_features - 1))])
        n = net.n_features
        x = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
        _, _, stats = net.propagate(x)
        assert cost(net.n_features, net.n_sets, net.n_layers) == stats

    @pytest.mark.parametrize("shape", [(0, 3, 4), (2, 1, 4), (2, 3, 3)])
    def test_bad_shapes(self, shape):
        with pytest.raises(ConfigurationError):
            cost(*shape)


class TestPatternRegistry:
    def test_signature_low_high(self):
        net = DynamicFuzzyNetwork(2, 3, 4)
        assert net.record_pattern("i1", [0.1, 0.9]) == ("Low", "High")

    def test_signature_medium_peak(self):
        net = DynamicFuzzyNetwork(1, 3, 4)
        assert net.record_pattern("i1", [0.5]) == ("Medium",)

    def test_similar_patterns_share_a_group(self):
        net = DynamicFuzzyNetwork(2, 3, 4)
        net.record_pattern("i1", [0.1, 0.9])
        net.record_pattern("i2", [0.2, 0.8])
        assert net.registry.group(("Low", "High")) == ["i1", "i2"]

    def test_ties_go_to_lowest_set_index(self):
        net = DynamicFuzzyNetwork(1, 3, 4)
        # 0.375 sits exactly between Low and Medium
        assert net.record_pattern("i1", [0.375]) == ("Low",)

    def test_group_sizes_sum_to_recorded_instances(self):
        rng = random.Random(9)
        net = DynamicFuzzyNetwork(3, 3, 4)
        for i in range(40):
            net.record_pattern(i, [rng.random() for _ in range(3)])
        assert net.registry.total_recorded() == 40
