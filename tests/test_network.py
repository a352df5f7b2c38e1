import random

import numpy as np
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
        # the weights are settable; the counters depend on the shape alone
        net = DynamicFuzzyNetwork(n_features, n_sets, n_layers)
        for index in data.draw(st.lists(st.integers(0, len(net.weights) - 1), max_size=8)):
            rows, cols = net.weights[index].shape
            size = rows * cols
            values = data.draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size))
            net.weights[index] = np.array(values).reshape(rows, cols)
        x = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n_features, max_size=n_features))
        _, _, stats = net.propagate(x)
        assert cost(n_features, n_sets, n_layers) == stats

    @pytest.mark.parametrize("shape", [(0, 3, 4), (2, 1, 4), (2, 3, 3)])
    def test_bad_shapes(self, shape):
        with pytest.raises(ConfigurationError):
            cost(*shape)
