"""Layered fuzzy network: each input feature is fuzzified against one
uniform partition, and the concatenated degrees flow through a chain of
averaging weight layers down to a single output node.

Weights are deterministic 1/(fan-in), so each layer computes the mean of its
inputs; they stay settable for experimentation but are never trained.
Propagation is read-only.

The shape alone fixes the operation counters: :func:`cost` computes them in
closed form, and :meth:`DynamicFuzzyNetwork.propagate`, which counts them as
it runs, is the reference it is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, ContractViolationError
from .fuzzy import fuzzify, make_uniform_partition

MIN_LAYERS = 4  # input, fuzzy, at least one hidden, output


@dataclass
class PropagationStats:
    """Operation counters for one forward pass.

    ``mf_evals`` counts membership-function evaluations (the per-feature
    cost term); ``hidden_ops`` counts multiply-accumulate operations in the
    weight layers (the aggregation cost term).
    """

    mf_evals: int = 0
    hidden_ops: int = 0


def _check_shape(n_features: int, n_sets: int, n_layers: int) -> None:
    if not isinstance(n_features, int) or n_features < 1:
        raise ConfigurationError(f"need at least 1 feature, got {n_features!r}")
    if not isinstance(n_sets, int) or n_sets < 2:
        raise ConfigurationError(f"need at least 2 fuzzy sets per feature, got {n_sets!r}")
    if not isinstance(n_layers, int) or n_layers < MIN_LAYERS:
        raise ConfigurationError(f"need at least {MIN_LAYERS} layers, got {n_layers!r}")


def cost(n_features: int, n_sets: int, n_layers: int, passes: int = 1) -> PropagationStats:
    """Counters of ``passes`` forward passes, computed from the shape alone.

    Equals what :meth:`DynamicFuzzyNetwork.propagate` counts, one membership
    evaluation per fuzzy node and one multiply-accumulate per weight entry,
    without building the network: ``mf_evals = S*F`` and
    ``hidden_ops = S*F**2 + (L-4)*F**2 + F`` per pass.
    """
    _check_shape(n_features, n_sets, n_layers)
    return PropagationStats(
        mf_evals=passes * n_sets * n_features,
        hidden_ops=passes * (n_sets * n_features**2 + (n_layers - 4) * n_features**2 + n_features),
    )


class DynamicFuzzyNetwork:
    """Input, fuzzy, hidden and output layers.

    ``n_layers`` counts all layers, so ``n_layers - 3`` hidden layers of
    width ``n_features`` sit between the fuzzy layer and the single output
    node.  Every feature is fuzzified against the same uniform partition of
    ``n_sets`` sets.
    """

    def __init__(self, n_features: int, n_sets: int = 3, n_layers: int = MIN_LAYERS) -> None:
        _check_shape(n_features, n_sets, n_layers)
        self.n_features = n_features
        self.n_sets = n_sets
        self.n_layers = n_layers
        self.partition = make_uniform_partition(n_sets)
        # node counts from the fuzzy layer down to the single output node
        widths = [n_sets * n_features] + [n_features] * (n_layers - 3) + [1]
        self.weights = [
            np.full((rows, cols), 1.0 / cols) for cols, rows in zip(widths, widths[1:])
        ]

    @property
    def fuzzy_width(self) -> int:
        return self.n_sets * self.n_features

    @property
    def n_hidden_layers(self) -> int:
        return self.n_layers - 3

    def propagate(self, x: Sequence[float]) -> tuple[float, list[tuple[float, ...]], PropagationStats]:
        """Forward pass; returns (output, per-layer vectors, counters).

        The vectors list starts with the fuzzy layer, then one vector per
        hidden layer, ending with the length-1 output layer.
        """
        if len(x) != self.n_features:
            raise ContractViolationError(f"expected {self.n_features} inputs, got {len(x)}")
        degrees: list[float] = []
        for value in x:
            degrees.extend(fuzzify(float(value), self.partition).degrees)
        stats = PropagationStats(mf_evals=len(degrees))
        vector = np.asarray(degrees, dtype=float)
        layers = [tuple(degrees)]
        for weight in self.weights:
            if weight.shape[1] != vector.shape[0]:
                raise ContractViolationError(
                    f"weight layer expects width {weight.shape[1]}, got {vector.shape[0]}"
                )
            vector = weight @ vector
            stats.hidden_ops += weight.shape[0] * weight.shape[1]
            layers.append(tuple(float(v) for v in vector))
        return float(vector[0]), layers, stats
