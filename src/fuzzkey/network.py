"""Layered fuzzy network: input features fan out into per-feature fuzzy
partitions, whose concatenated degrees flow through a chain of averaging
weight layers down to a single output node.

Weights are deterministic 1/(fan-in), so each layer computes the mean of its
inputs; they stay settable for experimentation but are never trained.
Propagation is read-only; the structural edit methods mutate the network and
require exclusive access.

The shape alone fixes the operation counters: :func:`cost` computes them in
closed form, and :meth:`DynamicFuzzyNetwork.propagate`, which counts them as
it runs, is the reference it is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from .errors import ConfigurationError, ContractViolationError
from .fuzzy import clamp01, fuzzify, make_uniform_partition

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


def layer_widths(n_features: int, n_sets: int, n_layers: int) -> list[int]:
    """Node counts from the fuzzy layer down to the single output node."""
    return [n_sets * n_features] + [n_features] * (n_layers - 3) + [1]


def cost(n_features: int, n_sets: int, n_layers: int, passes: int = 1) -> PropagationStats:
    """Counters of ``passes`` forward passes, computed from the shape alone.

    Equals what :meth:`DynamicFuzzyNetwork.propagate` counts, one membership
    evaluation per fuzzy node and one multiply-accumulate per weight entry,
    without building the network: ``mf_evals = S*F`` and
    ``hidden_ops = S*F**2 + (L-4)*F**2 + F`` per pass.
    """
    _check_shape(n_features, n_sets, n_layers)
    widths = layer_widths(n_features, n_sets, n_layers)
    return PropagationStats(
        mf_evals=passes * widths[0],
        hidden_ops=passes * sum(cols * rows for cols, rows in zip(widths, widths[1:])),
    )


class PatternRegistry:
    """Groups recorded instances by fuzzy signature.

    A signature is the tuple of per-feature winning set labels; instances
    sharing a signature are "similar patterns" and land in the same group.
    """

    def __init__(self) -> None:
        self.groups: dict[tuple[str, ...], list[Hashable]] = {}

    def record(self, signature: Sequence[str], instance_id: Hashable) -> None:
        self.groups.setdefault(tuple(signature), []).append(instance_id)

    def group(self, signature: Sequence[str]) -> list[Hashable]:
        return list(self.groups.get(tuple(signature), []))

    def total_recorded(self) -> int:
        return sum(len(members) for members in self.groups.values())

    def clear(self) -> None:
        self.groups.clear()

    def __len__(self) -> int:
        return len(self.groups)


class DynamicFuzzyNetwork:
    """Input, fuzzy, hidden and output layers with structural edit support.

    ``n_layers`` counts all layers, so ``n_layers - 3`` hidden layers of
    width ``n_features`` sit between the fuzzy layer and the single output
    node.
    """

    def __init__(self, n_features: int, n_sets: int = 3, n_layers: int = MIN_LAYERS) -> None:
        _check_shape(n_features, n_sets, n_layers)
        self.n_sets = n_sets
        self.n_layers = n_layers
        self.partitions = [make_uniform_partition(n_sets) for _ in range(n_features)]
        self.registry = PatternRegistry()
        self._rebuild_weights()

    @property
    def n_features(self) -> int:
        return len(self.partitions)

    @property
    def fuzzy_width(self) -> int:
        return sum(p.n_sets for p in self.partitions)

    @property
    def n_hidden_layers(self) -> int:
        return self.n_layers - 3

    def _rebuild_weights(self) -> None:
        widths = layer_widths(self.n_features, self.n_sets, self.n_layers)
        self.weights = [
            np.full((rows, cols), 1.0 / cols) for cols, rows in zip(widths, widths[1:])
        ]

    def propagate(self, x: Sequence[float]) -> tuple[float, list[tuple[float, ...]], PropagationStats]:
        """Forward pass; returns (output, per-layer vectors, counters).

        The vectors list starts with the fuzzy layer, then one vector per
        hidden layer, ending with the length-1 output layer.
        """
        if len(x) != self.n_features:
            raise ContractViolationError(f"expected {self.n_features} inputs, got {len(x)}")
        degrees: list[float] = []
        for value, partition in zip(x, self.partitions):
            degrees.extend(fuzzify(clamp01(float(value)), partition).degrees)
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

    def update_membership_functions(self, n_sets: int) -> None:
        """Replace every feature's partition with a fresh uniform one.

        The first weight layer is rebuilt for the new fuzzy width and the
        registry is cleared: old signatures are no longer comparable.
        """
        _check_shape(self.n_features, n_sets, self.n_layers)
        self.n_sets = n_sets
        self.partitions = [make_uniform_partition(n_sets) for _ in range(self.n_features)]
        self._rebuild_weights()
        self.registry.clear()

    def update_nodes(self, add: Sequence[int] = (), remove: Sequence[int] = ()) -> None:
        """Insert and delete feature nodes.

        ``remove`` holds distinct current feature positions and is applied
        first; it must leave at least one feature.  ``add`` holds insertion
        positions into the post-removal list, applied in order.  All weight
        layers are rebuilt and the registry cleared.
        """
        remove = list(remove)
        if len(set(remove)) != len(remove):
            raise ContractViolationError(f"remove positions must be distinct, got {remove}")
        for position in remove:
            if not 0 <= position < self.n_features:
                raise ContractViolationError(
                    f"remove position {position} outside 0..{self.n_features - 1}"
                )
        if len(remove) == self.n_features:
            raise ConfigurationError("cannot remove every feature")
        partitions = [p for i, p in enumerate(self.partitions) if i not in set(remove)]
        for position in add:
            if not 0 <= position <= len(partitions):
                raise ContractViolationError(
                    f"add position {position} outside 0..{len(partitions)}"
                )
            partitions.insert(position, make_uniform_partition(self.n_sets))
        self.partitions = partitions
        self._rebuild_weights()
        self.registry.clear()

    def signature(self, x: Sequence[float]) -> tuple[str, ...]:
        """Per-feature winning set labels; ties go to the lowest set index."""
        if len(x) != self.n_features:
            raise ContractViolationError(f"expected {self.n_features} inputs, got {len(x)}")
        labels = []
        for value, partition in zip(x, self.partitions):
            mv = fuzzify(clamp01(float(value)), partition)
            best = max(range(partition.n_sets), key=lambda j: (mv[j], -j))
            labels.append(partition.sets[best].label)
        return tuple(labels)

    def record_pattern(self, instance_id: Hashable, x: Sequence[float]) -> tuple[str, ...]:
        """File an instance under its fuzzy signature; returns the signature."""
        sig = self.signature(x)
        self.registry.record(sig, instance_id)
        return sig
