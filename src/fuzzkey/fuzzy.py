"""Fuzzy inference core: shoulder/triangle membership functions over [0, 1],
fuzzification, rule evaluation with max aggregation, and centroid
defuzzification.

All values live on the unit interval; callers normalize first (see
:mod:`fuzzkey.ingest`).  Everything here is a pure function of immutable
inputs and safe to evaluate concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import ConfigurationError, ContractViolationError

LEFT_SHOULDER = "left-shoulder"
TRIANGLE = "triangle"
RIGHT_SHOULDER = "right-shoulder"

# each kind's breakpoint fields, in the strictly increasing order they must hold
_SHAPES = {
    LEFT_SHOULDER: ("a", "c"),
    TRIANGLE: ("a", "b", "c"),
    RIGHT_SHOULDER: ("b", "c"),
}


def _checked_unit(name: str, value) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be numeric, got {value!r}")
    v = float(value)
    if not math.isfinite(v) or not 0.0 <= v <= 1.0:
        raise ConfigurationError(f"{name} must be a finite value in [0, 1], got {value!r}")
    return v


def clamp01(x: float) -> float:
    """Clamp a finite value into [0, 1]."""
    if not math.isfinite(x):
        raise ContractViolationError(f"expected a finite value, got {x!r}")
    return 0.0 if x < 0.0 else 1.0 if x > 1.0 else float(x)


@dataclass(frozen=True)
class MembershipFunction:
    """One fuzzy set over the unit interval.

    :param kind: shape selector, one of ``left-shoulder``, ``triangle``,
        ``right-shoulder``.
    :param a: left breakpoint.  Start of the falling slope for a left
        shoulder, left foot of a triangle.  Unused by right shoulders.
    :param b: peak of a triangle, or start of the rising slope for a right
        shoulder.  Unused by left shoulders.
    :param c: right breakpoint: end of the falling slope (left shoulder,
        triangle) or start of the saturation plateau (right shoulder).
    :param label: display name ("Low", "Medium", ...).

    ``_SHAPES`` names each kind's breakpoint fields once, in order:
    ``(a, c)``, ``(a, b, c)`` and ``(b, c)``.  Validation,
    :meth:`breakpoints`, :meth:`min_slope_width` and :meth:`peak_position`
    read it.  The breakpoints must strictly increase, so no slope has zero
    width.
    """

    kind: str
    a: float | None = None
    b: float | None = None
    c: float | None = None
    label: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str) or self.kind not in _SHAPES:
            raise ConfigurationError(f"unknown membership-function kind {self.kind!r}")
        fields = _SHAPES[self.kind]
        values = [_checked_unit(name, getattr(self, name)) for name in fields]
        if any(q <= p for p, q in zip(values, values[1:])):
            got = ", ".join(f"{name}={v}" for name, v in zip(fields, values))
            raise ConfigurationError(f"{self.kind} requires {' < '.join(fields)}, got {got}")
        for name, v in zip(fields, values):
            object.__setattr__(self, name, v)

    @classmethod
    def left_shoulder(cls, a: float, c: float, label: str = "") -> "MembershipFunction":
        return cls(LEFT_SHOULDER, a=a, c=c, label=label)

    @classmethod
    def triangle(cls, a: float, b: float, c: float, label: str = "") -> "MembershipFunction":
        return cls(TRIANGLE, a=a, b=b, c=c, label=label)

    @classmethod
    def right_shoulder(cls, b: float, c: float, label: str = "") -> "MembershipFunction":
        return cls(RIGHT_SHOULDER, b=b, c=c, label=label)

    def peak_position(self) -> float:
        """First breakpoint where the set reaches membership 1 (plateau edge or peak)."""
        return next(p for p in self.breakpoints() if eval_membership(p, self) == 1.0)

    def breakpoints(self) -> tuple[float, ...]:
        """Abscissae where the piecewise definition changes branch."""
        return tuple(getattr(self, name) for name in _SHAPES[self.kind])

    def min_slope_width(self) -> float:
        """Narrowest sloped segment; continuity modulus is 1/this."""
        points = self.breakpoints()
        return min(q - p for p, q in zip(points, points[1:]))


def eval_membership(x: float, mf: MembershipFunction) -> float:
    """Degree of membership of ``x`` in the fuzzy set ``mf``.

    ``x`` is clamped into [0, 1] before evaluation; the result is always in
    [0, 1].  Shapes:

    * left shoulder: 1 up to ``a``, falls linearly to 0 at ``c``;
    * triangle: 0 outside the open interval (a, c), peak 1 at ``b``;
    * right shoulder: 0 up to ``b``, rises linearly to 1 at ``c``, then 1.
    """
    x = clamp01(x)
    if mf.kind == LEFT_SHOULDER:
        if x <= mf.a:
            return 1.0
        if x < mf.c:
            return (mf.c - x) / (mf.c - mf.a)
        return 0.0
    if mf.kind == TRIANGLE:
        if x <= mf.a or x >= mf.c:
            return 0.0
        if x < mf.b:
            return (x - mf.a) / (mf.b - mf.a)
        return (mf.c - x) / (mf.c - mf.b)
    # right shoulder
    if x <= mf.b:
        return 0.0
    if x < mf.c:
        return (x - mf.b) / (mf.c - mf.b)
    return 1.0


@dataclass(frozen=True)
class FuzzyPartition:
    """Ordered family of membership functions covering [0, 1].

    The first set is a left shoulder, the last a right shoulder, interior
    sets are triangles, and peak positions strictly increase with index.
    """

    sets: tuple[MembershipFunction, ...]

    def __post_init__(self) -> None:
        sets = tuple(self.sets)
        object.__setattr__(self, "sets", sets)
        if len(sets) < 2:
            raise ConfigurationError(f"a partition needs at least 2 sets, got {len(sets)}")
        if sets[0].kind != LEFT_SHOULDER:
            raise ConfigurationError("first set must be a left shoulder")
        if sets[-1].kind != RIGHT_SHOULDER:
            raise ConfigurationError("last set must be a right shoulder")
        for mf in sets[1:-1]:
            if mf.kind != TRIANGLE:
                raise ConfigurationError("interior sets must be triangles")
        peaks = [mf.peak_position() for mf in sets]
        if any(p2 <= p1 for p1, p2 in zip(peaks, peaks[1:])):
            raise ConfigurationError(f"peak positions must strictly increase, got {peaks}")

    @property
    def n_sets(self) -> int:
        return len(self.sets)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(mf.label for mf in self.sets)


@dataclass(frozen=True)
class MembershipVector:
    """Degrees of membership of one value in every set of a partition."""

    degrees: tuple[float, ...]

    def __post_init__(self) -> None:
        degrees = tuple(float(d) for d in self.degrees)
        for d in degrees:
            if not math.isfinite(d) or not 0.0 <= d <= 1.0:
                raise ContractViolationError(f"membership degree {d!r} outside [0, 1]")
        object.__setattr__(self, "degrees", degrees)

    def __len__(self) -> int:
        return len(self.degrees)

    def __iter__(self) -> Iterator[float]:
        return iter(self.degrees)

    def __getitem__(self, i: int) -> float:
        return self.degrees[i]


def fuzzify(x: float, partition: FuzzyPartition) -> MembershipVector:
    """Convert a crisp value into its vector of membership degrees."""
    return MembershipVector(tuple(eval_membership(x, mf) for mf in partition.sets))


@dataclass(frozen=True)
class RuleBase:
    """IF-THEN rules as (antecedent set index, consequent set index) pairs.

    A base holds exactly one rule per fuzzy set, checked against the rule
    count, and every index is an ``int``, not a ``bool``.  Only the scalar
    path takes a rule base; the scoring kernel always applies the default,
    the identity permutation: low maps to low, medium to medium, high to
    high.
    """

    mapping: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        mapping = tuple((ant, cons) for ant, cons in self.mapping)
        n = len(mapping)
        if n == 0:
            raise ConfigurationError("rule base must contain at least one rule")
        for ant, cons in mapping:
            if any(not isinstance(i, int) or isinstance(i, bool) for i in (ant, cons)):
                raise ConfigurationError(f"rule ({ant!r} -> {cons!r}) needs integer set indices")
            if not 0 <= ant < n or not 0 <= cons < n:
                raise ConfigurationError(f"rule ({ant} -> {cons}) references a set outside 0..{n - 1}")
        object.__setattr__(self, "mapping", mapping)

    @classmethod
    def identity(cls, n_sets: int) -> "RuleBase":
        return cls(tuple((j, j) for j in range(n_sets)))

    @property
    def size(self) -> int:
        return len(self.mapping)


def evaluate_rules(mv: MembershipVector | Sequence[float], rules: RuleBase) -> tuple[float, ...]:
    """Fire every rule and aggregate per consequent set with max.

    The activation of consequent set ``j`` is the largest antecedent
    membership among rules mapping to ``j`` (0 when no rule does).  With the
    identity rule base this is the identity map on the membership vector.
    """
    degrees = tuple(mv)
    if len(degrees) != rules.size:
        raise ContractViolationError(
            f"membership vector has {len(degrees)} entries but the rule base has {rules.size} rules"
        )
    activation = [0.0] * rules.size
    for ant, cons in rules.mapping:
        fulfilment = degrees[ant]
        if fulfilment > activation[cons]:
            activation[cons] = fulfilment
    return tuple(activation)


@dataclass(frozen=True)
class DefuzzConfig:
    """Output centers for centroid defuzzification.

    ``centers[j]`` is the crisp score attached to consequent set ``j``;
    ``empty_activation_value`` is returned when every activation is zero.
    """

    centers: tuple[float, ...]
    empty_activation_value: float = 0.0

    def __post_init__(self) -> None:
        centers = tuple(_checked_unit(f"centers[{j}]", y) for j, y in enumerate(self.centers))
        if len(centers) < 1:
            raise ConfigurationError("centers must be nonempty")
        if any(y2 < y1 for y1, y2 in zip(centers, centers[1:])):
            raise ConfigurationError(f"centers must be nondecreasing, got {centers}")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(
            self, "empty_activation_value", _checked_unit("empty_activation_value", self.empty_activation_value)
        )

    @classmethod
    def uniform(cls, n_sets: int, empty_activation_value: float = 0.0) -> "DefuzzConfig":
        """Centers evenly spread over [0, 1]: j/(n-1)."""
        if n_sets < 2:
            raise ConfigurationError(f"need at least 2 centers, got {n_sets}")
        centers = tuple(j / (n_sets - 1) for j in range(n_sets))
        return cls(centers, empty_activation_value)


def defuzzify_centroid(activation: Sequence[float], cfg: DefuzzConfig) -> float:
    """Crisp score as the activation-weighted average of the centers.

    Returns ``cfg.empty_activation_value`` when the total activation is zero.
    Otherwise the result lies within [min(centers), max(centers)].
    """
    act = tuple(activation)
    if len(act) != len(cfg.centers):
        raise ContractViolationError(
            f"activation vector has {len(act)} entries but there are {len(cfg.centers)} centers"
        )
    denominator = math.fsum(act)
    if denominator == 0.0:
        return cfg.empty_activation_value
    numerator = math.fsum(y * m for y, m in zip(cfg.centers, act))
    score = numerator / denominator
    # guard against float rounding drifting an ulp past the extreme centers
    return min(max(score, cfg.centers[0]), cfg.centers[-1])


def _default_labels(n_sets: int) -> tuple[str, ...]:
    if n_sets == 2:
        return ("Low", "High")
    if n_sets == 3:
        return ("Low", "Medium", "High")
    return tuple(f"Set{j}" for j in range(1, n_sets + 1))


def uniform_breakpoints(n_sets: int) -> list[float]:
    """Peak positions of the uniform partition: j/(n_sets + 1), j = 1..n_sets."""
    if not isinstance(n_sets, int) or isinstance(n_sets, bool) or n_sets < 2:
        raise ConfigurationError(f"a partition needs at least 2 sets, got {n_sets!r}")
    return [j / (n_sets + 1) for j in range(1, n_sets + 1)]


def make_uniform_partition(n_sets: int) -> FuzzyPartition:
    """Evenly spaced partition with breakpoints at j/(n_sets + 1).

    Membership degrees sum to exactly 1 at every point of [0, 1].  For three
    sets this yields the Low/Medium/High family with breakpoints 0.25, 0.5,
    0.75.
    """
    points = uniform_breakpoints(n_sets)
    labels = _default_labels(n_sets)
    sets: list[MembershipFunction] = []
    sets.append(MembershipFunction.left_shoulder(points[0], points[1], label=labels[0]))
    for j in range(1, n_sets - 1):
        sets.append(MembershipFunction.triangle(points[j - 1], points[j], points[j + 1], label=labels[j]))
    sets.append(MembershipFunction.right_shoulder(points[-2], points[-1], label=labels[-1]))
    return FuzzyPartition(tuple(sets))
