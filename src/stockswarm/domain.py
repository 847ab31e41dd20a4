"""Supply-chain vocabulary: chain topology, search bounds, priorities.

The chain has one factory, a row of distribution centres and a row of
end-level agents attached to those centres.  Every node that holds stock
is a "member"; stock levels are signed integers where a negative value is
a predicted shortage and a positive value a predicted excess.  A search
individual is the vector ``[product id, stock level per member]``.

All types here are immutable value objects and safe to share between
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateLeadTimeWeights, ZeroPrioritySum

__all__ = [
    "Topology",
    "Bounds",
    "PriorityConfig",
    "Weights",
    "total_agents",
    "dimension",
    "weights_from_priorities",
    "round_half_away_from_zero",
]

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def total_agents(agents_per_dc: list[int] | tuple[int, ...]) -> int:
    """Total number of end-level agents across all distribution centres."""
    return int(sum(agents_per_dc))


@dataclass(frozen=True)
class Topology:
    """Shape of the supply chain.

    Attributes:
        dc_count: number of distribution centres (0 allowed for a
            degenerate factory-only chain).
        agents_per_dc: agents attached to each centre, in centre order;
            must have exactly ``dc_count`` entries, each >= 1.
    """

    dc_count: int = 2
    agents_per_dc: tuple[int, ...] = (2, 2)

    def __post_init__(self) -> None:
        object.__setattr__(self, "agents_per_dc", tuple(int(a) for a in self.agents_per_dc))
        if self.dc_count < 0:
            raise ConfigError(f"dc_count must be >= 0, got {self.dc_count}")
        if len(self.agents_per_dc) != self.dc_count:
            raise ConfigError(
                f"agents_per_dc has {len(self.agents_per_dc)} entries for {self.dc_count} centres"
            )
        if any(a < 1 for a in self.agents_per_dc):
            raise ConfigError(f"every agents_per_dc entry must be >= 1, got {self.agents_per_dc}")

    @property
    def member_count(self) -> int:
        """Stock-holding members: factory + centres + all agents."""
        return 1 + self.dc_count + total_agents(self.agents_per_dc)


def dimension(topology: Topology) -> int:
    """Length of a search individual: one product slot plus one stock slot
    per chain member."""
    return topology.member_count + 1


@dataclass(frozen=True)
class Bounds:
    """Box constraints of the search space.

    The product slot is continuous during the search but rounds to an
    integer id in ``[product_lb, product_ub]`` for every table query.
    Velocity limits are derived per dimension as ``velocity_fraction``
    times that dimension's range, symmetric about zero.
    """

    product_lb: int = 1
    product_ub: int = 5
    stock_lb: int = -1000
    stock_ub: int = 1000
    velocity_fraction: float = 0.2

    def __post_init__(self) -> None:
        for name in ("product_lb", "product_ub", "stock_lb", "stock_ub"):
            if not INT64_MIN <= getattr(self, name) <= INT64_MAX:
                raise ConfigError(f"{name} {getattr(self, name)} is outside the int64 range")
        if self.product_lb > self.product_ub:
            raise ConfigError(f"product bounds inverted: [{self.product_lb}, {self.product_ub}]")
        if self.stock_lb >= self.stock_ub:
            raise ConfigError(f"stock bounds must satisfy lb < ub: [{self.stock_lb}, {self.stock_ub}]")
        if not (0.0 < self.velocity_fraction < math.inf):
            raise ConfigError(
                f"velocity_fraction must be positive and finite, got {self.velocity_fraction}"
            )
        if not math.isfinite(2.0 * self.velocity_fraction * self.widest_range):
            raise ConfigError(
                f"velocity_fraction {self.velocity_fraction} overflows the velocity limits"
            )

    @property
    def widest_range(self) -> int:
        """Largest upper-minus-lower extent over all dimensions."""
        return max(self.stock_ub - self.stock_lb, self.product_ub - self.product_lb)

    def position_lower(self, member_count: int) -> np.ndarray:
        """Per-dimension lower bound of an individual, as float64."""
        out = np.full(member_count + 1, float(self.stock_lb))
        out[0] = float(self.product_lb)
        return out

    def position_upper(self, member_count: int) -> np.ndarray:
        """Per-dimension upper bound of an individual, as float64."""
        out = np.full(member_count + 1, float(self.stock_ub))
        out[0] = float(self.product_ub)
        return out

    def velocity_limits(self, member_count: int) -> tuple[np.ndarray, np.ndarray]:
        """(v_min, v_max) arrays, one entry per dimension, v_min == -v_max."""
        v_max = self.velocity_fraction * (
            self.position_upper(member_count) - self.position_lower(member_count)
        )
        return -v_max, v_max


@dataclass(frozen=True)
class PriorityConfig:
    """Relative influence of the three fitness factors.

    r1 weighs stock-level match frequency, r2 the stock transport lead
    time of matched records, r3 the product's raw-material lead time.
    """

    r1: float = 10.0
    r2: float = 5.0
    r3: float = 1.0

    def __post_init__(self) -> None:
        for name, value in (("r1", self.r1), ("r2", self.r2), ("r3", self.r3)):
            if not (value >= 0.0) or not math.isfinite(value):
                raise ConfigError(f"priority {name} must be a finite non-negative real, got {value}")
        if self.r1 + self.r2 + self.r3 == 0.0:
            raise ZeroPrioritySum("all priorities are zero; weights undefined")
        if self.r2 + self.r3 == 0.0:
            raise DegenerateLeadTimeWeights(
                "both lead-time priorities are zero; fitness log term would be log(0)"
            )


@dataclass(frozen=True)
class Weights:
    """Normalized factor weights; always sum to 1 within 1e-12."""

    w1: float
    w2: float
    w3: float

    def __post_init__(self) -> None:
        for name, value in (("w1", self.w1), ("w2", self.w2), ("w3", self.w3)):
            if not (0.0 <= value <= 1.0):
                raise ConfigError(f"weight {name} outside [0, 1]: {value}")
        total = self.w1 + self.w2 + self.w3
        if abs(total - 1.0) > 1e-12:
            raise ConfigError(f"weights must sum to 1 within 1e-12, got {total!r}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.w1, self.w2, self.w3)


def weights_from_priorities(priorities: PriorityConfig) -> Weights:
    """Convert priority levels to normalized weights w_k = r_k / sum."""
    total = priorities.r1 + priorities.r2 + priorities.r3
    if total == 0.0:
        raise ZeroPrioritySum("all priorities are zero; weights undefined")
    if priorities.r2 + priorities.r3 == 0.0:
        raise DegenerateLeadTimeWeights(
            "both lead-time priorities are zero; fitness log term would be log(0)"
        )
    return Weights(priorities.r1 / total, priorities.r2 / total, priorities.r3 / total)


def round_half_away_from_zero(values: np.ndarray | list[float]) -> np.ndarray:
    """Round to integers with halves moving away from zero (0.5 -> 1,
    -0.5 -> -1), the rule used for every table query and report.

    A value that is not finite or rounds outside int64 raises ConfigError.
    """
    arr = np.asarray(values, dtype=np.float64)
    rounded = np.copysign(np.floor(np.abs(arr) + 0.5), arr)
    inside = (rounded >= INT64_MIN) & (rounded < 2.0**63)  # False for NaN
    if not inside.all():
        bad = float(arr[~inside][0])
        raise ConfigError(f"position value {bad!r} is not finite or rounds outside the int64 range")
    return rounded.astype(np.int64)
