"""Global-best particle swarm search over stock-pattern space.

Each particle encodes an individual ``[product id, S_1 .. S_l]`` where the
stock entries are signed levels (negative = predicted shortage, positive =
predicted excess).  Fitness of a position is

    f = w1 * (1 - P(occ) / T) + log(w2 * t_stock + w3 * t_raw)

where P(occ), the number of matched records, and t_stock, their summed
per-link transport days, come from a box query against the history store on
the rounded position; t_raw sums the product's raw-material supply days, and
the weights derive from the three priority values.  Lower is better.

The search is plain gbest PSO: linearly decaying inertia, two acceleration
terms, velocity and position clamping.  All randomness flows through one
``numpy.random.Generator`` seeded from the config, and the draw order is
fixed (init positions, init velocities, then per iteration one block of
r1/r2 values), so runs are bit-for-bit reproducible.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .domain import (
    INT64_MAX,
    INT64_MIN,
    Bounds,
    PriorityConfig,
    Topology,
    Weights,
    _integer,
    dimension,
    round_half_away_from_zero,
    weights_from_priorities,
)
from .errors import (
    ConfigError,
    DimensionMismatch,
    LogDomainError,
    MissingRawMaterial,
)
from .history import HistoryStore

__all__ = [
    "PsoConfig",
    "OptimizationResult",
    "FitnessEvaluator",
    "inertia_weight",
    "draw_swarm",
    "pso_step",
    "run",
]

_LOG_BASES = ("natural", "base10")


@dataclass(frozen=True)
class PsoConfig:
    """Every knob of one optimization run.

    Attributes
    ----------
    swarm_size : int
        Number of particles, at least 2.
    max_iterations : int
        Update rounds to execute (barring an early stop).
    c1, c2 : float
        Cognitive and social acceleration constants; their sum must be
        positive or the swarm never moves toward anything.
    w_max, w_min : float
        Inertia weight endpoints of the linear decay schedule.
    bounds : Bounds
        Position box and the velocity-limit fraction.
    priorities : PriorityConfig
        The (r1, r2, r3) triple behind the fitness weights.
    match_radius : int
        Per-dimension tolerance for history matching; 0 = exact.
    log_base : str
        "natural" or "base10" for the fitness log term.
    stall_window : int
        Stop early after this many consecutive rounds without gbest
        improvement; 0 disables the early stop.
    seed : int
        64-bit unsigned RNG seed.
    per_dimension_r : bool
        Draw r1/r2 separately per dimension instead of one scalar pair
        per particle per round.
    """

    swarm_size: int = 30
    max_iterations: int = 100
    c1: float = 2.0
    c2: float = 2.0
    w_max: float = 0.9
    w_min: float = 0.4
    bounds: Bounds = field(default_factory=Bounds)
    priorities: PriorityConfig = field(default_factory=PriorityConfig)
    match_radius: int = 100
    log_base: str = "natural"
    stall_window: int = 0
    seed: int = 0
    per_dimension_r: bool = False

    def __post_init__(self) -> None:
        for name in ("swarm_size", "max_iterations", "match_radius", "stall_window", "seed"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        for name in ("c1", "c2", "w_max", "w_min"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.swarm_size < 2:
            raise ConfigError(f"swarm_size must be at least 2, got {self.swarm_size}")
        if self.max_iterations < 1:
            raise ConfigError(
                f"max_iterations must be positive, got {self.max_iterations}"
            )
        if self.c1 < 0 or self.c2 < 0:
            raise ConfigError("acceleration constants c1, c2 must be non-negative")
        if self.c1 + self.c2 <= 0:
            raise ConfigError("c1 + c2 must be positive or particles ignore both bests")
        if self.w_min > self.w_max:
            raise ConfigError(
                f"w_min {self.w_min} must not exceed w_max {self.w_max}"
            )
        b = self.bounds
        step = (
            max(abs(self.w_max), abs(self.w_min)) * b.velocity_fraction * b.widest_range
            + (self.c1 + self.c2) * b.widest_range
        )
        if not math.isfinite(step):
            raise ConfigError(
                f"c1 {self.c1}, c2 {self.c2}, w_max {self.w_max} and w_min {self.w_min} "
                "overflow the velocity update on these bounds"
            )
        if self.match_radius < 0:
            raise ConfigError(f"match_radius must be non-negative, got {self.match_radius}")
        # Positions are float64; the matcher compares their rounded values
        # with recorded levels up to match_radius away, in int64.
        for name, sign in (("product_lb", -1), ("product_ub", 1), ("stock_lb", -1), ("stock_ub", 1)):
            reach = int(float(getattr(b, name))) + sign * self.match_radius
            if not INT64_MIN <= reach <= INT64_MAX:
                raise ConfigError(
                    f"{name} {getattr(b, name)} widened by match_radius "
                    f"{self.match_radius} does not fit in int64"
                )
        if self.log_base not in _LOG_BASES:
            raise ConfigError(
                f"log_base must be one of {_LOG_BASES}, got {self.log_base!r}"
            )
        if self.stall_window < 0:
            raise ConfigError(f"stall_window must be non-negative, got {self.stall_window}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must fit in 64 unsigned bits, got {self.seed}")


@dataclass(frozen=True)
class OptimizationResult:
    """Final gbest plus the per-iteration trace that led to it."""

    best_position: np.ndarray
    best_fitness: float
    gbest_trace: tuple[tuple[int, float], ...]
    iterations_run: int
    weights_used: Weights

    def __post_init__(self) -> None:
        fits = [f for _, f in self.gbest_trace]
        if any(b > a for a, b in zip(fits, fits[1:])):
            raise ConfigError("gbest trace must be non-increasing")
        if fits and self.best_fitness != fits[-1]:
            raise ConfigError("best_fitness must equal the last trace entry")


class FitnessEvaluator:
    """Precomputed, reusable fitness function over one store and config.

    Matches a whole swarm with one store query over the flat index, so a
    batch evaluates as a few numpy searches and one chunked box test.
    Pure: no internal state changes after construction, so repeated calls
    on equal positions are bit-identical.
    """

    def __init__(self, store: HistoryStore, config: PsoConfig) -> None:
        self._store = store
        self._radius = config.match_radius
        self._weights = weights_from_priorities(config.priorities)
        self._log = np.log if config.log_base == "natural" else np.log10
        self._total = store.total_periods
        self._dim = dimension(store.topology)
        store._check_lead_time_totals()

    @property
    def weights(self) -> Weights:
        return self._weights

    def score(self, pids: np.ndarray, occ: np.ndarray, t_stock: np.ndarray) -> np.ndarray:
        """Fitness of rounded positions whose matches are already counted.

        Per position: the product id, P(occ) and the summed lead time of the
        matched records.  A non-positive log argument raises for the first
        position that has one.
        """
        t_raw = self._store._raw_lead_time_totals(pids)
        w = self._weights
        argument = w.w2 * t_stock + w.w3 * t_raw
        bad = np.flatnonzero(argument <= 0.0)
        if bad.size:
            raise LogDomainError(
                f"fitness log argument {float(argument[bad[0]])} is not positive; "
                "degenerate priorities or zero lead times"
            )
        return w.w1 * (1.0 - occ / self._total) + self._log(argument)

    def evaluate(self, position: Sequence[float]) -> float:
        """Fitness of one position: ``evaluate_batch`` on a batch of one."""
        return float(self.evaluate_batch(np.asarray(position)[None])[0])

    def evaluate_batch(self, positions: np.ndarray) -> np.ndarray:
        """Fitness of each row of an (n, d) position matrix."""
        rounded = round_half_away_from_zero(positions)
        if rounded.ndim != 2 or rounded.shape[1] != self._dim:
            raise DimensionMismatch(
                f"positions have shape {rounded.shape}, expected (n, {self._dim})"
            )
        pids = rounded[:, 0]
        occ, t_stock = self._store.match_counts(pids, rounded[:, 1:], self._radius)
        return self.score(pids, occ, t_stock)


def inertia_weight(config: PsoConfig, iteration: int) -> float:
    """Linearly decayed inertia weight at a 0-based iteration count.

    Endpoints are returned directly so they are exact in floating point:
    iteration 0 gives w_max, iteration max_iterations gives w_min.
    """
    if not 0 <= iteration <= config.max_iterations:
        raise ConfigError(
            f"iteration {iteration} outside [0, {config.max_iterations}]"
        )
    if iteration == 0:
        return config.w_max
    if iteration == config.max_iterations:
        return config.w_min
    return config.w_max - (config.w_max - config.w_min) * iteration / config.max_iterations


def draw_swarm(
    config: PsoConfig, topology: Topology, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Initial (swarm_size, d) position and velocity matrices, drawn
    uniformly inside the position box and the velocity limits; positions
    are drawn first."""
    v_min, v_max, lower, upper = _step_limits(config.bounds, topology.member_count)
    size = (config.swarm_size, dimension(topology))
    return rng.uniform(lower, upper, size), rng.uniform(v_min, v_max, size)


def pso_step(
    positions: np.ndarray,
    velocities: np.ndarray,
    pbest_positions: np.ndarray,
    gbest_position: np.ndarray,
    w: float,
    r1,
    r2,
    config: PsoConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """One inertia-weight PSO update of a whole swarm (Shi & Eberhart 1998).

    Rows are particles.  The velocity is
    ``w * v + c1 * r1 * (pbest - x) + c2 * r2 * (gbest - x)`` clipped to the
    velocity limits, and the position is ``x + v`` clipped to the search box.
    ``r1`` and ``r2`` hold draws in [0, 1) that broadcast against the rows:
    scalars, (n, 1) columns, or (n, d) matrices for per-dimension draws.
    Returns new (positions, velocities) arrays; the inputs are not changed.
    The terms are added in place, in the order of the formula, so every
    value is the one the formula gives.
    """
    v_min, v_max, lower, upper = _step_limits(config.bounds, positions.shape[-1] - 1)
    velocities = w * velocities
    pull = pbest_positions - positions
    pull *= config.c1 * r1
    velocities += pull
    np.subtract(gbest_position, positions, out=pull)
    pull *= config.c2 * r2
    velocities += pull
    velocities.clip(v_min, v_max, out=velocities)
    positions = positions + velocities
    positions.clip(lower, upper, out=positions)
    return positions, velocities


@functools.lru_cache(maxsize=16)
def _step_limits(bounds: Bounds, member_count: int) -> tuple[np.ndarray, ...]:
    """The velocity limits and the position box of ``draw_swarm`` and
    ``pso_step``, built once per bounds and chain size, read-only."""
    limits = (
        *bounds.velocity_limits(member_count),
        bounds.position_lower(member_count),
        bounds.position_upper(member_count),
    )
    for array in limits:
        array.flags.writeable = False
    return limits


def _bounded_product_ids(store: HistoryStore, config: PsoConfig) -> np.ndarray:
    """Every integer id in ``[product_lb, product_ub]``, ascending, read off
    the store's sorted raw-material ids, once each of them can be scored.

    Any id in the bounds is reachable by rounding and can match zero records
    (t_stock = 0), so each needs raw-material rows and a positive log
    argument w3 * t_raw before a search starts.  The ids that run from
    ``product_lb`` without a gap are one slice, so no array spans the
    bounds.  The lowest of them with a non-positive argument raises
    LogDomainError, else the first missing id raises MissingRawMaterial.
    """
    lb, ub = config.bounds.product_lb, config.bounds.product_ub
    start, stop = np.searchsorted(store._raw_pids, lb), np.searchsorted(store._raw_pids, ub, "right")
    pids, totals = store._raw_pids[start:stop], store._raw_totals[start:stop]
    gap = np.flatnonzero(pids - np.arange(len(pids)) != lb)  # ids are positive, nothing wraps
    present = int(gap[0]) if gap.size else len(pids)
    w3_t_raw = weights_from_priorities(config.priorities).w3 * totals[:present]
    low = np.flatnonzero(w3_t_raw <= 0.0)
    if low.size:
        raise LogDomainError(
            f"product {pids[low[0]]} can reach a zero fitness log argument (w3 * t_raw = "
            f"{float(w3_t_raw[low[0]])}); raise r3 or the raw-material lead times"
        )
    if present < ub - lb + 1:
        raise MissingRawMaterial(
            f"product {lb + present} is inside the product bounds but has no raw-material rows"
        )
    return pids[:present]


def run(
    store: HistoryStore,
    topology: Topology,
    config: PsoConfig,
    observer: Callable[[int, np.ndarray, np.ndarray, float], None] | None = None,
) -> OptimizationResult:
    """Full gbest PSO run; deterministic in (store, topology, config).

    Each round: inertia from the 0-based round index, velocity then position
    updates for the whole swarm, batch evaluation, strict-improvement pbest
    updates.  gbest is then the best pbest: the lowest-index particle among
    the lowest pbest values, as after the initial evaluation.  ``observer``,
    when given, is called after every round with (iteration, positions,
    velocities, gbest_fitness) for inspection; it must not mutate the arrays.

    Stops after ``max_iterations`` rounds, or earlier when ``stall_window``
    is positive and the gbest value has not fallen for that many
    consecutive rounds.
    A swarm whose (swarm_size, d) float64 matrices pass numpy's array size
    limit raises ConfigError.
    """
    if topology != store.topology:
        raise DimensionMismatch(
            f"store was built for topology {store.topology}, run got {topology}"
        )
    n, d = config.swarm_size, dimension(topology)
    if n * d * 8 > np.iinfo(np.intp).max:
        raise ConfigError(
            f"swarm_size {n} by dimension {d} float64 matrices pass numpy's array size limit"
        )
    _bounded_product_ids(store, config)

    evaluator = FitnessEvaluator(store, config)
    rng = np.random.default_rng(config.seed)

    positions, velocities = draw_swarm(config, topology, rng)
    pbest_positions = positions.copy()
    pbest_fitness = evaluator.evaluate_batch(positions)
    best = np.argmin(pbest_fitness)  # argmin takes the lowest index on ties
    gbest_fitness = float(pbest_fitness[best])

    trace: list[tuple[int, float]] = []
    stalled = 0
    for round_index in range(config.max_iterations):
        w = inertia_weight(config, round_index)
        r = rng.random((n, 2, d if config.per_dimension_r else 1))
        r1, r2 = r[:, 0], r[:, 1]
        positions, velocities = pso_step(
            positions, velocities, pbest_positions, pbest_positions[best], w, r1, r2, config
        )
        fitness = evaluator.evaluate_batch(positions)

        improved = fitness < pbest_fitness  # strict, ties keep the older pbest
        pbest_positions[improved] = positions[improved]
        pbest_fitness[improved] = fitness[improved]

        best = np.argmin(pbest_fitness)
        stalled = 0 if pbest_fitness[best] < gbest_fitness else stalled + 1
        gbest_fitness = float(pbest_fitness[best])

        trace.append((round_index + 1, gbest_fitness))
        if observer is not None:
            observer(round_index + 1, positions, velocities, gbest_fitness)
        if config.stall_window > 0 and stalled >= config.stall_window:
            break

    return OptimizationResult(
        best_position=pbest_positions[best].copy(),
        best_fitness=gbest_fitness,
        gbest_trace=tuple(trace),
        iterations_run=len(trace),
        weights_used=evaluator.weights,
    )
