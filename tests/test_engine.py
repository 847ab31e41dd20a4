"""Fitness evaluation, update arithmetic and full-run behavior."""

import math

import mpmath
import numpy as np
import pytest

import stockswarm as ss
from stockswarm.errors import (
    ConfigError,
    DimensionMismatch,
    LogDomainError,
    MissingRawMaterial,
    ParseError,
)

TID1_POSITION = [3, 632, 424, 247, -298, -115, 365, 961]


def exact_fitness(occ, total, t_stock, t_raw, priorities=(10, 5, 1), log10=False):
    """Arbitrary-precision recomputation of the fitness formula."""
    with mpmath.workdps(60):
        r1, r2, r3 = (mpmath.mpf(r) for r in priorities)
        s = r1 + r2 + r3
        w1, w2, w3 = r1 / s, r2 / s, r3 / s
        log = mpmath.log10 if log10 else mpmath.log
        value = w1 * (1 - mpmath.mpf(occ) / total) + log(w2 * t_stock + w3 * t_raw)
        return float(value)


class TestPsoConfigValidation:
    def test_defaults_are_valid(self):
        cfg = ss.PsoConfig()
        assert cfg.swarm_size == 30
        assert cfg.max_iterations == 100
        assert (cfg.c1, cfg.c2) == (2.0, 2.0)
        assert (cfg.w_max, cfg.w_min) == (0.9, 0.4)
        assert cfg.match_radius == 100
        assert cfg.log_base == "natural"
        assert cfg.stall_window == 0
        assert cfg.per_dimension_r is False

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"swarm_size": 1},
            {"max_iterations": 0},
            {"c1": -0.1},
            {"c1": 0.0, "c2": 0.0},
            {"w_max": 0.3, "w_min": 0.5},
            {"match_radius": -1},
            {"log_base": "ln"},
            {"stall_window": -1},
            {"seed": -1},
            {"seed": 2**64},
            {"c1": float("nan")},
            {"c2": float("inf")},
            {"w_max": float("inf")},
            {"w_min": float("nan")},
            {"w_min": float("-inf")},
            {"c1": 1e308},
            {"c2": 1e308, "c1": 1e308},
            {"w_max": 1e308},
            {"w_min": -1e308},
            {"bounds": ss.Bounds(stock_ub=2**63 - 1)},
            {"bounds": ss.Bounds(stock_lb=-(2**63)), "match_radius": 1},
            {"bounds": ss.Bounds(stock_ub=2**63 - 1024), "match_radius": 1024},
            {"match_radius": 2**63 - 5},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            ss.PsoConfig(**kwargs)

    def test_accepts_bounds_whose_reach_fits_int64(self):
        # 2**62 is exact in float64, and 2**62 + 100 fits in int64
        ss.PsoConfig(bounds=ss.Bounds(stock_lb=-(2**62), stock_ub=2**62), match_radius=100)
        ss.PsoConfig(bounds=ss.Bounds(stock_ub=2**63 - 1024), match_radius=1023)
        ss.PsoConfig(bounds=ss.Bounds(stock_lb=-(2**63)), match_radius=0)

    def test_accepts_large_finite_accelerations(self):
        # (c1 + c2) * 2000 stays finite; only an overflowing update is rejected
        ss.PsoConfig(c1=1e300, c2=1e300, w_max=1e300, w_min=-1e300)


class TestEvaluate:
    def test_tid1_worked_example(self, store):
        cfg = ss.PsoConfig(match_radius=0)
        got = ss.evaluate(store, cfg, TID1_POSITION)
        assert got == pytest.approx(0.59375 + math.log(43.375), abs=1e-12)
        assert got == pytest.approx(exact_fitness(1, 20, 121, 89), abs=1e-9)

    def test_zero_match_example(self, store):
        cfg = ss.PsoConfig(match_radius=0)
        got = ss.evaluate(store, cfg, [3, 1, 1, 1, 1, 1, 1, 1])
        assert got == pytest.approx(0.625 + math.log(5.5625), abs=1e-12)
        assert got == pytest.approx(exact_fitness(0, 20, 0, 89), abs=1e-9)

    def test_base10_variant(self, store):
        cfg = ss.PsoConfig(match_radius=0, log_base="base10")
        got = ss.evaluate(store, cfg, TID1_POSITION)
        assert got == pytest.approx(exact_fitness(1, 20, 121, 89, log10=True), abs=1e-9)

    def test_product_dimension_rounds_before_lookup(self, store):
        cfg = ss.PsoConfig(match_radius=0)
        nudged = [3.49] + TID1_POSITION[1:]
        assert ss.evaluate(store, cfg, nudged) == ss.evaluate(store, cfg, TID1_POSITION)

    def test_purity_bit_identical(self, store):
        evaluator = ss.FitnessEvaluator(store, ss.PsoConfig())
        position = np.array([2.7, 13.2, -801.5, 0.49, 5.5, -5.5, 333.0, -1.0])
        assert evaluator.evaluate(position) == evaluator.evaluate(position)

    def test_dimension_mismatch(self, store):
        with pytest.raises(DimensionMismatch):
            ss.evaluate(store, ss.PsoConfig(), [3, 1, 2])

    def test_missing_raw_material(self, store):
        cfg = ss.PsoConfig(bounds=ss.Bounds(product_ub=9))
        with pytest.raises(MissingRawMaterial):
            ss.evaluate(store, cfg, [9, 0, 0, 0, 0, 0, 0, 0])

    def test_lead_time_total_past_int64_rejected(self, tiny_rows):
        # each row's lead time fits int64; a product total of 2**63 does not,
        # and an int64 t_stock matching both rows would wrap
        topology, _, _, raws = tiny_rows
        history = [(1, 1, (0, 0, 0)), (2, 1, (0, 0, 0)), (3, 2, (0, 0, 0))]
        cfg = ss.PsoConfig(match_radius=0)
        fits = [(1, (2**62, 2**62 - 1)), (2, (0, 0)), (3, (2**62, 2**62 - 1))]
        ss.FitnessEvaluator(ss.HistoryStore.from_records(topology, history, fits, raws), cfg)
        wraps = [(1, (2**62, 2**62 - 1)), (2, (0, 1)), (3, (0, 0))]
        store = ss.HistoryStore.from_records(topology, history, wraps, raws)
        with pytest.raises(ParseError, match="int64"):
            ss.FitnessEvaluator(store, cfg)

    def test_log_domain_error(self, tiny_rows):
        # zero link times and r3 = 0 drive the log argument to zero on a miss
        topology, history, _, raws = tiny_rows
        leads = [(1, (0, 0)), (2, (0, 0)), (3, (0, 0))]
        store = ss.HistoryStore.from_records(topology, history, leads, raws)
        cfg = ss.PsoConfig(
            match_radius=0, priorities=ss.PriorityConfig(1, 1, 0)
        )
        with pytest.raises(LogDomainError):
            ss.evaluate(store, cfg, [1, 5, 5, 5])


class TestInertiaWeight:
    def test_endpoints_exact(self):
        cfg = ss.PsoConfig(w_max=0.9, w_min=0.4, max_iterations=100)
        assert ss.inertia_weight(cfg, 0) == 0.9
        assert ss.inertia_weight(cfg, 100) == 0.4

    def test_endpoints_exact_for_awkward_floats(self):
        cfg = ss.PsoConfig(w_max=0.73, w_min=0.12, max_iterations=7)
        assert ss.inertia_weight(cfg, 0) == 0.73
        assert ss.inertia_weight(cfg, 7) == 0.12

    def test_midpoint(self):
        cfg = ss.PsoConfig(w_max=0.9, w_min=0.4, max_iterations=100)
        assert ss.inertia_weight(cfg, 50) == pytest.approx(0.65, abs=1e-15)

    def test_linear_and_monotone(self):
        cfg = ss.PsoConfig(w_max=0.9, w_min=0.4, max_iterations=10)
        values = [ss.inertia_weight(cfg, i) for i in range(11)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[3] == pytest.approx(0.9 - 0.5 * 0.3, abs=1e-15)

    def test_rejects_out_of_range_iteration(self):
        cfg = ss.PsoConfig(max_iterations=10)
        with pytest.raises(ConfigError):
            ss.inertia_weight(cfg, -1)
        with pytest.raises(ConfigError):
            ss.inertia_weight(cfg, 11)


class TestUpdateArithmetic:
    @staticmethod
    def _step(position, velocity, pbest, gbest, w, r1, r2, bounds=None, c1=2.0, c2=2.0):
        config = ss.PsoConfig(c1=c1, c2=c2, bounds=bounds or ss.Bounds())
        return ss.pso_step(
            np.array([position], dtype=np.float64),
            np.array([velocity], dtype=np.float64),
            np.array([pbest], dtype=np.float64),
            np.array(gbest, dtype=np.float64),
            w,
            r1,
            r2,
            config,
        )

    def test_reference_arithmetic(self):
        # 0.9*1.0 + 2*0.5*10 + 2*0.25*(-4) = 8.9 on the stock dimension
        positions, velocities = self._step(
            [3.0, 0.0], [0.0, 1.0], [3.0, 10.0], [3.0, -4.0], w=0.9, r1=0.5, r2=0.25
        )
        assert velocities[0, 1] == pytest.approx(8.9, abs=1e-12)
        assert velocities[0, 0] == 0.0
        assert (positions == velocities + np.array([3.0, 0.0])).all()
        # unequal constants: 0.9*1.0 + 1.5*0.5*10 + 2.5*0.25*(-4) = 5.9
        _, velocities = self._step(
            [3.0, 0.0], [0.0, 1.0], [3.0, 10.0], [3.0, -4.0], 0.9, 0.5, 0.25, c1=1.5, c2=2.5
        )
        assert velocities[0, 1] == pytest.approx(5.9, abs=1e-12)

    def test_zero_attraction_leaves_scaled_inertia(self):
        here = [2.0, 7.0, -3.0]
        _, velocities = self._step(here, [1.0, -2.0, 0.5], here, here, w=0.7, r1=0.9, r2=0.1)
        assert velocities[0] == pytest.approx(0.7 * np.array([1.0, -2.0, 0.5]))

    def test_velocity_clamped_to_limits(self):
        bounds = ss.Bounds(stock_lb=-500, stock_ub=500, velocity_fraction=0.2)
        v_min, v_max = bounds.velocity_limits(1)
        _, velocities = self._step(
            [1.0, 0.0], [0.0, 0.0], [1.0, 500.0], [1.0, 500.0], 0.9, 1.0, 1.0, bounds
        )
        assert velocities[0, 1] == v_max[1] == 200.0
        _, velocities = self._step(
            [1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, -500.0], 0.9, 1.0, 1.0, bounds
        )
        assert velocities[0, 1] == v_min[1] == -200.0

    def test_position_identity_with_zero_velocity(self):
        here = [2.0, 10.0, -20.0]
        positions, _ = self._step(here, [0.0, 0.0, 0.0], here, here, w=0.9, r1=0.3, r2=0.6)
        assert (positions[0] == here).all()

    def test_position_upper_clamp(self):
        here = [4.8, 0.0]
        positions, _ = self._step(here, [0.5, 0.0], here, here, w=1.0, r1=0.3, r2=0.6)
        assert positions[0, 0] == 5.0

    def test_position_lower_clamp(self):
        here = [2.0, -990.0]
        positions, _ = self._step(here, [0.0, -25.0], here, here, w=1.0, r1=0.3, r2=0.6)
        assert positions[0, 1] == -1000.0

    def test_inputs_not_mutated(self):
        position, velocity = np.array([[3.0, 0.0]]), np.array([[0.0, 1.0]])
        ss.pso_step(position, velocity, position + 1, position[0] - 1, 0.9, 0.5, 0.5, ss.PsoConfig())
        assert position.tolist() == [[3.0, 0.0]] and velocity.tolist() == [[0.0, 1.0]]


class TestInitSwarm:
    def test_size_and_dimension(self, topology):
        cfg = ss.PsoConfig(swarm_size=2, seed=11)
        positions, velocities = ss.draw_swarm(cfg, topology, np.random.default_rng(cfg.seed))
        assert positions.shape == velocities.shape == (2, 8)

    def test_same_seed_bitwise_identical(self, topology):
        cfg = ss.PsoConfig(swarm_size=6, seed=42)
        a = ss.draw_swarm(cfg, topology, np.random.default_rng(42))
        b = ss.draw_swarm(cfg, topology, np.random.default_rng(42))
        assert (a[0] == b[0]).all() and (a[1] == b[1]).all()

    def test_samples_inside_bounds(self, topology):
        cfg = ss.PsoConfig(swarm_size=40, seed=5)
        positions, velocities = ss.draw_swarm(cfg, topology, np.random.default_rng(5))
        lower = cfg.bounds.position_lower(7)
        upper = cfg.bounds.position_upper(7)
        v_min, v_max = cfg.bounds.velocity_limits(7)
        assert (positions >= lower).all() and (positions <= upper).all()
        assert (velocities >= v_min).all() and (velocities <= v_max).all()


class TestRun:
    def test_determinism(self, store, topology):
        cfg = ss.PsoConfig(swarm_size=12, max_iterations=30, seed=2024, match_radius=0)
        a = ss.run(store, topology, cfg)
        b = ss.run(store, topology, cfg)
        assert a.gbest_trace == b.gbest_trace
        assert a.best_fitness == b.best_fitness
        assert (a.best_position == b.best_position).all()

    def test_seeds_differ(self, store, topology):
        base = dict(swarm_size=8, max_iterations=15, match_radius=0)
        a = ss.run(store, topology, ss.PsoConfig(seed=1, **base))
        b = ss.run(store, topology, ss.PsoConfig(seed=2, **base))
        assert a.gbest_trace != b.gbest_trace or (a.best_position != b.best_position).any()

    def test_trace_shape_and_monotonicity(self, store, topology):
        cfg = ss.PsoConfig(swarm_size=10, max_iterations=40, seed=7)
        result = ss.run(store, topology, cfg)
        assert result.iterations_run == len(result.gbest_trace) == 40
        iterations = [i for i, _ in result.gbest_trace]
        assert iterations == list(range(1, 41))
        fits = [f for _, f in result.gbest_trace]
        assert all(a >= b for a, b in zip(fits, fits[1:]))
        assert result.best_fitness == fits[-1]

    def test_bounds_hold_after_every_iteration(self, store, topology):
        cfg = ss.PsoConfig(swarm_size=9, max_iterations=25, seed=13)
        lower = cfg.bounds.position_lower(7)
        upper = cfg.bounds.position_upper(7)
        v_min, v_max = cfg.bounds.velocity_limits(7)
        seen = []

        def observer(iteration, positions, velocities, gbest_fitness):
            seen.append(iteration)
            assert (positions >= lower).all() and (positions <= upper).all()
            assert (velocities >= v_min).all() and (velocities <= v_max).all()

        ss.run(store, topology, cfg, observer=observer)
        assert seen == list(range(1, 26))

    @pytest.mark.parametrize("per_dimension_r", [False, True])
    def test_first_round_is_draw_then_pso_step(self, store, topology, per_dimension_r):
        cfg = ss.PsoConfig(
            swarm_size=5, max_iterations=1, seed=8, per_dimension_r=per_dimension_r
        )
        seen = []
        ss.run(store, topology, cfg, observer=lambda _, x, v, __: seen.append((x, v)))

        rng = np.random.default_rng(cfg.seed)
        positions, velocities = ss.draw_swarm(cfg, topology, rng)
        fitness = ss.FitnessEvaluator(store, cfg).evaluate_batch(positions)
        gbest = positions[np.argmin(fitness)]
        if per_dimension_r:
            r = rng.random((5, 2, 8))
            r1, r2 = r[:, 0, :], r[:, 1, :]
        else:
            r = rng.random((5, 2))
            r1, r2 = r[:, 0:1], r[:, 1:2]
        w = ss.inertia_weight(cfg, 0)
        want = ss.pso_step(positions, velocities, positions, gbest, w, r1, r2, cfg)
        assert (seen[0][0] == want[0]).all() and (seen[0][1] == want[1]).all()

    def test_stall_window_stops_early(self, store, topology):
        cfg = ss.PsoConfig(
            swarm_size=20, max_iterations=500, seed=0, match_radius=0, stall_window=10
        )
        result = ss.run(store, topology, cfg)
        assert result.iterations_run < 500
        tail = [f for _, f in result.gbest_trace[-10:]]
        assert len(set(tail)) == 1

    def test_gbest_tie_breaks_to_lowest_index(self, store):
        # one reachable product and a radius of zero put every particle in
        # the same fitness class, so gbest must stay with particle 0
        topology = store.topology
        cfg = ss.PsoConfig(
            swarm_size=5,
            max_iterations=4,
            seed=99,
            match_radius=0,
            bounds=ss.Bounds(product_lb=4, product_ub=4, stock_lb=-3, stock_ub=3),
        )
        rng = np.random.default_rng(99)
        d = ss.dimension(topology)
        expected_first = rng.uniform(
            cfg.bounds.position_lower(7), cfg.bounds.position_upper(7), size=(5, d)
        )[0]
        result = ss.run(store, topology, cfg)
        assert (result.best_position == expected_first).all()

    def test_fitness_falls_as_matches_rise(self, tiny_rows):
        # two stores identical except one extra record equal to the query;
        # zero link times pin t_stock, so only P(occ) moves
        topology, _, _, raws = tiny_rows
        query = (1, 5, 5, 5)
        base_history = [(1, 1, (5, 5, 5)), (2, 2, (9, 9, 9)), (3, 1, (7, 7, 7))]
        more_history = [(1, 1, (5, 5, 5)), (2, 2, (9, 9, 9)), (3, 1, (5, 5, 5))]
        leads = [(1, (0, 0)), (2, (0, 0)), (3, (0, 0))]
        cfg = ss.PsoConfig(match_radius=0)
        lo = ss.HistoryStore.from_records(topology, base_history, leads, raws)
        hi = ss.HistoryStore.from_records(topology, more_history, leads, raws)
        assert ss.evaluate(hi, cfg, query) < ss.evaluate(lo, cfg, query)

    def test_run_rejects_foreign_topology(self, store):
        other = ss.Topology(dc_count=1, agents_per_dc=(2,))
        with pytest.raises(DimensionMismatch):
            ss.run(store, other, ss.PsoConfig())

    def test_run_rejects_uncovered_product_bounds(self, store, topology):
        cfg = ss.PsoConfig(bounds=ss.Bounds(product_ub=6))
        with pytest.raises(MissingRawMaterial):
            ss.run(store, topology, cfg)

    def test_run_rejects_reachable_log_zero(self, store, topology):
        cfg = ss.PsoConfig(priorities=ss.PriorityConfig(5, 5, 0))
        with pytest.raises(LogDomainError):
            ss.run(store, topology, cfg)

    def test_per_dimension_r_changes_draws_but_stays_valid(self, store, topology):
        base = dict(swarm_size=6, max_iterations=10, seed=4, match_radius=100)
        scalar = ss.run(store, topology, ss.PsoConfig(per_dimension_r=False, **base))
        vector = ss.run(store, topology, ss.PsoConfig(per_dimension_r=True, **base))
        fits = [f for _, f in vector.gbest_trace]
        assert all(a >= b for a, b in zip(fits, fits[1:]))
        assert scalar.gbest_trace != vector.gbest_trace or (
            scalar.best_position != vector.best_position
        ).any()
