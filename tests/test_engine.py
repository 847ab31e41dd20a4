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
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            ss.PsoConfig(**kwargs)


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

    def test_batch_matches_scalar_path(self, store):
        evaluator = ss.FitnessEvaluator(store, ss.PsoConfig(match_radius=50))
        rng = np.random.default_rng(3)
        positions = np.column_stack(
            [rng.uniform(1, 5, 16)] + [rng.uniform(-1000, 1000, 16) for _ in range(7)]
        )
        batch = evaluator.evaluate_batch(positions)
        for row, value in zip(positions, batch):
            assert evaluator.evaluate(row) == value

    def test_components_exposes_formula_inputs(self, store):
        evaluator = ss.FitnessEvaluator(store, ss.PsoConfig(match_radius=0))
        pid, occ, t_stock, t_raw = evaluator.components(TID1_POSITION)
        assert (pid, occ, t_stock, t_raw) == (3, 1, 121, 89)

    def test_dimension_mismatch(self, store):
        with pytest.raises(DimensionMismatch):
            ss.evaluate(store, ss.PsoConfig(), [3, 1, 2])

    def test_missing_raw_material(self, store):
        cfg = ss.PsoConfig(bounds=ss.Bounds(product_ub=9))
        with pytest.raises(MissingRawMaterial):
            ss.evaluate(store, cfg, [9, 0, 0, 0, 0, 0, 0, 0])

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
    def _particle(self, position, velocity, pbest):
        return ss.Particle(
            position=np.array(position, dtype=np.float64),
            velocity=np.array(velocity, dtype=np.float64),
            pbest_position=np.array(pbest, dtype=np.float64),
            pbest_fitness=0.0,
        )

    def test_reference_arithmetic(self):
        # 0.9*1.0 + 2*0.5*10 + 2*0.25*(-4) = 8.9 on the stock dimension
        particle = self._particle([3.0, 0.0], [0.0, 1.0], [3.0, 10.0])
        gbest = np.array([3.0, -4.0])
        velocity = ss.update_velocity(
            particle, gbest, w=0.9, c1=2.0, c2=2.0, r1=0.5, r2=0.25, bounds=ss.Bounds()
        )
        assert velocity[1] == pytest.approx(8.9, abs=1e-12)
        assert velocity[0] == 0.0

    def test_zero_attraction_leaves_scaled_inertia(self):
        particle = self._particle([2.0, 7.0, -3.0], [1.0, -2.0, 0.5], [2.0, 7.0, -3.0])
        velocity = ss.update_velocity(
            particle,
            particle.position,
            w=0.7,
            c1=2.0,
            c2=2.0,
            r1=0.9,
            r2=0.1,
            bounds=ss.Bounds(),
        )
        assert velocity == pytest.approx(0.7 * particle.velocity)

    def test_velocity_clamped_to_limits(self):
        bounds = ss.Bounds(stock_lb=-500, stock_ub=500, velocity_fraction=0.2)
        v_min, v_max = bounds.velocity_limits(1)
        particle = self._particle([1.0, 0.0], [0.0, 0.0], [1.0, 500.0])
        velocity = ss.update_velocity(
            particle,
            np.array([1.0, 500.0]),
            w=0.9,
            c1=2.0,
            c2=2.0,
            r1=1.0,
            r2=1.0,
            bounds=bounds,
        )
        assert velocity[1] == v_max[1] == 200.0
        neutral = self._particle([1.0, 0.0], [0.0, 0.0], [1.0, 0.0])
        velocity = ss.update_velocity(
            neutral,
            np.array([1.0, -500.0]),
            w=0.9,
            c1=2.0,
            c2=2.0,
            r1=1.0,
            r2=1.0,
            bounds=bounds,
        )
        assert velocity[1] == v_min[1] == -200.0

    def test_position_identity_with_zero_velocity(self):
        particle = self._particle([2.0, 10.0, -20.0], [0, 0, 0], [2.0, 10.0, -20.0])
        new = ss.update_position(particle, np.zeros(3), ss.Bounds())
        assert (new == particle.position).all()

    def test_position_upper_clamp(self):
        particle = self._particle([4.8, 0.0], [0, 0], [4.8, 0.0])
        new = ss.update_position(particle, np.array([1.0, 0.0]), ss.Bounds())
        assert new[0] == 5.0

    def test_position_lower_clamp(self):
        particle = self._particle([2.0, -990.0], [0, 0], [2.0, -990.0])
        new = ss.update_position(particle, np.array([0.0, -25.0]), ss.Bounds())
        assert new[1] == -1000.0


class TestInitSwarm:
    def test_size_and_dimension(self, topology):
        cfg = ss.PsoConfig(swarm_size=2, seed=11)
        swarm = ss.init_swarm(cfg, topology, np.random.default_rng(cfg.seed))
        assert len(swarm) == 2
        assert all(p.position.shape == (8,) for p in swarm)
        assert all(p.velocity.shape == (8,) for p in swarm)

    def test_same_seed_bitwise_identical(self, topology):
        cfg = ss.PsoConfig(swarm_size=6, seed=42)
        a = ss.init_swarm(cfg, topology, np.random.default_rng(42))
        b = ss.init_swarm(cfg, topology, np.random.default_rng(42))
        for pa, pb in zip(a, b):
            assert (pa.position == pb.position).all()
            assert (pa.velocity == pb.velocity).all()

    def test_samples_inside_bounds(self, topology):
        cfg = ss.PsoConfig(swarm_size=40, seed=5)
        swarm = ss.init_swarm(cfg, topology, np.random.default_rng(5))
        lower = cfg.bounds.position_lower(7)
        upper = cfg.bounds.position_upper(7)
        v_min, v_max = cfg.bounds.velocity_limits(7)
        for p in swarm:
            assert (p.position >= lower).all() and (p.position <= upper).all()
            assert (p.velocity >= v_min).all() and (p.velocity <= v_max).all()

    def test_pbest_starts_at_initial_state(self, store, topology):
        cfg = ss.PsoConfig(swarm_size=4, seed=3, match_radius=0)
        evaluator = ss.FitnessEvaluator(store, cfg)
        swarm = ss.init_swarm(
            cfg, topology, np.random.default_rng(3), fitness=evaluator.evaluate_batch
        )
        for p in swarm:
            assert (p.pbest_position == p.position).all()
            assert p.pbest_fitness == evaluator.evaluate(p.position)


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
