"""Topology, bounds, priority weights and the rounding rule."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import stockswarm as ss
from stockswarm.errors import ConfigError, DegenerateLeadTimeWeights, ZeroPrioritySum


class TestTopology:
    def test_default_is_seven_members(self):
        t = ss.Topology()
        assert t.dc_count == 2
        assert t.agents_per_dc == (2, 2)
        assert t.member_count == 7

    def test_dimension_adds_product_slot(self):
        assert ss.dimension(ss.Topology()) == 8

    def test_factory_only_chain(self):
        t = ss.Topology(dc_count=0, agents_per_dc=())
        assert t.member_count == 1
        assert ss.dimension(t) == 2

    def test_agents_list_coerced_to_tuple(self):
        t = ss.Topology(dc_count=2, agents_per_dc=[3, 1])
        assert t.agents_per_dc == (3, 1)
        assert t.member_count == 7
        t = ss.Topology(dc_count=np.int64(1), agents_per_dc=np.array([3]))
        assert (t.dc_count, t.agents_per_dc, t.member_count) == (1, (3,), 5)
        assert all(type(v) is int for v in (t.dc_count, *t.agents_per_dc))

    def test_rejects_negative_dc_count(self):
        with pytest.raises(ConfigError):
            ss.Topology(dc_count=-1, agents_per_dc=())

    def test_rejects_wrong_agents_length(self):
        with pytest.raises(ConfigError):
            ss.Topology(dc_count=2, agents_per_dc=(2,))

    def test_rejects_empty_dc(self):
        with pytest.raises(ConfigError):
            ss.Topology(dc_count=2, agents_per_dc=(2, 0))

    @pytest.mark.parametrize(
        "dc_count, agents, field",
        [
            (2.0, (2, 2), "dc_count"),  # once gave member_count 7.0
            (None, (), "dc_count"),
            (2, (2.7, "2"), "agents_per_dc entry"),  # once read as (2, 2)
            (1, ("x",), "agents_per_dc entry"),
            (1, 2, "agents_per_dc"),  # once a TypeError: not iterable
            (1, None, "agents_per_dc"),
        ],
    )
    def test_rejects_non_integer_sizes(self, dc_count, agents, field):
        with pytest.raises(ConfigError, match=f"^{field} must be an integer"):
            ss.Topology(dc_count=dc_count, agents_per_dc=agents)

    @given(st.lists(st.integers(min_value=1, max_value=9), min_size=0, max_size=6))
    def test_dimension_minus_one_is_member_count(self, agents):
        t = ss.Topology(dc_count=len(agents), agents_per_dc=tuple(agents))
        assert ss.dimension(t) - 1 == t.member_count

    @given(st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=8))
    def test_total_agents_permutation_invariant(self, agents):
        assert ss.total_agents(agents) == ss.total_agents(sorted(agents, reverse=True))
        assert ss.total_agents(agents) == sum(agents)


class TestBounds:
    def test_defaults(self):
        b = ss.Bounds()
        assert (b.product_lb, b.product_ub) == (1, 5)
        assert (b.stock_lb, b.stock_ub) == (-1000, 1000)
        assert b.velocity_fraction == 0.2

    def test_position_bound_vectors(self):
        b = ss.Bounds()
        lower, upper = b.position_lower(7), b.position_upper(7)
        assert lower.shape == upper.shape == (8,)
        assert lower[0] == 1.0 and upper[0] == 5.0
        assert (lower[1:] == -1000.0).all() and (upper[1:] == 1000.0).all()

    def test_velocity_limits_fraction_of_range(self):
        v_min, v_max = ss.Bounds().velocity_limits(7)
        assert v_max[0] == pytest.approx(0.2 * 4)
        assert np.allclose(v_max[1:], 0.2 * 2000)
        assert (v_min == -v_max).all()

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ConfigError):
            ss.Bounds(product_lb=6, product_ub=5)
        with pytest.raises(ConfigError):
            ss.Bounds(stock_lb=10, stock_ub=10)
        with pytest.raises(ConfigError):
            ss.Bounds(velocity_fraction=0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [{"stock_ub": 10**20}, {"stock_lb": -(2**63) - 1}, {"product_ub": 10**400}],
    )
    def test_rejects_bounds_outside_int64(self, kwargs):
        with pytest.raises(ConfigError, match="int64"):
            ss.Bounds(**kwargs)

    @pytest.mark.parametrize(
        "name, value",
        [("product_lb", 0.5), ("product_ub", 5.5), ("stock_lb", -1000.5), ("stock_ub", "1000")],
    )
    def test_rejects_non_integer_bound(self, store, name, value):
        # product_lb 0.5 once reached run's and the oracle's range() as
        # TypeError; stock_lb -1000.5 ran, and the oracle reported -1000
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            config = ss.PsoConfig(bounds=ss.Bounds(**{name: value}), match_radius=0)
            ss.oracle_minimum(store, config)

    @pytest.mark.parametrize("fraction", [float("inf"), float("nan"), 1e308])
    def test_rejects_velocity_fraction_without_finite_limits(self, fraction):
        with pytest.raises(ConfigError, match="velocity_fraction"):
            ss.Bounds(velocity_fraction=fraction)


class TestWeights:
    def test_reference_priorities_are_exact(self):
        w = ss.weights_from_priorities(ss.PriorityConfig(10, 5, 1))
        assert w.as_tuple() == (0.6250, 0.3125, 0.0625)

    def test_sum_is_one(self):
        w = ss.weights_from_priorities(ss.PriorityConfig(3, 7, 11))
        assert abs(sum(w.as_tuple()) - 1.0) <= 1e-12

    @given(
        st.tuples(
            st.floats(min_value=0.0, max_value=1e6),
            st.floats(min_value=1e-3, max_value=1e6),
            st.floats(min_value=1e-3, max_value=1e6),
        ),
        st.floats(min_value=1e-6, max_value=1e6),
    )
    def test_scaling_invariance(self, priorities, scale):
        r1, r2, r3 = priorities
        base = ss.weights_from_priorities(ss.PriorityConfig(r1, r2, r3))
        scaled = ss.weights_from_priorities(
            ss.PriorityConfig(r1 * scale, r2 * scale, r3 * scale)
        )
        assert abs(sum(base.as_tuple()) - 1.0) <= 1e-12
        for a, b in zip(base.as_tuple(), scaled.as_tuple()):
            assert a == pytest.approx(b, abs=1e-12)

    def test_zero_priorities_rejected(self):
        with pytest.raises(ZeroPrioritySum):
            ss.PriorityConfig(0, 0, 0)

    def test_degenerate_lead_time_priorities_rejected(self):
        with pytest.raises(DegenerateLeadTimeWeights):
            ss.PriorityConfig(1, 0, 0)

    def test_negative_priority_rejected(self):
        with pytest.raises(ConfigError):
            ss.PriorityConfig(-1, 5, 1)

    def test_weights_validate_range_and_sum(self):
        with pytest.raises(ConfigError):
            ss.Weights(0.5, 0.5, 0.5)
        with pytest.raises(ConfigError):
            ss.Weights(1.2, -0.1, -0.1)


class TestRounding:
    def test_halves_move_away_from_zero(self):
        got = ss.round_half_away_from_zero([0.5, -0.5, 2.5, -2.5, 1.4, -1.4, 0.0])
        assert got.tolist() == [1, -1, 3, -3, 1, -1, 0]
        assert got.dtype == np.int64

    def test_differs_from_bankers_rounding(self):
        # np.round would give 2 for both 1.5 and 2.5; this rule must not.
        got = ss.round_half_away_from_zero([1.5, 2.5])
        assert got.tolist() == [2, 3]

    @given(st.integers(min_value=-10**6, max_value=10**6))
    def test_integers_are_fixed_points(self, n):
        assert ss.round_half_away_from_zero([float(n)]).tolist() == [n]

    @given(st.floats(min_value=-1e6, max_value=1e6))
    def test_result_within_half_unit(self, x):
        r = int(ss.round_half_away_from_zero([x])[0])
        assert abs(r - x) <= 0.5

    def test_uint64_converts_exactly(self):
        # float64 would round 2**60 + 100 down to 2**60
        levels = np.array([1, 2**60 + 100, 2**63 - 1, 0], dtype=np.uint64)
        got = ss.round_half_away_from_zero(levels)
        assert got.dtype == np.int64
        assert got.tolist() == [1, 2**60 + 100, 2**63 - 1, 0]
        report = ss.interpret(levels, ss.Topology(dc_count=1, agents_per_dc=(1,)))
        assert [a.quantity for a in report.actions] == [2**60 + 100, 2**63 - 1, 0]

    def test_uint64_past_int64_rejected(self):
        with pytest.raises(ConfigError, match=f"position value {2**63} is outside the int64 range"):
            ss.round_half_away_from_zero(np.array([1, 2**63, 2**64 - 1], dtype=np.uint64))
