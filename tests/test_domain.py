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

    def test_rejects_negative_dc_count(self):
        with pytest.raises(ConfigError):
            ss.Topology(dc_count=-1, agents_per_dc=())

    def test_rejects_wrong_agents_length(self):
        with pytest.raises(ConfigError):
            ss.Topology(dc_count=2, agents_per_dc=(2,))

    def test_rejects_empty_dc(self):
        with pytest.raises(ConfigError):
            ss.Topology(dc_count=2, agents_per_dc=(2, 0))

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
