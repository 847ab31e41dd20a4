"""Action interpretation and report rendering."""

import json
import math

import pytest
from hypothesis import given, strategies as st

import stockswarm as ss
from stockswarm.errors import ConfigError, DimensionMismatch

BEST_INDIVIDUAL = [3, -602, -280, -821, 398, 382, -764, -125]

EXPECTED_ACTIONS = [
    ("factory", "increase", 602),
    ("distribution centre 1", "increase", 280),
    ("distribution centre 2", "increase", 821),
    ("agent 1", "decrease", 398),
    ("agent 2", "decrease", 382),
    ("agent 3", "increase", 764),
    ("agent 4", "increase", 125),
]


class TestMemberLabels:
    def test_default_chain(self, topology):
        assert ss.member_labels(topology) == (
            "factory",
            "distribution centre 1",
            "distribution centre 2",
            "agent 1",
            "agent 2",
            "agent 3",
            "agent 4",
        )

    def test_uneven_chain_numbers_agents_globally(self):
        labels = ss.member_labels(ss.Topology(dc_count=2, agents_per_dc=(3, 1)))
        assert labels == (
            "factory",
            "distribution centre 1",
            "distribution centre 2",
            "agent 1",
            "agent 2",
            "agent 3",
            "agent 4",
        )

    def test_factory_only(self):
        assert ss.member_labels(ss.Topology(dc_count=0, agents_per_dc=())) == ("factory",)


class TestInterpret:
    def test_reference_action_list(self, topology):
        rec = ss.interpret(BEST_INDIVIDUAL, topology)
        assert rec.product_id == 3
        assert [
            (a.member_label, a.direction, a.quantity) for a in rec.actions
        ] == EXPECTED_ACTIONS
        assert [a.member_index for a in rec.actions] == list(range(7))

    def test_all_zero_levels_mean_no_action(self, topology):
        rec = ss.interpret([1, 0, 0, 0, 0, 0, 0, 0], topology)
        assert all(a.direction == "none" and a.quantity == 0 for a in rec.actions)

    def test_mixed_example(self, topology):
        rec = ss.interpret([2, 100, -50, 0, 0, 0, 0, 0], topology)
        got = [(a.direction, a.quantity) for a in rec.actions]
        assert got == [
            ("decrease", 100),
            ("increase", 50),
            ("none", 0),
            ("none", 0),
            ("none", 0),
            ("none", 0),
            ("none", 0),
        ]

    def test_rounds_continuous_positions(self, topology):
        rec = ss.interpret([2.5, 99.5, -49.5, 0.2, -0.2, 0, 0, 0], topology)
        assert rec.product_id == 3
        assert (rec.actions[0].direction, rec.actions[0].quantity) == ("decrease", 100)
        assert (rec.actions[1].direction, rec.actions[1].quantity) == ("increase", 50)
        assert rec.actions[2].direction == rec.actions[3].direction == "none"

    def test_integer_positions_are_exact(self):
        # 2**60 + 100 has no float64 of its own; it used to report 2**60.
        rec = ss.interpret((1, 2**60 + 100, -(2**63), 0), ss.Topology(dc_count=1, agents_per_dc=(1,)))
        assert (rec.actions[0].direction, rec.actions[0].quantity) == ("decrease", 2**60 + 100)
        assert (rec.actions[1].direction, rec.actions[1].quantity) == ("increase", 2**63)

    def test_provenance_defaults(self, topology):
        rec = ss.interpret(BEST_INDIVIDUAL, topology)
        assert math.isnan(rec.fitness)
        assert rec.weights is None
        assert rec.iterations == 0

    def test_dimension_mismatch(self, topology):
        with pytest.raises(DimensionMismatch):
            ss.interpret([3, 1, 2], topology)

    @given(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=7, max_size=7))
    def test_sign_flip_swaps_directions(self, levels):
        topology = ss.Topology()
        plus = ss.interpret([2] + levels, topology)
        minus = ss.interpret([2] + [-v for v in levels], topology)
        swap = {"increase": "decrease", "decrease": "increase", "none": "none"}
        for a, b in zip(plus.actions, minus.actions):
            assert b.direction == swap[a.direction]
            assert b.quantity == a.quantity

    @given(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=7, max_size=7))
    def test_actions_reconstruct_signed_vector(self, levels):
        topology = ss.Topology()
        rec = ss.interpret([4] + levels, topology)
        signs = {"increase": -1, "decrease": 1, "none": 0}
        assert [signs[a.direction] * a.quantity for a in rec.actions] == levels
        for action, level in zip(rec.actions, levels):
            assert action.quantity == abs(level)


class TestActionValidation:
    def test_direction_quantity_coupling(self):
        with pytest.raises(ConfigError):
            ss.Action(0, "factory", "none", 5)
        with pytest.raises(ConfigError):
            ss.Action(0, "factory", "increase", 0)
        with pytest.raises(ConfigError):
            ss.Action(0, "factory", "increase", -1)
        with pytest.raises(ConfigError):
            ss.Action(0, "factory", "hold", 0)


class TestRenderReport:
    def _full_recommendation(self, topology):
        return ss.interpret(
            BEST_INDIVIDUAL,
            topology,
            fitness=3.8220,
            weights=ss.weights_from_priorities(ss.PriorityConfig(10, 5, 1)),
            iterations=100,
        )

    def test_text_layout(self, topology):
        rec = self._full_recommendation(topology)
        lines = ss.render_report(rec, "text").decode("utf-8").splitlines()
        assert len(lines) == 7 + 4
        first = lines[0]
        assert "factory" in first and "increase" in first and "602" in first
        assert lines[7] == "product: 3"
        assert lines[8].startswith("fitness: ")
        assert lines[9] == "weights: 0.625, 0.3125, 0.0625"
        assert lines[10] == "iterations: 100"

    def test_text_no_change_line(self, topology):
        rec = ss.interpret([1, 0, 0, 0, 0, 0, 0, 0], topology)
        lines = ss.render_report(rec, "text").decode("utf-8").splitlines()
        assert lines[0] == "factory: no change"

    def test_json_schema_and_key_order(self, topology):
        rec = self._full_recommendation(topology)
        payload = json.loads(
            ss.render_report(rec, "json").decode("utf-8"),
            object_pairs_hook=lambda pairs: pairs,
        )
        assert [k for k, _ in payload] == [
            "product_id",
            "fitness",
            "weights",
            "iterations",
            "actions",
        ]
        body = dict(payload)
        assert body["product_id"] == 3
        assert body["weights"] == [0.625, 0.3125, 0.0625]
        assert body["iterations"] == 100
        actions = [dict(a) for a in body["actions"]]
        assert [list(a) for a in body["actions"]] == [
            [("member", m), ("direction", d), ("quantity", q)]
            for m, d, q in EXPECTED_ACTIONS
        ]
        assert actions[0] == {"member": "factory", "direction": "increase", "quantity": 602}

    def test_json_unknown_provenance_is_null(self, topology):
        rec = ss.interpret([1, 0, 0, 0, 0, 0, 0, 0], topology)
        body = json.loads(ss.render_report(rec, "json").decode("utf-8"))
        assert body["fitness"] is None
        assert body["weights"] is None
        assert all(a["direction"] == "none" for a in body["actions"])
        assert len(body["actions"]) == 7

    def test_rendering_is_deterministic(self, topology):
        rec = self._full_recommendation(topology)
        assert ss.render_report(rec, "text") == ss.render_report(rec, "text")
        assert ss.render_report(rec, "json") == ss.render_report(rec, "json")

    def test_json_round_trip_is_byte_identical(self, topology):
        rec = self._full_recommendation(topology)
        rendered = ss.render_report(rec, "json")
        body = json.loads(rendered.decode("utf-8"))
        labels = ss.member_labels(topology)
        rebuilt = ss.Recommendation(
            product_id=body["product_id"],
            actions=tuple(
                ss.Action(i, a["member"], a["direction"], a["quantity"])
                for i, a in enumerate(body["actions"])
            ),
            fitness=math.nan if body["fitness"] is None else body["fitness"],
            weights=None if body["weights"] is None else ss.Weights(*body["weights"]),
            iterations=body["iterations"],
        )
        assert tuple(labels) == tuple(a.member_label for a in rebuilt.actions)
        assert ss.render_report(rebuilt, "json") == rendered

    def test_unknown_format_rejected(self, topology):
        rec = self._full_recommendation(topology)
        with pytest.raises(ConfigError):
            ss.render_report(rec, "yaml")
