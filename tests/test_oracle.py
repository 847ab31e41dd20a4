"""Enumeration baseline: candidate set, minimum, lower-bound property."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stockswarm as ss
from stockswarm import oracle


def reference_oracle(store, config):
    """The per-candidate loop the grouped oracle replaced: one ``evaluate``
    call, and so one scan of the product's records, per candidate."""
    evaluator = ss.FitnessEvaluator(store, config)
    candidates, skipped = ss.enumerate_candidates(store, config)
    best_position = candidates[0]
    best_fitness = evaluator.evaluate(np.asarray(best_position, dtype=np.float64))
    for candidate in candidates[1:]:
        fitness = evaluator.evaluate(np.asarray(candidate, dtype=np.float64))
        if fitness < best_fitness:
            best_position, best_fitness = candidate, fitness
    return ss.OracleResult(
        best_position=tuple(int(v) for v in best_position),
        best_fitness=float(best_fitness),
        evaluations=len(candidates),
        skipped_products=skipped,
    )


SMALL_TOPOLOGY = ss.Topology(dc_count=1, agents_per_dc=(1,))
SMALL_BOUNDS = dict(product_lb=1, stock_lb=-3, stock_ub=3)


@st.composite
def small_stores(draw):
    """A 3-member store over a tight level range, with forced duplicate rows.

    Products 1..4 may occur; rows are repeated verbatim and then shuffled
    across TIDs, so equal level rows interleave with other products.
    """
    levels = st.tuples(*[st.integers(min_value=-3, max_value=3)] * 3)
    rows = draw(
        st.lists(st.tuples(st.integers(min_value=1, max_value=4), levels), min_size=1, max_size=10)
    )
    repeats = draw(st.lists(st.integers(min_value=0, max_value=len(rows) - 1), max_size=10))
    rows = draw(st.permutations(rows + [rows[i] for i in repeats]))
    history = [(tid, pid, lv) for tid, (pid, lv) in enumerate(rows, start=1)]
    links = st.tuples(st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=9))
    leads = [(tid, draw(links)) for tid, _, _ in history]
    raws = [(pid, 1, draw(st.integers(min_value=1, max_value=40))) for pid in range(1, 5)]
    return ss.HistoryStore.from_records(SMALL_TOPOLOGY, history, leads, raws)


class TestAgainstReference:
    @pytest.mark.parametrize("radius", [0, 1, 10**6])
    @given(
        store=small_stores(),
        product_ub=st.integers(min_value=1, max_value=4),
        priorities=st.sampled_from([(10.0, 5.0, 1.0), (0.0, 1.0, 1.0), (1.0, 0.0, 3.0)]),
        log_base=st.sampled_from(["natural", "base10"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_per_candidate_loop(self, radius, store, product_ub, priorities, log_base):
        cfg = ss.PsoConfig(
            match_radius=radius,
            bounds=ss.Bounds(product_ub=product_ub, **SMALL_BOUNDS),
            priorities=ss.PriorityConfig(*priorities),
            log_base=log_base,
        )
        got = ss.oracle_minimum(store, cfg)
        want = reference_oracle(store, cfg)
        assert got == want
        assert got.best_fitness.hex() == want.best_fitness.hex()

    @given(store=small_stores(), product_ub=st.integers(min_value=1, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_grouped_fitness_bitwise_per_candidate(self, store, product_ub):
        cfg = ss.PsoConfig(match_radius=0, bounds=ss.Bounds(product_ub=product_ub, **SMALL_BOUNDS))
        evaluator = ss.FitnessEvaluator(store, cfg)
        candidates, _ = ss.enumerate_candidates(store, cfg)
        grouped = oracle._exact_match_fitness(store, evaluator, candidates)
        scanned = [evaluator.evaluate(np.asarray(c, dtype=np.float64)) for c in candidates]
        assert [float(f).hex() for f in grouped] == [f.hex() for f in scanned]


class TestTieRule:
    def test_earlier_of_two_equal_records_wins(self):
        # Different levels, one occurrence each and equal lead sums: equal
        # fitness.  TID 1 is listed second, so TID order, not input order,
        # decides.
        history = [(2, 1, (5, 5, 5)), (1, 1, (7, 7, 7))]
        leads = [(1, (1, 2)), (2, (2, 1))]
        raws = [(1, 1, 1000)]
        store = ss.HistoryStore.from_records(SMALL_TOPOLOGY, history, leads, raws)
        cfg = ss.PsoConfig(
            match_radius=0, bounds=ss.Bounds(product_lb=1, product_ub=1, stock_lb=-9, stock_ub=9)
        )
        evaluator = ss.FitnessEvaluator(store, cfg)
        assert evaluator.evaluate([1, 5, 5, 5]) == evaluator.evaluate([1, 7, 7, 7])
        result = ss.oracle_minimum(store, cfg)
        assert result.best_fitness == evaluator.evaluate([1, 7, 7, 7])
        assert result.best_position == (1, 7, 7, 7)
        assert result == reference_oracle(store, cfg)

    def test_record_beats_equal_empty_match_vector(self):
        # r1 = 0 and zero link times: every candidate of a product scores
        # log(w3 * t_raw), whatever it matches.  Product 2 has the cheaper
        # raw materials; its record precedes its empty-match vector.
        history = [(1, 1, (0, 0, 0)), (2, 2, (4, 4, 4))]
        leads = [(1, (0, 0)), (2, (0, 0))]
        raws = [(1, 1, 9), (2, 1, 3)]
        store = ss.HistoryStore.from_records(SMALL_TOPOLOGY, history, leads, raws)
        cfg = ss.PsoConfig(
            match_radius=0,
            bounds=ss.Bounds(product_lb=1, product_ub=2, stock_lb=-9, stock_ub=9),
            priorities=ss.PriorityConfig(0.0, 1.0, 1.0),
        )
        empty = ss.empty_match_candidate(store, 2, cfg)
        evaluator = ss.FitnessEvaluator(store, cfg)
        assert evaluator.evaluate(empty) == evaluator.evaluate([2, 4, 4, 4])
        result = ss.oracle_minimum(store, cfg)
        assert result.best_position == (2, 4, 4, 4)
        assert result == reference_oracle(store, cfg)


class TestEmptyMatchCandidate:
    def test_candidates_match_nothing(self, store):
        for radius in (0, 1, 100):
            cfg = ss.PsoConfig(match_radius=radius)
            for pid in store.products:
                candidate = ss.empty_match_candidate(store, pid, cfg)
                assert candidate is not None
                assert candidate[0] == pid
                result = store.match_individual(pid, candidate[1:], radius)
                assert result.occurrences == 0

    def test_unknown_product_gets_trivial_candidate(self, store):
        cfg = ss.PsoConfig(match_radius=0, bounds=ss.Bounds(product_ub=9))
        candidate = ss.empty_match_candidate(store, 9, cfg)
        assert candidate is not None
        assert store.match_individual(9, candidate[1:], 0).occurrences == 0

    def test_blanketed_range_yields_none(self, tiny_rows):
        topology, _, leads, raws = tiny_rows
        history = [(1, 1, (0, 0, 0)), (2, 1, (1, -1, 1)), (3, 1, (-1, 1, -1))]
        store = ss.HistoryStore.from_records(topology, history, leads, raws)
        cfg = ss.PsoConfig(
            match_radius=2,
            bounds=ss.Bounds(product_lb=1, product_ub=1, stock_lb=-2, stock_ub=2),
        )
        assert ss.empty_match_candidate(store, 1, cfg) is None


class TestEnumeration:
    def test_fixture_candidate_count(self, store):
        cfg = ss.PsoConfig(match_radius=0)
        candidates, skipped = ss.enumerate_candidates(store, cfg)
        assert len(candidates) == 20 + 5
        assert skipped == ()
        for record, candidate in zip(store.records, candidates[:20]):
            assert candidate == (record.product_id, *record.levels)

    def test_single_record_store(self, tiny_rows):
        topology, _, leads, raws = tiny_rows
        history = [(1, 1, (10, 20, 30))]
        store = ss.HistoryStore.from_records(topology, history, [leads[0]], raws)
        cfg = ss.PsoConfig(
            match_radius=0, bounds=ss.Bounds(product_lb=1, product_ub=2, stock_lb=-50, stock_ub=50)
        )
        result = ss.oracle_minimum(store, cfg)
        # 1 record + one empty-match candidate per reachable product id
        assert result.evaluations == 1 + 2
        assert result.skipped_products == ()

    def test_skipped_products_counted(self, tiny_rows):
        topology, _, leads, raws = tiny_rows
        history = [(1, 1, (0, 0, 0)), (2, 2, (0, 0, 0))]
        store = ss.HistoryStore.from_records(topology, history, leads[:2], raws)
        cfg = ss.PsoConfig(
            match_radius=60,
            bounds=ss.Bounds(product_lb=1, product_ub=2, stock_lb=-50, stock_ub=50),
        )
        result = ss.oracle_minimum(store, cfg)
        assert result.skipped_products == (1, 2)
        assert result.evaluations == 2


class TestOracleMinimum:
    def test_fixture_minimum_value(self, store):
        cfg = ss.PsoConfig(match_radius=0)
        result = ss.oracle_minimum(store, cfg)
        assert result.evaluations == 25
        # minimum is the empty-match class of the cheapest raw-material product
        expected = ss.evaluate(store, cfg, result.best_position)
        assert result.best_fitness == expected
        assert result.best_position[0] == 1
        assert store.match_individual(
            1, result.best_position[1:], 0
        ).occurrences == 0

    def test_deterministic(self, store):
        cfg = ss.PsoConfig(match_radius=0)
        assert ss.oracle_minimum(store, cfg) == ss.oracle_minimum(store, cfg)

    def test_minimum_not_above_any_candidate(self, store):
        cfg = ss.PsoConfig(match_radius=0)
        result = ss.oracle_minimum(store, cfg)
        evaluator = ss.FitnessEvaluator(store, cfg)
        candidates, _ = ss.enumerate_candidates(store, cfg)
        for candidate in candidates:
            assert result.best_fitness <= evaluator.evaluate(
                [float(v) for v in candidate]
            )

    def test_lower_bounds_swarm_at_radius_zero(self, store, topology):
        cfg = ss.PsoConfig(match_radius=0)
        oracle = ss.oracle_minimum(store, cfg)
        for seed in (0, 1, 2, 3, 4):
            run_cfg = ss.PsoConfig(match_radius=0, max_iterations=60, seed=seed)
            result = ss.run(store, topology, run_cfg)
            assert oracle.best_fitness <= result.best_fitness

    def test_radius_follows_config(self, store):
        # at a huge radius every record of the product matches, so the
        # enumeration includes a candidate seeing all 7 PI=3 periods
        cfg = ss.PsoConfig(match_radius=10**6)
        evaluator = ss.FitnessEvaluator(store, cfg)
        record_vector = next(
            (r.product_id, *r.levels) for r in store.records if r.product_id == 3
        )
        pid, occ, t_stock, _ = evaluator.components([float(v) for v in record_vector])
        assert (pid, occ) == (3, 7)
        result = ss.oracle_minimum(store, cfg)
        assert result.evaluations >= 20
