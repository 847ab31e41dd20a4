"""The one matcher against a brute-force reference.

``evaluate_batch``, ``evaluate`` and ``match_individual`` all go through the
box test in ``HistoryStore``; the reference below is a plain loop over
``store.records`` that shares no code with it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stockswarm as ss
from stockswarm.errors import ConfigError, DimensionMismatch

TID1_POSITION = [3, 632, 424, 247, -298, -115, 365, 961]


def reference_match(store, product_id, levels, radius):
    """TIDs of the records of ``product_id`` within ``radius`` of ``levels``
    on every member, and their summed stock lead time."""
    tids = [
        r.tid
        for r in store.records
        if r.product_id == product_id
        and all(abs(v - q) <= radius for v, q in zip(r.levels, levels))
    ]
    link_days = {r.tid: sum(r.link_times) for r in store.lead_records}
    return tids, sum(link_days[t] for t in tids)


def reference_fitness(store, evaluator, positions, radius):
    """Fitness of each position, matched by ``reference_match``."""
    pids, occ, t_stock = [], [], []
    for position in positions:
        rounded = [int(math.copysign(math.floor(abs(x) + 0.5), x)) for x in position]
        tids, lead = reference_match(store, rounded[0], rounded[1:], radius)
        pids.append(rounded[0])
        occ.append(len(tids))
        t_stock.append(lead)
    return evaluator.score(np.array(pids), np.array(occ), np.array(t_stock))


def hexes(values):
    return [float(v).hex() for v in values]


SMALL_TOPOLOGY = ss.Topology(dc_count=1, agents_per_dc=(1,))
# Levels span [-3, 3], so radius 6 covers the whole stock range.
RADII = [0, 1, 6]


@st.composite
def small_stores(draw):
    """A 3-member store whose records use products 1..4 only; product 5
    and any product the draw leaves out have raw rows but no records."""
    levels = st.tuples(*[st.integers(min_value=-3, max_value=3)] * 3)
    rows = draw(
        st.lists(st.tuples(st.integers(min_value=1, max_value=4), levels), min_size=1, max_size=12)
    )
    history = [(tid, pid, lv) for tid, (pid, lv) in enumerate(rows, start=1)]
    links = st.tuples(st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=9))
    leads = [(tid, draw(links)) for tid, _, _ in history]
    raws = [(pid, 1, draw(st.integers(min_value=1, max_value=40))) for pid in range(1, 6)]
    return ss.HistoryStore.from_records(SMALL_TOPOLOGY, history, leads, raws)


positions = st.lists(
    st.tuples(
        st.floats(min_value=0.5, max_value=5.49),
        *[st.floats(min_value=-4.5, max_value=4.5)] * 3,
    ),
    min_size=1,
    max_size=12,
)
queries = st.tuples(st.integers(min_value=1, max_value=5), *[st.integers(min_value=-4, max_value=4)] * 3)


class TestAgainstReference:
    @pytest.mark.parametrize("radius", RADII)
    @given(store=small_stores(), batch=positions)
    @settings(max_examples=60, deadline=None)
    def test_evaluate_batch_bitwise(self, radius, store, batch):
        evaluator = ss.FitnessEvaluator(store, ss.PsoConfig(match_radius=radius))
        got = evaluator.evaluate_batch(np.array(batch))
        want = reference_fitness(store, evaluator, batch, radius)
        assert hexes(got) == hexes(want)
        assert hexes(evaluator.evaluate(p) for p in batch) == hexes(want)

    @pytest.mark.parametrize("radius", RADII)
    @given(store=small_stores(), query=queries)
    @settings(max_examples=60, deadline=None)
    def test_match_individual_tids(self, radius, store, query):
        got = store.match_individual(query[0], query[1:], radius)
        tids, _ = reference_match(store, query[0], query[1:], radius)
        assert list(got.tids) == tids
        assert got.occurrences == len(tids)

    @given(store=small_stores(), query=queries)
    @settings(max_examples=30, deadline=None)
    def test_product_without_records_matches_nothing(self, store, query):
        evaluator = ss.FitnessEvaluator(store, ss.PsoConfig(match_radius=6))
        position = (5, *query[1:])
        assert store.match_individual(5, query[1:], 6).tids == ()
        want = evaluator.score(np.array([5]), np.array([0]), np.array([0]))
        assert hexes(evaluator.evaluate_batch(np.array([position]))) == hexes(want)

    @pytest.mark.parametrize(
        "batch",
        [
            [[3, 1, 2]],
            [3.0, 1.0, 2.0, 0.0],
            [[1.0, 0.0, 0.0, 0.0, 0.0]],
            [[[1.0, 0.0, 0.0, 0.0]]],
            np.zeros((2, 0)),
        ],
        ids=["narrow", "1-d", "wide", "3-d", "empty-rows"],
    )
    def test_wrong_width_batch_raises(self, tiny_store, batch):
        evaluator = ss.FitnessEvaluator(tiny_store, ss.PsoConfig())
        with pytest.raises(DimensionMismatch):
            evaluator.evaluate_batch(np.array(batch, dtype=np.float64))


class TestFixture:
    def test_tid1_formula_inputs(self, store):
        # the worked example: product 3, P(occ) 1, t_stock 121, t_raw 89
        tids, t_stock = reference_match(store, 3, TID1_POSITION[1:], 0)
        assert (tids, t_stock, store.raw_lead_time_total(3)) == ([1], 121, 89)
        evaluator = ss.FitnessEvaluator(store, ss.PsoConfig(match_radius=0))
        want = reference_fitness(store, evaluator, [TID1_POSITION], 0)
        assert evaluator.evaluate(TID1_POSITION).hex() == float(want[0]).hex()
        assert list(store.match_individual(3, TID1_POSITION[1:], 0).tids) == tids

    def test_batch_matches_reference(self, store):
        evaluator = ss.FitnessEvaluator(store, ss.PsoConfig(match_radius=50))
        rng = np.random.default_rng(3)
        batch = np.column_stack(
            [rng.uniform(1, 5, 16)] + [rng.uniform(-1000, 1000, 16) for _ in range(7)]
        )
        # half the rows sit on recorded vectors, so some of them match
        batch[::2] = [(r.product_id, *r.levels) for r in store.records[:8]]
        want = reference_fitness(store, evaluator, batch.tolist(), 50)
        assert hexes(evaluator.evaluate_batch(batch)) == hexes(want)
        assert hexes(evaluator.evaluate(row) for row in batch) == hexes(want)


class TestQueriesOutsideInt64:
    @pytest.mark.parametrize(
        "level",
        [1e30, -1e30, math.inf, math.nan, 2.0**63],
        ids=["1e30", "-1e30", "inf", "nan", "2**63"],
    )
    def test_evaluate_rejects_position(self, store, level):
        evaluator = ss.FitnessEvaluator(store, ss.PsoConfig(match_radius=0))
        with pytest.raises(ConfigError, match="int64"):
            evaluator.evaluate([1, level, 0, 0, 0, 0, 0, 0])
        batch = np.ones((2, 8))
        batch[1, 1] = level
        with pytest.raises(ConfigError, match="int64"):
            evaluator.evaluate_batch(batch)

    def test_evaluate_accepts_int64_edges(self, store):
        evaluator = ss.FitnessEvaluator(store, ss.PsoConfig(match_radius=0))
        unmatched = evaluator.score(np.array([1]), np.array([0]), np.array([0]))
        for level in (-(2.0**63), 2.0**63 - 1024):  # the extreme float64 values inside int64
            assert hexes([evaluator.evaluate([1, level, 0, 0, 0, 0, 0, 0])]) == hexes(unmatched)

    @pytest.mark.parametrize(
        "levels",
        [[2**70] * 7, [math.nan] * 7, [632.5, 424, 247, -298, -115, 365, 961]],
        ids=["2**70", "nan", "632.5"],
    )
    def test_match_individual_rejects_level(self, store, levels):
        with pytest.raises(ConfigError, match="int64"):
            store.match_individual(3, levels, 0)
        with pytest.raises(ConfigError, match="int64"):
            store.match_individual(3, np.array(levels, dtype=np.float64), 0)


# Levels near +-2**62: a query and a record can lie 2**63 or more apart, which
# an int64 difference of the two would wrap.
FAR = 2**62
WIDE_RADII = [0, 1, 6, FAR]


@st.composite
def wide_stores(draw):
    """A 3-member store like ``small_stores`` whose levels cluster around
    -2**62, 0 and 2**62."""
    level = st.builds(lambda base, offset: base + offset, st.sampled_from([-FAR, 0, FAR]), st.integers(-3, 3))
    rows = draw(
        st.lists(st.tuples(st.integers(1, 4), st.tuples(level, level, level)), min_size=1, max_size=12)
    )
    history = [(tid, pid, lv) for tid, (pid, lv) in enumerate(rows, start=1)]
    leads = [(tid, (tid % 7, 3)) for tid, _, _ in history]
    raws = [(pid, 1, pid * 3) for pid in range(1, 6)]
    return ss.HistoryStore.from_records(SMALL_TOPOLOGY, history, leads, raws)


wide_level = st.builds(
    lambda base, offset: base + offset, st.sampled_from([-float(FAR), 0.0, float(FAR)]),
    st.floats(min_value=-4.5, max_value=4.5),
)
wide_positions = st.lists(
    st.tuples(st.floats(min_value=0.5, max_value=5.49), wide_level, wide_level, wide_level),
    min_size=1,
    max_size=12,
)
wide_queries = st.tuples(
    st.integers(1, 5),
    *[st.builds(lambda base, offset: base + offset, st.sampled_from([-FAR, 0, FAR]), st.integers(-4, 4))] * 3,
)


class TestFarLevels:
    @pytest.mark.parametrize("radius", WIDE_RADII)
    @given(store=wide_stores(), batch=wide_positions)
    @settings(max_examples=60, deadline=None)
    def test_evaluate_batch_bitwise(self, radius, store, batch):
        evaluator = ss.FitnessEvaluator(store, ss.PsoConfig(match_radius=radius))
        want = reference_fitness(store, evaluator, batch, radius)
        assert hexes(evaluator.evaluate_batch(np.array(batch))) == hexes(want)

    @pytest.mark.parametrize("radius", WIDE_RADII + [2**63 - 1, 2**63, 2**64 - 2, 10**30])
    @given(store=wide_stores(), query=wide_queries)
    @settings(max_examples=60, deadline=None)
    def test_match_individual_tids(self, radius, store, query):
        tids, _ = reference_match(store, query[0], query[1:], radius)
        assert list(store.match_individual(query[0], query[1:], radius).tids) == tids

    def test_opposite_corner_does_not_match(self):
        store = ss.HistoryStore.from_records(
            SMALL_TOPOLOGY, [(1, 1, (FAR,) * 3)], [(1, (2, 3))], [(1, 1, 4)]
        )
        config = ss.PsoConfig(match_radius=0, bounds=ss.Bounds(stock_lb=-FAR, stock_ub=FAR))
        assert store.match_individual(1, (-FAR,) * 3, 0).tids == ()
        assert store.match_individual(1, (FAR,) * 3, 0).tids == (1,)
        evaluator = ss.FitnessEvaluator(store, config)
        unmatched = evaluator.score(np.array([1]), np.array([0]), np.array([0]))
        assert hexes([evaluator.evaluate([1, -FAR, -FAR, -FAR])]) == hexes(unmatched)
        assert evaluator.evaluate([1, FAR, FAR, FAR]) != unmatched[0]

    @pytest.mark.parametrize("radius", [2**64 - 1, 2**64, 10**30])
    def test_radius_past_int64_matches_every_record(self, store, radius):
        for pid in store.products:
            tids = store.product_rows(pid)[0].tolist()
            for query in ([0] * 7, [-(2**63)] * 7, [2**63 - 1] * 7):
                assert list(store.match_individual(pid, query, radius).tids) == tids
