"""The one matcher against a brute-force reference.

``evaluate_batch``, ``evaluate``, ``match_counts`` and ``match_individual``
all go through the matcher in ``HistoryStore``; the reference below is a
plain loop over ``store.records`` that shares no code with it.
"""

import math
import numbers

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stockswarm as ss
from stockswarm import history
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


def reference_round(x):
    """Half away from zero; an integer stays exact."""
    if isinstance(x, numbers.Integral):
        return int(x)
    return int(math.copysign(math.floor(abs(x) + 0.5), x))


def reference_fitness(store, evaluator, positions, radius):
    """Fitness of each position, matched by ``reference_match``."""
    pids, occ, t_stock = [], [], []
    for position in positions:
        rounded = [reference_round(x) for x in position]
        tids, lead = reference_match(store, rounded[0], rounded[1:], radius)
        pids.append(rounded[0])
        occ.append(len(tids))
        t_stock.append(lead)
    return evaluator.score(np.array(pids), np.array(occ), np.array(t_stock))


def hexes(values):
    return [float(v).hex() for v in values]


# Chain sizes by member count: a factory-only chain, where the member-1
# window alone decides a match; 3 members, where members 2 and 3 each drop
# rows; and the default 7, where members 4..7 also share one mask.
TOPOLOGIES = {
    1: ss.Topology(dc_count=0, agents_per_dc=()),
    3: ss.Topology(dc_count=1, agents_per_dc=(1,)),
    7: ss.Topology(),
}
SMALL_TOPOLOGY = TOPOLOGIES[3]
# Levels span [-3, 3], so radius 6 covers the whole stock range.
RADII = [0, 1, 6]
# Edge stores hold levels at and next to the int64 limits, where the window
# bounds saturate; radius 2**64 covers their whole range.  The matcher takes
# it, while PsoConfig's int64 guard refuses it.
MATCH_RADII = RADII + [2**64]
EDGE_LEVELS = st.sampled_from([-(2**63), -(2**63) + 1, -1, 0, 1, 2**63 - 2, 2**63 - 1])


@st.composite
def small_stores(draw, level=st.integers(min_value=-3, max_value=3), members=3):
    """A store of ``members`` members whose records use products 1..4 only;
    product 5 and any product the draw leaves out have raw rows but no
    records."""
    levels = st.tuples(*[level] * members)
    rows = draw(
        st.lists(st.tuples(st.integers(min_value=1, max_value=4), levels), min_size=1, max_size=12)
    )
    history = [(tid, pid, lv) for tid, (pid, lv) in enumerate(rows, start=1)]
    links = st.tuples(*[st.integers(min_value=0, max_value=9)] * (members - 1))
    leads = [(tid, draw(links)) for tid, _, _ in history]
    raws = [(pid, 1, draw(st.integers(min_value=1, max_value=40))) for pid in range(1, 6)]
    return ss.HistoryStore.from_records(TOPOLOGIES[members], history, leads, raws)


def chain_stores(members):
    """Random stores of ``members`` members.  Dense stores draw each level
    from {-1, 1}: at 3 members a product has 8 possible level rows, so its
    records often repeat one, and a match counts and sums every record of a
    repeated row.  Many of them share member 1, so a member-1 window holds
    rows that the later members must still tell apart."""
    return st.one_of(
        small_stores(members=members),
        small_stores(st.sampled_from([-1, 1]), members),
        small_stores(EDGE_LEVELS, members),
    )


def with_chain_sizes(radii):
    """(radius, members) pairs: every radius on 3 members, and each radius
    above 0, where the window kernel runs, on 1 and 7 members too."""
    return [(r, 3) for r in radii] + [(r, m) for r in radii if r > 0 for m in (1, 7)]


@st.composite
def sparse_stores(draw):
    """A 3-member store of product 1 whose member 1 is always 0 and whose
    member 2 is a distinct multiple of 10 on each of 8 to 16 records.  A
    window at radius 1 holds every row, and member 2 passes at most one."""
    member2 = draw(st.lists(st.integers(-90, 90), min_size=8, max_size=16, unique=True))
    history = [
        (tid, 1, (0, 10 * v, draw(st.integers(-1, 1)))) for tid, v in enumerate(member2, start=1)
    ]
    leads = [(tid, (tid % 5, 2)) for tid, _, _ in history]
    return ss.HistoryStore.from_records(SMALL_TOPOLOGY, history, leads, [(1, 1, 7)])


ONE = st.integers(-1, 1)


def member2_share(store, batch, radius):
    """The share of (query, distinct row) window pairs that pass member 2;
    a query's window holds its product's distinct rows within ``radius``
    on member 1."""
    pairs = passed = 0
    for pid, *levels in batch:
        rows = np.unique(store.history[store.history[:, 1] == pid, 2:], axis=0)
        window = rows[np.abs(rows[:, 0] - levels[0]) <= radius]
        pairs += len(window)
        passed += int((np.abs(window[:, 1] - levels[1]) <= radius).sum())
    return passed / pairs


def chain_positions(members):
    return st.lists(
        st.tuples(
            st.floats(min_value=0.5, max_value=5.49),
            *[st.floats(min_value=-4.5, max_value=4.5) | st.sampled_from([-1.0, 1.0])] * members,
        ),
        min_size=1,
        max_size=12,
    )


def chain_queries(members):
    return st.tuples(
        st.integers(min_value=1, max_value=5),
        *[st.integers(min_value=-4, max_value=4) | st.sampled_from([-1, 1])] * members,
    )


queries = chain_queries(3)


class TestAgainstReference:
    @pytest.mark.parametrize("radius, members", with_chain_sizes(RADII))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_evaluate_batch_bitwise(self, radius, members, data):
        store, batch = data.draw(chain_stores(members)), data.draw(chain_positions(members))
        evaluator = ss.FitnessEvaluator(store, ss.PsoConfig(match_radius=radius))
        got = evaluator.evaluate_batch(np.array(batch))
        want = reference_fitness(store, evaluator, batch, radius)
        assert hexes(got) == hexes(want)
        assert hexes(evaluator.evaluate(p) for p in batch) == hexes(want)

    @pytest.mark.parametrize("radius, members", with_chain_sizes(MATCH_RADII))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_match_individual_tids(self, radius, members, data):
        store, query = data.draw(chain_stores(members)), data.draw(chain_queries(members))
        got = store.match_individual(query[0], query[1:], radius)
        tids, _ = reference_match(store, query[0], query[1:], radius)
        assert got.tolist() == tids

    @pytest.mark.parametrize("radius, members", with_chain_sizes(MATCH_RADII))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_match_counts(self, radius, members, data):
        # one product id for the whole batch, which broadcasts; product 5 has no records.
        # The recorded rows are queries too, so radius 0 finds every repeated row.
        store = data.draw(chain_stores(members))
        batch = data.draw(st.lists(chain_queries(members), max_size=12))
        levels = np.array([q[1:] for q in batch], dtype=np.int64).reshape(-1, members)
        levels = np.concatenate([levels, store.history[:, 2:]])
        for pid in range(1, 6):
            occ, t_stock = store.match_counts(pid, levels, radius)
            want = [reference_match(store, pid, q, radius) for q in levels.tolist()]
            assert occ.dtype == t_stock.dtype == np.int64
            assert occ.tolist() == [len(tids) for tids, _ in want]
            assert t_stock.tolist() == [lead for _, lead in want]
            assert [a.tolist() for a in store.match_counts(pid, levels[:0], radius)] == [[], []]

    @pytest.mark.parametrize("members", [1, 3, 7])
    @pytest.mark.parametrize("elements", [1, 10, 40])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_evaluate_batch_across_box_test_chunks(self, elements, members, data):
        # Each chunk gathers ``elements`` window rows, so a budget of 1 splits
        # every window of two or more rows inside its query.
        store, batch = data.draw(chain_stores(members)), data.draw(chain_positions(members))
        evaluator = ss.FitnessEvaluator(store, ss.PsoConfig(match_radius=1))
        want = reference_fitness(store, evaluator, batch, 1)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(history, "_GATHER_ELEMENTS", elements)
            assert hexes(evaluator.evaluate_batch(np.array(batch))) == hexes(want)

    @pytest.mark.parametrize("radius, members", with_chain_sizes(MATCH_RADII))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_match_counts_one_product_per_row(self, radius, members, data):
        # Products 1..4 may have records, product 5 has raw rows but none,
        # and product 9 has no rows at all; all of them share one call.
        store = data.draw(chain_stores(members))
        batch = data.draw(st.lists(chain_queries(members), max_size=12))
        levels = np.array([q[1:] for q in batch], dtype=np.int64).reshape(-1, members)
        levels = np.concatenate([levels, store.history[:, 2:]])
        products = st.sampled_from([1, 2, 3, 4, 5, 9])
        pids = data.draw(st.lists(products, min_size=len(levels), max_size=len(levels)))
        occ, t_stock = store.match_counts(np.array(pids), levels, radius)
        want = [reference_match(store, pid, q, radius) for pid, q in zip(pids, levels.tolist())]
        assert occ.tolist() == [len(tids) for tids, _ in want]
        assert t_stock.tolist() == [lead for _, lead in want]
        assert all(n == 0 for pid, n in zip(pids, occ.tolist()) if pid in (5, 9))

    @pytest.mark.parametrize("elements", [1, 10, 40])
    @pytest.mark.parametrize("radius, members", with_chain_sizes([1, 6]))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_match_counts_across_box_test_chunks(self, elements, radius, members, data):
        store = data.draw(chain_stores(members))
        batch = data.draw(st.lists(chain_queries(members), min_size=1, max_size=12))
        pids = np.array([q[0] for q in batch])
        levels = np.array([q[1:] for q in batch], dtype=np.int64)
        want = [reference_match(store, q[0], q[1:], radius) for q in batch]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(history, "_GATHER_ELEMENTS", elements)
            occ, t_stock = store.match_counts(pids, levels, radius)
        assert occ.tolist() == [len(tids) for tids, _ in want]
        assert t_stock.tolist() == [lead for _, lead in want]

    @pytest.mark.parametrize(
        "store_strategy, batch_strategy, dense",
        [
            # member 2 of every query is 0, so every {-1, 1} row passes it
            (
                small_stores(st.sampled_from([-1, 1])),
                st.tuples(st.integers(1, 5), ONE, st.just(0), st.integers(-2, 2)),
                True,
            ),
            (sparse_stores(), st.tuples(st.just(1), ONE, st.integers(-901, 901), ONE), False),
        ],
        ids=["dense-keeps-most", "sparse-drops-most"],
    )
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_match_counts_when_member_2_keeps_most_or_few_rows(
        self, store_strategy, batch_strategy, dense, data
    ):
        # The kernel drops the window rows that fail member 2 before it tests
        # the rest; in the dense case every row passes it and member 3
        # decides, in the sparse case few pass.  Each case checks which it
        # is.  The recorded rows are queries too, with member 2 at 0 in the
        # dense case.
        store = data.draw(store_strategy)
        batch = data.draw(st.lists(batch_strategy, min_size=1, max_size=12))
        recorded = store.history[:, 1:].tolist()
        batch += [(p, f1, 0 if dense else f2, f3) for p, f1, f2, f3 in recorded]
        assert (member2_share(store, batch, 1) >= 0.5) == dense
        pids, levels = np.array([q[0] for q in batch]), [q[1:] for q in batch]
        occ, t_stock = store.match_counts(pids, levels, 1)
        want = [reference_match(store, q[0], q[1:], 1) for q in batch]
        assert occ.tolist() == [len(tids) for tids, _ in want]
        assert t_stock.tolist() == [lead for _, lead in want]

    @pytest.mark.parametrize("radius", [0, 1, 3])
    @pytest.mark.parametrize("centre", [0, -(2**63) + 3, 2**63 - 4], ids=["0", "low", "high"])
    def test_window_edges_with_members_at_int64_limits(self, radius, centre):
        # Products 2 and 4 hold records with member 1 on and just past
        # centre +- radius and members 2 and 3 at the int64 limits, the
        # values that fill the keys bounding each member-1 window, so some
        # records equal a bounding key.  Products 1, 3 and 5 lie below,
        # between and above them and hold no records.
        limits = [-(2**63), 2**63 - 1]
        firsts = range(max(centre - radius - 1, -(2**63)), min(centre + radius + 1, 2**63 - 1) + 1)
        levels = [(f, f2, f3) for f in firsts for f2 in limits for f3 in limits]
        rows = [(pid, lv) for pid in (2, 4) for lv in levels]
        history_rows = [(tid, pid, lv) for tid, (pid, lv) in enumerate(rows, start=1)]
        leads = [(tid, (tid % 5, 1)) for tid, _, _ in history_rows]
        store = ss.HistoryStore.from_records(
            SMALL_TOPOLOGY, history_rows, leads, [(pid, 1, 2) for pid in range(1, 6)]
        )
        batch = [(pid, centre, f2, f3) for pid in range(1, 6) for f2 in limits for f3 in limits]
        want = [reference_match(store, q[0], q[1:], radius) for q in batch]
        assert any(tids for tids, _ in want)
        occ, t_stock = store.match_counts([q[0] for q in batch], [q[1:] for q in batch], radius)
        assert occ.tolist() == [len(tids) for tids, _ in want]
        assert t_stock.tolist() == [lead for _, lead in want]
        for query, (tids, _) in zip(batch, want):
            assert store.match_individual(query[0], query[1:], radius).tolist() == tids

    @given(store=small_stores(), query=queries)
    @settings(max_examples=30, deadline=None)
    def test_product_without_records_matches_nothing(self, store, query):
        evaluator = ss.FitnessEvaluator(store, ss.PsoConfig(match_radius=6))
        position = (5, *query[1:])
        assert store.match_individual(5, query[1:], 6).tolist() == []
        want = evaluator.score(np.array([5]), np.array([0]), np.array([0]))
        assert hexes(evaluator.evaluate_batch(np.array([position]))) == hexes(want)

    @pytest.mark.parametrize(
        "radius, want",
        [(0, {1: [2], 2: [1, 3], 3: [5], 4: []}), (1, {1: [2, 4], 2: [1, 3], 3: [5], 4: []})],
    )
    def test_products_sharing_a_level_row_match_apart(self, radius, want):
        # products 1, 2 and 3 all record levels (5, 5, 5), in interleaved
        # TIDs; product 4 has no records
        rows = [(1, 2, (5, 5, 5)), (2, 1, (5, 5, 5)), (3, 2, (5, 5, 5)), (4, 1, (6, 5, 5)), (5, 3, (5, 5, 5))]
        leads = [(tid, (tid, 10 * tid)) for tid in range(1, 6)]
        store = ss.HistoryStore.from_records(SMALL_TOPOLOGY, rows, leads, [(p, 1, 1) for p in (1, 2, 3)])
        for pid, tids in want.items():
            assert store.match_individual(pid, (5, 5, 5), radius).tolist() == tids
        occ, t_stock = store.match_counts(list(want), np.full((len(want), 3), 5), radius)
        assert occ.tolist() == [len(tids) for tids in want.values()]
        assert t_stock.tolist() == [11 * sum(tids) for tids in want.values()]

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
        assert store.match_individual(3, TID1_POSITION[1:], 0).tolist() == tids

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
        "level", [2**63, -(2**63) - 1, 2**70, 2**2000], ids=["2**63", "-2**63-1", "2**70", "2**2000"]
    )
    def test_evaluate_rejects_python_int(self, store, level):
        evaluator = ss.FitnessEvaluator(store, ss.PsoConfig(match_radius=0))
        with pytest.raises(ConfigError, match="int64"):
            evaluator.evaluate([1, level, 0, 0, 0, 0, 0, 0])

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


    @pytest.mark.parametrize("radius", [0, 1])
    @pytest.mark.parametrize(
        "level", [632.7, 632.5, 2.0**63, math.nan, 2**70], ids=["632.7", "632.5", "2**63", "nan", "2**70"]
    )
    def test_match_counts_rejects_level(self, store, radius, level):
        # 632.7 once truncated to 632 and matched TID 1
        query = np.array([[level, 424, 247, -298, -115, 365, 961]], dtype=object)
        for queries in (query, query.astype(np.float64), query.tolist()):
            with pytest.raises(ConfigError, match="int64"):
                store.match_counts(3, queries, radius)

    @pytest.mark.parametrize("radius", [0, 1])
    def test_match_counts_checks_product_ids(self, store, radius):
        levels = store.history[:3, 2:]  # TID 1 is product 3's only match here
        want = [[1, 0, 0], [121, 0, 0]]
        for pids in (3, [3], 3.0, np.array([3, 3, 3])):
            assert [a.tolist() for a in store.match_counts(pids, levels, radius)] == want
        for pids in ([3, 3], [[3, 3, 3]]):
            with pytest.raises(DimensionMismatch):
                store.match_counts(pids, levels, radius)
        for pid in (3.5, math.nan, 2**70):
            with pytest.raises(ConfigError, match="int64"):
                store.match_counts(pid, levels, radius)
            with pytest.raises(ConfigError, match="int64"):
                store.match_individual(pid, levels[0], radius)
        assert store.match_individual(3.0, levels[0], radius).tolist() == [1]

    def test_match_counts_accepts_integral_floats(self, store):
        occ, t_stock = store.match_counts(3, np.array([[632.0, 424, 247, -298, -115, 365, 961]]), 0)
        assert (occ.tolist(), t_stock.tolist()) == ([1], [121])


class TestIntegerPositions:
    # Two records 2**60 + 100 and 2**60 + 101 apart from zero: float64 holds
    # neither, and rounds both to 2**60.
    BIG = 2**60 + 100

    def far_store(self):
        history = [(1, 1, (self.BIG, 0, 0)), (2, 1, (self.BIG + 1, 0, 0))]
        return ss.HistoryStore.from_records(
            SMALL_TOPOLOGY, history, [(1, (2, 3)), (2, (4, 5))], [(1, 1, 5)]
        )

    @pytest.mark.parametrize("radius", [0, 1])
    def test_integer_position_is_exact_past_2_to_53(self, radius):
        store = self.far_store()
        evaluator = ss.FitnessEvaluator(store, ss.PsoConfig(match_radius=radius))
        position = (1, self.BIG, 0, 0)
        assert store.match_individual(1, position[1:], radius).tolist() == [1, 2][: radius + 1]
        want = reference_fitness(store, evaluator, [position], radius)
        unmatched = evaluator.score(np.array([1]), np.array([0]), np.array([0]))
        assert hexes(want) != hexes(unmatched)
        assert hexes([evaluator.evaluate(position)]) == hexes(want)
        assert hexes(evaluator.evaluate_batch(np.array([position]))) == hexes(want)


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
        assert store.match_individual(query[0], query[1:], radius).tolist() == tids

    def test_opposite_corner_does_not_match(self):
        store = ss.HistoryStore.from_records(
            SMALL_TOPOLOGY, [(1, 1, (FAR,) * 3)], [(1, (2, 3))], [(1, 1, 4)]
        )
        config = ss.PsoConfig(match_radius=0, bounds=ss.Bounds(stock_lb=-FAR, stock_ub=FAR))
        assert store.match_individual(1, (-FAR,) * 3, 0).tolist() == []
        assert store.match_individual(1, (FAR,) * 3, 0).tolist() == [1]
        evaluator = ss.FitnessEvaluator(store, config)
        unmatched = evaluator.score(np.array([1]), np.array([0]), np.array([0]))
        assert hexes([evaluator.evaluate([1, -FAR, -FAR, -FAR])]) == hexes(unmatched)
        assert evaluator.evaluate([1, FAR, FAR, FAR]) != unmatched[0]

    @pytest.mark.parametrize("radius", [2**64 - 1, 2**64, 10**30])
    def test_radius_past_int64_matches_every_record(self, store, radius):
        for pid in store.products:
            tids = store.history[store.history[:, 1] == pid, 0].tolist()
            for query in ([0] * 7, [-(2**63)] * 7, [2**63 - 1] * 7):
                assert store.match_individual(pid, query, radius).tolist() == tids


INT64_EDGES = [-(2**63), -1, 0, 1, 2**63 - 1]


class TestRangeTest:
    @given(
        levels=st.lists(st.sampled_from(INT64_EDGES) | st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=20),
        query=st.sampled_from(INT64_EDGES) | st.integers(-(2**63), 2**63 - 1),
        radius=st.sampled_from([0, 1, 2**62, 2**63 - 1, 2**63, 2**64 - 1, 2**64, 10**30])
        | st.integers(0, 2**64),
    )
    @settings(max_examples=300, deadline=None)
    def test_unsigned_range_test_is_exact(self, levels, query, radius):
        # level - low <= span in uint64 holds exactly when the level lies
        # within radius of the query, at and past the int64 limits
        low, span = history._saturated_bounds(np.array([query], dtype=np.int64), radius)
        level = np.array(levels, dtype=np.int64).view(np.uint64)
        got = (level - low) <= span
        assert got.tolist() == [query - radius <= v <= query + radius for v in levels]


class TestNumericKeys:
    @given(
        rows=st.lists(
            st.lists(
                st.sampled_from(INT64_EDGES) | st.integers(-(2**63), 2**63 - 1), min_size=4, max_size=4
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_key_order_is_lexsort_order(self, rows):
        matrix = np.array(rows, dtype=np.int64)
        keys = history._numeric_keys(matrix)
        # lexsort sorts on its last key first, so the columns go in reversed order
        want = np.lexsort(matrix.T[::-1])
        assert np.argsort(keys, kind="stable").tolist() == want.tolist()
        distinct = np.unique(matrix, axis=0)  # rows in lexicographic order
        assert np.array_equal(np.unique(keys), history._numeric_keys(distinct))


    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from([1, 2, 2**63 - 1]),
                *[st.sampled_from(INT64_EDGES) | st.integers(-(2**63), 2**63 - 1)] * 3,
            ),
            min_size=1,
            max_size=40,
        ),
        queries=st.lists(
            st.tuples(
                st.sampled_from([-(2**63), 0, 1, 2, 3, 2**63 - 1]),
                st.sampled_from(INT64_EDGES) | st.integers(-(2**63), 2**63 - 1),
            ),
            max_size=10,
        ),
        radius=st.sampled_from([0, 1, 2**62, 2**64]) | st.integers(0, 2**63),
    )
    @settings(max_examples=200, deadline=None)
    def test_index_keys_follow_product_then_levels(self, rows, queries, radius):
        history_rows = [(tid, pid, levels) for tid, (pid, *levels) in enumerate(rows, start=1)]
        leads = [(tid, (0, 0)) for tid, _, _ in history_rows]
        raws = [(pid, 1, 1) for pid in {pid for pid, *_ in rows}]
        store = ss.HistoryStore.from_records(SMALL_TOPOLOGY, history_rows, leads, raws)
        distinct = np.unique(store.history[:, 1:], axis=0)  # (PI, F1..F3) in lexicographic order
        assert np.array_equal(store._rows, distinct[:, 1:])
        assert store._rows.flags.f_contiguous  # the box test reads one member at a time
        assert np.array_equal(store._keys, history._numeric_keys(distinct))
        # each record, in TID order, knows its distinct row, and each
        # product's block holds that product's rows
        assert np.array_equal(store._keys[store._record_row], history._numeric_keys(store.history[:, 1:]))
        assert store._counts.tolist() == np.bincount(store._record_row).tolist()
        ends = zip(store._row_starts[:-1].tolist(), store._row_starts[1:].tolist())
        blocks = dict(zip(store._products.tolist(), ends))
        for pid in (1, 2, 3, 2**63 - 1):
            want = [row[1:] for row in distinct.tolist() if row[0] == pid]
            start, stop = blocks.get(pid, (0, 0))
            assert store._rows[start:stop].tolist() == want
        # the two key searches find each query's product rows with member 1
        # in [q1 - radius, q1 + radius], in key order; some windows end on
        # the member 1 of a row, whose members 2 and 3 are often at the
        # int64 limits that fill the bounding keys
        queries += [
            (pid, f1 + side * radius)
            for pid, f1, *_ in distinct.tolist()
            for side in (-1, 1)
            if -(2**63) <= f1 + side * radius <= 2**63 - 1
        ]
        pids = np.array([pid for pid, _ in queries], dtype=np.int64)
        member1 = np.array([[q1] * 3 for _, q1 in queries], dtype=np.int64).reshape(-1, 3)
        low, span = history._saturated_bounds(member1, radius)
        lo, hi = store._windows(pids, low[:, 0], span[:, 0])
        for (pid, q1), start, stop in zip(queries, lo.tolist(), hi.tolist()):
            want = [
                row[1:]
                for row in distinct.tolist()
                if row[0] == pid and q1 - radius <= row[1] <= q1 + radius
            ]
            assert store._rows[start:stop].tolist() == want


def void_key_order(matrix):
    """The stable order of the matrix's rows by their byte keys."""
    return np.argsort(history._numeric_keys(matrix), kind="stable")


class TestKeyOrder:
    """The 16-bit digit lexsort against the stable argsort of byte keys."""

    def test_one_row_and_equal_columns(self):
        for matrix in (
            np.array([[-(2**63), 2**63 - 1]], dtype=np.int64),
            np.full((5, 3), 7, dtype=np.int64),
            np.array([[2**63 - 1, 3], [2**63 - 1, 3], [2**63 - 1, -3]], dtype=np.int64),
        ):
            assert history._key_order(matrix).tolist() == void_key_order(matrix).tolist()

    @pytest.mark.parametrize("span", [2**16 - 1, 2**16, 2**32, 2**48, 2**64 - 1])
    def test_spans_at_digit_edges(self, span):
        # each column runs from its minimum to its minimum plus the span,
        # with values in between and on both ends, repeated
        rng = np.random.default_rng(span % 1000)
        for low in (-(2**63), -5, 2**63 - 1 - span):
            if not -(2**63) <= low <= 2**63 - 1 - span:
                continue
            ends = [low, low + span, low + 1, low + span - 1, low + span // 2, low + span // 2 + 1]
            matrix = np.array([rng.permutation(ends * 10) for _ in range(3)], dtype=np.int64).T
            assert history._key_order(matrix).tolist() == void_key_order(matrix).tolist()

    @given(
        columns=st.lists(
            st.sampled_from(
                [(0, 1), (-3, 3), (0, 2**16 - 1), (-(2**40), 2**40), (2**63 - 2**33, 2**63 - 1),
                 (-(2**63), 2**63 - 1)]
            ),
            min_size=1,
            max_size=5,
        ),
        rows=st.integers(0, 60),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_mixed_narrow_and_wide_columns(self, columns, rows, data):
        values = [
            data.draw(st.lists(st.integers(lo, hi) | st.sampled_from([lo, hi]), min_size=rows, max_size=rows))
            for lo, hi in columns
        ]
        matrix = np.array(values, dtype=np.int64).reshape(len(columns), rows).T
        if rows > 2:  # repeat some whole rows
            matrix[rows // 2 :] = matrix[: rows - rows // 2]
        matrix = matrix[data.draw(st.permutations(range(rows)))]
        assert history._key_order(matrix).tolist() == void_key_order(matrix).tolist()
