"""Enumeration baseline: candidate set, minimum, lower-bound property."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from test_matcher import hexes, reference_fitness

import stockswarm as ss
from stockswarm.domain import INT64_MAX
from stockswarm.errors import ConfigError, MissingRawMaterial
from stockswarm.oracle import _gap_scan


def reference_oracle(store, config):
    """The oracle scored by the brute-force matcher of ``test_matcher``:
    one plain loop over the records per candidate, the earliest minimum
    kept."""
    evaluator = ss.FitnessEvaluator(store, config)
    candidates, skipped = ss.enumerate_candidates(store, config)
    fitness = reference_fitness(store, evaluator, candidates.tolist(), config.match_radius)
    best = int(np.flatnonzero(fitness == fitness.min())[0])
    return ss.OracleResult(
        best_position=tuple(candidates[best].tolist()),
        best_fitness=float(fitness[best]),
        evaluations=len(candidates),
        skipped_products=skipped,
    )


def reference_empty_vector(store, product_id, lb, ub):
    """The first vector of the stock box ``[lb, ub]`` in lexicographic
    order that no record of ``product_id`` holds, or None: a walk over the
    box against a set of the recorded vectors."""
    recorded = {tuple(row) for pid, *row in store.history[:, 1:].tolist() if pid == product_id}
    levels = reference_walk(recorded, store.topology.member_count, lb, ub)
    return None if levels is None else (product_id, *levels)


def scanned_row(store, product_id, config):
    """``_gap_scan``'s ``(PI, F1..Fl)`` row for one product, or None."""
    vectors, found = _gap_scan(store, config, np.array([product_id], dtype=np.int64))
    return tuple(vectors[0].tolist()) if found[0] else None


def empty_rows(store, config):
    """The empty-match rows of ``enumerate_candidates``, as tuples, and the
    ids without one."""
    candidates, skipped = ss.enumerate_candidates(store, config)
    return [tuple(row) for row in candidates[store.total_periods :].tolist()], skipped


def assert_rows_match_nothing(store, config):
    """Every empty-match row of ``enumerate_candidates`` matches no record
    at the configured radius, so its P(occ) and t_stock are 0."""
    candidates, _ = ss.enumerate_candidates(store, config)
    empty = candidates[store.total_periods :]
    occ, t_stock = store.match_counts(empty[:, 0], empty[:, 1:], config.match_radius)
    assert occ.tolist() == t_stock.tolist() == [0] * len(empty)


def reference_walk(recorded, members, lb, ub):
    """The first levels of the box ``[lb, ub]`` in lexicographic order that
    are not in the set ``recorded``, or None."""
    for levels in itertools.product(range(lb, ub + 1), repeat=members):
        if levels not in recorded:
            return levels
    return None


def reference_gap_scan(store, product_id, lb, ub, radius):
    """The per-dimension scan of ``_gap_scan`` in Python ints:
    on the first dimension that has one, the lower bound, else the lowest
    gap wider than ``2 * radius + 1`` between the recorded values near the
    box, else the upper bound; or None when no dimension has one."""
    recorded = [tuple(row) for pid, *row in store.history[:, 1:].tolist() if pid == product_id]
    levels = reference_scan_levels(recorded, store.topology.member_count, lb, ub, radius)
    return None if levels is None else (product_id, *levels)


def reference_scan_levels(recorded, members, lb, ub, radius):
    """``reference_gap_scan``'s levels for the recorded level vectors of one
    product, or None."""
    scanned = reference_scan(recorded, members, lb, ub, radius)
    if scanned is None:
        return None
    dim, chosen, _ = scanned
    filler = min(max(0, lb), ub)
    return tuple(chosen if d == dim else filler for d in range(members))


def reference_scan(recorded, members, lb, ub, radius):
    """The first dimension with a free level, that level and the rule that
    gave it ("lb", "gap" or "ub"), or None."""
    for dim in range(members):
        values = sorted({lv[dim] for lv in recorded if lb - radius <= lv[dim] <= ub + radius})
        gaps = [a + radius + 1 for a, b in zip(values, values[1:]) if b - a > 2 * radius + 1]
        if not values or values[0] - lb > radius:
            return dim, lb, "lb"
        if gaps:
            return dim, gaps[0], "gap"
        if ub - values[-1] > radius:
            return dim, ub, "ub"
    return None


def reference_empty_rows(store, config):
    """Every empty-match row of the candidate set, ascending, and the ids
    without one, by Python loops over each product's recorded vectors: the
    filler vector for an id without records, else the scan's levels, else
    at radius 0 the box walk's."""
    bounds, radius = config.bounds, config.match_radius
    lb, ub, members = bounds.stock_lb, bounds.stock_ub, store.topology.member_count
    recorded = {}
    for pid, *row in store.history[:, 1:].tolist():
        recorded.setdefault(pid, set()).add(tuple(row))
    rows, skipped = [], []
    for pid in sorted(set(recorded) | set(range(bounds.product_lb, bounds.product_ub + 1))):
        if pid not in recorded:
            levels = (min(max(0, lb), ub),) * members
        else:
            levels = reference_scan_levels(recorded[pid], members, lb, ub, radius)
            if levels is None and radius == 0:
                levels = reference_walk(recorded[pid], members, lb, ub)
        if levels is None:
            skipped.append(pid)
        else:
            rows.append((pid, *levels))
    return rows, tuple(skipped)


SMALL_TOPOLOGY = ss.Topology(dc_count=1, agents_per_dc=(1,))
INT64_LEVELS = [-(2**63), -(2**63) + 1, -(2**62), 2**62, INT64_MAX - 1, INT64_MAX]
SMALL_BOUNDS = dict(product_lb=1, stock_lb=-3, stock_ub=3)


@st.composite
def small_stores(draw, span=3):
    """A 3-member store with levels in [-span, span], with forced duplicate rows.

    Products 1..4 may occur; rows are repeated verbatim and then shuffled
    across TIDs, so equal level rows interleave with other products.
    """
    levels = st.tuples(*[st.integers(min_value=-span, max_value=span)] * 3)
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
    def test_candidate_fitness_bitwise(self, store, product_ub):
        # Equal level rows of a product share one radius-0 lookup.
        cfg = ss.PsoConfig(match_radius=0, bounds=ss.Bounds(product_ub=product_ub, **SMALL_BOUNDS))
        evaluator = ss.FitnessEvaluator(store, cfg)
        candidates, _ = ss.enumerate_candidates(store, cfg)
        want = reference_fitness(store, evaluator, candidates.tolist(), 0)
        assert hexes(evaluator.evaluate_batch(candidates)) == hexes(want)


def large_store(seed, periods, topology, pool, recorded, product_ub):
    """A store of ``periods`` records drawn over ``recorded`` product ids
    and the level values of ``pool``, with a quarter of the rows copied
    over other TIDs and the TIDs shuffled.  Every id in ``1..product_ub``
    and every recorded id has raw-material rows; the ids in the bounds
    that are not recorded have no records."""
    rng = np.random.default_rng(seed)
    members = topology.member_count
    pids = rng.choice(np.asarray(recorded, dtype=np.int64), size=periods)
    levels = rng.choice(np.asarray(pool, dtype=np.int64), size=(periods, members))
    source, target = rng.integers(0, periods, size=(2, periods // 4))
    pids[target], levels[target] = pids[source], levels[source]
    tids = rng.permutation(periods).astype(np.int64) * 3 + 1
    history = np.column_stack((tids, pids, levels))
    lead = np.column_stack((tids, rng.integers(0, 50, size=(periods, members - 1))))
    raw_pids = np.union1d(np.arange(1, product_ub + 1), recorded)
    raw = np.column_stack(
        (raw_pids, np.ones_like(raw_pids), rng.integers(1, 40, size=len(raw_pids)))
    )
    return ss.HistoryStore(topology, history, lead, raw)


# (level pool, stock bounds): narrow pools repeat rows and cover whole
# product boxes at radius 0; the int64 pool puts levels at both limits.
LEVEL_POOLS = {
    "covered": (range(-1, 2), (-1, 1)),
    "narrow": (range(-3, 4), (-3, 3)),
    "wide": (range(-1000, 1001), (-1000, 1000)),
    "int64": (INT64_LEVELS + [-1, 0, 1], (-(2**63), 2**62)),
}


class TestAtSize:
    """The oracle and the index's per-row counts against ``evaluate_batch``
    and ``match_counts`` on stores too large for the per-candidate loop:
    hundreds of products, ids in the bounds without records, repeated rows
    and levels at the int64 limits."""

    CASES = [
        # seed, periods, 3 or 7 members, pool, recorded ids, product_ub
        (0, 20_000, 3, "covered", range(1, 41), 45),
        (1, 5_000, 3, "narrow", range(1, 600, 2), 700),
        (2, 20_000, 7, "narrow", range(1, 6), 5),
        (3, 20_000, 7, "wide", range(1, 301), 300),
        (4, 8_000, 7, "wide", range(50, 2050, 4), 1000),
        (5, 20_000, 3, "int64", range(1, 501, 3), 520),
        (6, 10_000, 7, "int64", range(1, 9), 12),
    ]

    @staticmethod
    def build(seed, periods, members, pool, recorded, product_ub, radius=0):
        topology = SMALL_TOPOLOGY if members == 3 else ss.Topology()
        levels, (stock_lb, stock_ub) = LEVEL_POOLS[pool]
        if radius and pool == "int64":  # the box widened by the radius must fit int64
            stock_lb, stock_ub = -(2**62), 2**61
        store = large_store(seed, periods, topology, list(levels), list(recorded), product_ub)
        bounds = ss.Bounds(product_ub=product_ub, stock_lb=stock_lb, stock_ub=stock_ub)
        return store, ss.PsoConfig(match_radius=radius, bounds=bounds)

    @pytest.mark.parametrize("radius", [0, 1, 3, 100, 2**62])
    @pytest.mark.parametrize("case", CASES)
    def test_oracle_equals_batch_argmin(self, case, radius, monkeypatch):
        store, cfg = self.build(*case, radius)
        candidates, skipped = ss.enumerate_candidates(store, cfg)
        want = ss.FitnessEvaluator(store, cfg).evaluate_batch(candidates)
        best = int(np.argmin(want))
        scored, score = [], ss.FitnessEvaluator.score
        radii, match_counts = [], ss.HistoryStore.match_counts

        def recorded_score(*args):
            scored.append(score(*args))
            return scored[-1]

        def recorded_match_counts(store, product_ids, queries, match_radius):
            radii.append(match_radius)
            return match_counts(store, product_ids, queries, match_radius)

        monkeypatch.setattr(ss.FitnessEvaluator, "score", recorded_score)
        monkeypatch.setattr(ss.HistoryStore, "match_counts", recorded_match_counts)
        got = ss.oracle_minimum(store, cfg)
        assert got == ss.OracleResult(
            best_position=tuple(candidates[best].tolist()),
            best_fitness=float(want[best]),
            evaluations=len(candidates),
            skipped_products=skipped,
        )
        # One score per distinct row, read by each record through its row,
        # then the empty-match rows: the batch's scores, bit for bit.  Only
        # the distinct rows are counted, at the configured radius, and at
        # radius 0 their counts are the index's own; the empty-match rows
        # match nothing (``test_empty_rows_match_nothing``) and take none.
        rows, empty = scored
        assert len(rows) == len(store._counts)
        assert hexes(np.concatenate((rows.take(store._record_row), empty))) == hexes(want)
        assert radii == ([radius] if radius else [])

    @pytest.mark.parametrize("radius", [0, 1, 3, 100, 2**62])
    @pytest.mark.parametrize("case", CASES)
    def test_empty_rows_match_nothing(self, case, radius):
        assert_rows_match_nothing(*self.build(*case, radius))

    @pytest.mark.parametrize("case", CASES)
    def test_record_counts_equal_match_counts(self, case):
        store, _ = self.build(*case)
        history = store.history
        occ, t_stock = store._counts.take(store._record_row), store._sums.take(store._record_row)
        want_occ, want_t_stock = store.match_counts(history[:, 1], history[:, 2:], 0)
        assert occ.dtype == t_stock.dtype == np.int64
        assert occ.tolist() == want_occ.tolist()
        assert t_stock.tolist() == want_t_stock.tolist()


class TestWholeIndexScan:
    """The gap scan that ``enumerate_candidates`` runs once over the whole
    index, against the per-product loops of ``reference_empty_rows``, on
    random stores of many products: some recorded products lie outside the
    bounds, some ids in the bounds have no records, narrow pools cover whole
    boxes at radius 0, and levels lie at the int64 limits."""

    NEAR_LIMITS = (-(2**62), 2**62)
    CASES = [
        # seed, periods, 3 or 7 members, pool, recorded ids, product_ub, radius, stock bounds
        # and, where it is not 1, product_lb
        (10, 3_000, 3, "covered", range(1, 200, 2), 250, 0, (-1, 1)),
        (11, 6_000, 3, "covered", range(1, 60), 70, 0, (-1, 1)),
        (12, 4_000, 7, "narrow", range(1, 400), 450, 0, (-3, 3)),
        (13, 4_000, 7, "narrow", range(1, 400), 350, 1, (-3, 3)),
        (14, 3_000, 3, "narrow", range(1, 300, 3), 320, 2, (-3, 3)),
        (15, 3_000, 3, "narrow", range(1, 300, 3), 320, 1, (-2, 2)),
        (16, 3_000, 7, "wide", range(1, 200), 150, 10, (-1000, 1000)),
        (17, 3_000, 7, "wide", range(20, 200), 150, 400, (-900, 900)),
        (23, 3_000, 3, "narrow", range(1, 300, 2), 200, 1, (-3, 3), 40),
        (18, 3_000, 3, "int64", range(1, 100), 120, 0, (-(2**63), 2**62)),
        (19, 3_000, 3, "int64", range(1, 100), 120, 1, (-(2**63) + 2048, 2**62)),
        (20, 3_000, 3, "int64", range(1, 100), 120, 2**61, NEAR_LIMITS),
        (21, 3_000, 7, "int64", range(1, 100), 120, 2**62 - 1, NEAR_LIMITS),
        (22, 3_000, 3, "narrow", range(1, 100), 120, 2**62, (-3, 3)),
    ]

    @staticmethod
    def build(seed, periods, members, pool, recorded, product_ub, radius, stock_bounds, product_lb=1):
        topology = SMALL_TOPOLOGY if members == 3 else ss.Topology()
        levels = list(LEVEL_POOLS[pool][0])
        store = large_store(seed, periods, topology, levels, list(recorded), product_ub)
        bounds = ss.Bounds(
            product_lb=product_lb,
            product_ub=product_ub,
            stock_lb=stock_bounds[0],
            stock_ub=stock_bounds[1],
        )
        return store, ss.PsoConfig(match_radius=radius, bounds=bounds)

    @pytest.mark.parametrize("case", CASES)
    def test_every_product_equals_reference(self, case):
        store, cfg = self.build(*case)
        rows, skipped = reference_empty_rows(store, cfg)
        candidates, got_skipped = ss.enumerate_candidates(store, cfg)
        assert candidates[: store.total_periods].tolist() == store.history[:, 1:].tolist()
        assert [tuple(row) for row in candidates[store.total_periods :].tolist()] == rows
        assert got_skipped == skipped
        # Each product scanned alone gets the row of the whole-index pass.
        for row in rows:
            assert scanned_row(store, row[0], cfg) == row
        for pid in skipped:
            assert scanned_row(store, pid, cfg) is None
        if cfg.match_radius == 0:
            assert ss.oracle_minimum(store, cfg).skipped_products == skipped

    def test_cases_reach_every_rule(self):
        # Across the cases some product takes each rule on member 1 and on a
        # later member, some takes the box walk, and some has no vector.
        seen = set()
        for case in self.CASES:
            store, cfg = self.build(*case)
            lb, ub, radius = cfg.bounds.stock_lb, cfg.bounds.stock_ub, cfg.match_radius
            members = store.topology.member_count
            recorded = {}
            for pid, *row in store.history[:, 1:].tolist():
                recorded.setdefault(pid, set()).add(tuple(row))
            for levels in recorded.values():
                scanned = reference_scan(levels, members, lb, ub, radius)
                if scanned is None:
                    walked = reference_walk(levels, members, lb, ub) if radius == 0 else None
                    seen.add("skipped" if walked is None else "walk")
                else:
                    dim, _, rule = scanned
                    seen.add(("member 1" if dim == 0 else "later member", rule))
        rules = {(member, rule) for member in ("member 1", "later member") for rule in ("lb", "gap", "ub")}
        assert seen == rules | {"walk", "skipped"}

    def test_bounds_are_checked_before_anything_is_sized_by_them(self, store):
        # The fixture records products 1-5 and has raw-material rows for
        # them only; a range over 10**12 ids would not fit in memory.
        cfg = ss.PsoConfig(match_radius=0, bounds=ss.Bounds(product_ub=10**12))
        message = "product 6 is inside the product bounds but has no raw-material rows"
        with pytest.raises(MissingRawMaterial, match=f"^{message}$"):
            ss.enumerate_candidates(store, cfg)
        with pytest.raises(MissingRawMaterial, match=f"^{message}$"):
            ss.oracle_minimum(store, cfg)


class TestBruteForceBound:
    """The radius-0 minimum against every integer vector the swarm can round
    to, each scored by ``evaluate_batch``; no candidate enumeration involved."""

    # Span 1 lets three records of a product cover every level on every member.
    @pytest.mark.parametrize("span", [1, 3])
    @given(
        data=st.data(),
        product_ub=st.integers(min_value=1, max_value=4),
        priorities=st.sampled_from([(10.0, 5.0, 1.0), (0.0, 1.0, 1.0), (1.0, 0.0, 3.0)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_lower_bound_over_whole_box(self, span, data, product_ub, priorities):
        store = data.draw(small_stores(span))
        cfg = ss.PsoConfig(
            match_radius=0,
            bounds=ss.Bounds(product_lb=1, product_ub=product_ub, stock_lb=-span, stock_ub=span),
            priorities=ss.PriorityConfig(*priorities),
        )
        box = itertools.product(range(1, product_ub + 1), *[range(-span, span + 1)] * 3)
        evaluator = ss.FitnessEvaluator(store, cfg)
        brute = evaluator.evaluate_batch(np.array(list(box), dtype=np.float64)).min()
        result = ss.oracle_minimum(store, cfg)
        assert result.best_fitness <= brute
        if max(store.products) <= product_ub:  # then every candidate is reachable
            assert result.best_fitness.hex() == float(brute).hex()

    def test_covered_box_has_empty_match_vector(self):
        # Every member records each of -1, 0 and 1, but 24 of the 27 vectors
        # of the box match nothing; the first of them in lexicographic order
        # is taken.
        history = [(1, 1, (-1, -1, -1)), (2, 1, (0, 0, 0)), (3, 1, (1, 1, 1))]
        leads = [(tid, (4, 6)) for tid in (1, 2, 3)]
        store = ss.HistoryStore.from_records(SMALL_TOPOLOGY, history, leads, [(1, 1, 10)])
        cfg = ss.PsoConfig(
            match_radius=0,
            bounds=ss.Bounds(product_lb=1, product_ub=1, stock_lb=-1, stock_ub=1),
            priorities=ss.PriorityConfig(0.0, 1.0, 1.0),
        )
        assert empty_rows(store, cfg) == ([(1, -1, -1, 0)], ())
        result = ss.oracle_minimum(store, cfg)
        assert result.skipped_products == ()
        assert result.best_position == (1, -1, -1, 0)
        evaluator = ss.FitnessEvaluator(store, cfg)
        assert result.best_fitness == evaluator.evaluate([1, -1, -1, 0])
        assert result.best_fitness == pytest.approx(np.log(5.0))
        assert evaluator.evaluate([1, 0, 0, 0]) == pytest.approx(np.log(10.0))

    @given(data=st.data(), lb=st.integers(-3, 3), width=st.integers(2, 3))
    @settings(max_examples=100, deadline=None)
    def test_covered_box_vector_matches_walk(self, data, lb, width):
        # Each product records every box value on every member (its diagonal),
        # some of the box's other vectors, and a few vectors just outside it.
        ub = lb + width - 1
        box = list(itertools.product(range(lb, ub + 1), repeat=3))
        outside = st.tuples(*[st.integers(lb - 2, ub + 2)] * 3)
        rows = []
        for pid in (1, 2):
            kept = data.draw(st.lists(st.booleans(), min_size=len(box), max_size=len(box)))
            vectors = {(v,) * 3 for v in range(lb, ub + 1)}
            vectors |= {v for v, keep in zip(box, kept) if keep}
            vectors |= set(data.draw(st.lists(outside, max_size=4)))
            rows += [(pid, v) for v in vectors]
        rows = data.draw(st.permutations(rows))
        history = [(tid, pid, v) for tid, (pid, v) in enumerate(rows, start=1)]
        leads = [(tid, (1, 1)) for tid, _, _ in history]
        store = ss.HistoryStore.from_records(
            SMALL_TOPOLOGY, history, leads, [(1, 1, 10), (2, 1, 10)]
        )
        cfg = ss.PsoConfig(
            match_radius=0, bounds=ss.Bounds(product_lb=1, product_ub=2, stock_lb=lb, stock_ub=ub)
        )
        want = [reference_empty_vector(store, pid, lb, ub) for pid in (1, 2)]
        skipped = tuple(pid for pid, row in zip((1, 2), want) if row is None)
        assert empty_rows(store, cfg) == ([row for row in want if row is not None], skipped)

    def test_fully_recorded_box_skips_product(self):
        vectors = list(itertools.product((0, 1), repeat=3))
        history = [(tid, 1, v) for tid, v in enumerate(vectors, start=1)]
        leads = [(tid, (1, 1)) for tid, _, _ in history]
        store = ss.HistoryStore.from_records(SMALL_TOPOLOGY, history, leads, [(1, 1, 10)])
        cfg = ss.PsoConfig(
            match_radius=0, bounds=ss.Bounds(product_lb=1, product_ub=1, stock_lb=0, stock_ub=1)
        )
        assert empty_rows(store, cfg) == ([], (1,))
        result = ss.oracle_minimum(store, cfg)
        assert result.skipped_products == (1,)
        assert result.evaluations == 8

    def test_empty_match_scan_at_int64_extremes(self):
        # The record and the lower stock bound lie 2**63 apart, a gap that
        # wraps negative in int64.
        far = 2**62
        store = ss.HistoryStore.from_records(
            SMALL_TOPOLOGY, [(1, 1, (far,) * 3)], [(1, (2, 3))], [(1, 1, 4)]
        )
        cfg = ss.PsoConfig(
            match_radius=0,
            bounds=ss.Bounds(product_lb=1, product_ub=1, stock_lb=-far, stock_ub=far),
        )
        assert empty_rows(store, cfg) == ([(1, -far, 0, 0)], ())
        result = ss.oracle_minimum(store, cfg)
        assert result.skipped_products == ()
        assert result.best_position == (1, -far, 0, 0)
        evaluator = ss.FitnessEvaluator(store, cfg)
        assert result.best_fitness == evaluator.evaluate([1, -far, 0, 0])
        assert result.best_fitness < evaluator.evaluate([1, far, far, far])


    def test_gaps_wider_than_int64(self):
        # Member 1's recorded values lie 2**63 or more apart, a difference
        # that wraps in int64.  At radius 0 on nearly the whole int64 range
        # (a float64 bound must fit it) the gap between the box edges is
        # free; at radius 2**62 - 1 a gap wider than 2**63 - 1 is, one
        # exactly that wide is not, and member 2 then gives the lower bound.
        top = INT64_MAX - 1024
        lb, ub, r = -(2**62), 2**62, 2**62 - 1
        cases = [
            ((-(2**63), top), -(2**63), top, 0, (1, -(2**63) + 1, 0, 0)),
            ((lb - 5, ub + 5), lb, ub, r, (1, -5, 0, 0)),
            ((lb - 5, lb - 5 + 2 * r + 1), lb, ub, r, (1, 0, lb, 0)),
        ]
        for member1, stock_lb, stock_ub, radius, want in cases:
            history = [(tid, 1, (v, 5, 0)) for tid, v in enumerate(member1, start=1)]
            store = ss.HistoryStore.from_records(
                SMALL_TOPOLOGY, history, [(1, (0, 0)), (2, (0, 0))], [(1, 1, 4)]
            )
            cfg = ss.PsoConfig(
                match_radius=radius,
                bounds=ss.Bounds(product_lb=1, product_ub=1, stock_lb=stock_lb, stock_ub=stock_ub),
            )
            assert empty_rows(store, cfg) == ([want], ())
            assert reference_gap_scan(store, 1, stock_lb, stock_ub, radius) == want
            assert store.match_counts(1, [want[1:]], radius)[0].tolist() == [0]

    @given(
        rows=st.lists(
            st.tuples(st.integers(1, 2), *[st.sampled_from(INT64_LEVELS) | st.integers(-4, 4)] * 3),
            min_size=1,
            max_size=12,
        ),
        bounds=st.tuples(*[st.sampled_from([-(2**63), -(2**62), 2**62]) | st.integers(-4, 4)] * 2).map(sorted),
        radius=st.sampled_from([0, 1, 2, 2**61, 2**62 - 1, 2**62]) | st.integers(0, 9),
    )
    @settings(max_examples=200, deadline=None)
    def test_gap_scan_matches_python_ints(self, rows, bounds, radius):
        history = [(tid, pid, levels) for tid, (pid, *levels) in enumerate(rows, start=1)]
        leads = [(tid, (0, 0)) for tid, _, _ in history]
        store = ss.HistoryStore.from_records(SMALL_TOPOLOGY, history, leads, [(1, 1, 4), (2, 1, 4)])
        lb, ub = bounds
        assume(lb < ub)
        try:  # the box widened by the radius must fit int64
            cfg = ss.PsoConfig(
                match_radius=radius, bounds=ss.Bounds(product_lb=1, product_ub=2, stock_lb=lb, stock_ub=ub)
            )
        except ConfigError:
            assume(False)
        for pid in store.products:
            want = reference_gap_scan(store, pid, lb, ub, radius)
            got = scanned_row(store, pid, cfg)
            if want is not None or radius > 0:  # at radius 0 a covered box is walked instead
                assert got == want


class TestFarRecords:
    """Records that a float64 copy of the candidate matrix cannot hold."""

    def test_record_at_int64_max(self):
        store = ss.HistoryStore.from_records(
            SMALL_TOPOLOGY, [(1, 1, (INT64_MAX, 0, 0))], [(1, (2, 3))], [(1, 1, 4)]
        )
        cfg = ss.PsoConfig(
            match_radius=1, bounds=ss.Bounds(product_lb=1, product_ub=1, stock_lb=-3, stock_ub=3)
        )
        result = ss.oracle_minimum(store, cfg)
        assert result == reference_oracle(store, cfg)
        assert result.best_position == (1, -3, 0, 0)
        assert result.evaluations == 2
        record = ss.FitnessEvaluator(store, cfg).evaluate([1, INT64_MAX, 0, 0])
        assert record == pytest.approx(math.log(0.3125 * 5 + 0.0625 * 4))  # it matches itself

    def test_records_past_2_to_53(self):
        # 2**60 + 100 and 2**60 + 101 both become 2**60 in float64, which
        # matches neither record at radius 1.
        big = 2**60 + 100
        history = [(1, 1, (big, 0, 0)), (2, 1, (big + 1, 0, 0))]
        store = ss.HistoryStore.from_records(
            SMALL_TOPOLOGY, history, [(1, (0, 0)), (2, (0, 0))], [(1, 1, 5)]
        )
        cfg = ss.PsoConfig(
            match_radius=1,
            bounds=ss.Bounds(product_lb=1, product_ub=1),
            priorities=ss.PriorityConfig(10.0, 0.0, 1.0),
        )
        result = ss.oracle_minimum(store, cfg)
        assert result == reference_oracle(store, cfg)
        assert result.best_position == (1, big, 0, 0)
        assert result.best_fitness == pytest.approx(math.log(5 / 11))  # both records match


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
        (_, empty), _ = empty_rows(store, cfg)  # products 1 and 2
        evaluator = ss.FitnessEvaluator(store, cfg)
        assert evaluator.evaluate(empty) == evaluator.evaluate([2, 4, 4, 4])
        result = ss.oracle_minimum(store, cfg)
        assert result.best_position == (2, 4, 4, 4)
        assert result == reference_oracle(store, cfg)


class TestEmptyMatchRows:
    def test_rows_match_nothing(self, store):
        for radius in (0, 1, 100):
            cfg = ss.PsoConfig(match_radius=radius)
            rows, skipped = empty_rows(store, cfg)
            assert skipped == ()
            assert [row[0] for row in rows] == list(store.products)
            assert_rows_match_nothing(store, cfg)

    @pytest.mark.parametrize("radius", [0, 1, 3, 10**6])
    @given(store=small_stores(), product_ub=st.integers(min_value=1, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_rows_match_nothing_on_small_stores(self, radius, store, product_ub):
        bounds = ss.Bounds(product_ub=product_ub, **SMALL_BOUNDS)
        assert_rows_match_nothing(store, ss.PsoConfig(match_radius=radius, bounds=bounds))

    def test_unknown_product_gets_trivial_row(self, store):
        cfg = ss.PsoConfig(match_radius=0, bounds=ss.Bounds(product_ub=9))
        row = scanned_row(store, 9, cfg)
        assert row is not None
        assert store.match_counts(9, [row[1:]], 0)[0].tolist() == [0]

    def test_records_below_the_box_leave_its_edge_free(self):
        history = [(1, 1, (-5, 0, 0)), (2, 1, (10, 0, 0))]
        leads = [(1, (1, 1)), (2, (1, 1))]
        store = ss.HistoryStore.from_records(SMALL_TOPOLOGY, history, leads, [(1, 1, 10)])
        cfg = ss.PsoConfig(
            match_radius=0, bounds=ss.Bounds(product_lb=1, product_ub=1, stock_lb=-3, stock_ub=3)
        )
        assert empty_rows(store, cfg) == ([(1, -3, 0, 0)], ())

    def test_records_above_the_box_open_no_gap(self):
        # Member 1 covers the box [-1, 1]; the gap up to 5 lies outside it,
        # so member 2 supplies the free level.
        history = [(tid, 1, (v, 0, 0)) for tid, v in enumerate((-1, 0, 1, 5), start=1)]
        leads = [(tid, (1, 1)) for tid in range(1, 5)]
        store = ss.HistoryStore.from_records(SMALL_TOPOLOGY, history, leads, [(1, 1, 10)])
        cfg = ss.PsoConfig(
            match_radius=0, bounds=ss.Bounds(product_lb=1, product_ub=1, stock_lb=-1, stock_ub=1)
        )
        assert empty_rows(store, cfg) == ([(1, 0, -1, 0)], ())
        result = ss.oracle_minimum(store, cfg)
        assert result.best_position == (1, 0, -1, 0)
        assert result == reference_oracle(store, cfg)

    def test_blanketed_range_yields_none(self, tiny_rows):
        topology, _, leads, raws = tiny_rows
        history = [(1, 1, (0, 0, 0)), (2, 1, (1, -1, 1)), (3, 1, (-1, 1, -1))]
        store = ss.HistoryStore.from_records(topology, history, leads, raws)
        cfg = ss.PsoConfig(
            match_radius=2,
            bounds=ss.Bounds(product_lb=1, product_ub=1, stock_lb=-2, stock_ub=2),
        )
        assert empty_rows(store, cfg) == ([], (1,))


class TestEnumeration:
    def test_fixture_candidate_count(self, store):
        cfg = ss.PsoConfig(match_radius=0)
        candidates, skipped = ss.enumerate_candidates(store, cfg)
        assert len(candidates) == 20 + 5
        assert skipped == ()
        assert candidates[:20].tolist() == store.history[:, 1:].tolist()

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
        expected = ss.FitnessEvaluator(store, cfg).evaluate(result.best_position)
        assert result.best_fitness == expected
        assert result.best_position[0] == 1
        assert store.match_counts(1, [result.best_position[1:]], 0)[0].tolist() == [0]

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
        product_3 = store.history[store.history[:, 1] == 3]
        assert len(product_3) == 7
        record_vector = tuple(product_3[0, 1:].tolist())
        tids = set(product_3[:, 0].tolist())
        t_stock = sum(sum(lt) for t, *lt in store.lead.tolist() if t in tids)
        expected = evaluator.score(np.array([3]), np.array([7]), np.array([t_stock]))[0]
        assert evaluator.evaluate([float(v) for v in record_vector]) == expected
        result = ss.oracle_minimum(store, cfg)
        assert result.evaluations >= 20
