"""Loading, cross-validation and box matching of the historical tables."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

import stockswarm as ss
from stockswarm.errors import (
    ConfigError,
    DimensionMismatch,
    DuplicateTid,
    MissingLeadTimeRow,
    MissingRawMaterial,
    ParseError,
)
from stockswarm import history
from stockswarm.history import _headers, _parse_lines, _read_table, _table


def brute_force_match(history_rows, product_id, levels, radius):
    """Independent reference matcher: plain loops, no numpy."""
    hits = []
    for row in history_rows:
        tid, pid, values = row[0], row[1], row[2:]
        if pid != product_id:
            continue
        if all(abs(v - q) <= radius for v, q in zip(values, levels)):
            hits.append(tid)
    return sorted(hits)


class TestLoading:
    def test_fixture_shape(self, store):
        assert store.total_periods == 20
        assert store.products == (1, 2, 3, 4, 5)
        assert len(store.records) == 20
        assert len(store.lead_records) == 20
        assert len(store.raw_records) == 20

    def test_records_sorted_by_tid(self, store):
        tids = [r.tid for r in store.records]
        assert tids == sorted(tids) == list(range(1, 21))

    def test_reload_is_identical(self, paths, topology, store):
        again = ss.load_store(*paths, topology)
        assert again.records == store.records
        assert again.lead_records == store.lead_records
        assert again.raw_records == store.raw_records

    def test_loader_agrees_with_independent_parse(self, store, raw_tables):
        (h_header, h_rows), (s_header, s_rows), (r_header, r_rows) = raw_tables
        assert h_header == ["TID", "PI"] + [f"F{i}" for i in range(1, 8)]
        assert s_header == ["TID"] + [f"T{i}" for i in range(1, 7)]
        assert r_header == ["PI", "RM", "T"]
        for record, row in zip(store.records, sorted(h_rows)):
            assert (record.tid, record.product_id, *record.levels) == tuple(row)
        for record, row in zip(store.lead_records, sorted(s_rows)):
            assert (record.tid, *record.link_times) == tuple(row)
        assert len(store.raw_records) == len(r_rows)


class TestLoadErrors:
    def _write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return path

    def _paths(self, tmp_path, paths, **overrides):
        out = {"history": paths[0], "stock_lead": paths[1], "raw_lead": paths[2]}
        out.update(overrides)
        return out["history"], out["stock_lead"], out["raw_lead"]

    def test_empty_file(self, tmp_path, paths, topology):
        empty = self._write(tmp_path, "empty.csv", "")
        with pytest.raises(ParseError, match="empty"):
            ss.load_store(*self._paths(tmp_path, paths, history=empty), topology)

    def test_header_only(self, tmp_path, paths, topology):
        header = self._write(tmp_path, "h.csv", "TID,PI,F1,F2,F3,F4,F5,F6,F7\n")
        with pytest.raises(ParseError, match="no records"):
            ss.load_store(*self._paths(tmp_path, paths, history=header), topology)

    def test_wrong_header_width_is_dimension_mismatch(self, tmp_path, paths, topology):
        bad = self._write(tmp_path, "h.csv", "TID,PI,F1,F2\n1,1,5,5\n")
        with pytest.raises(DimensionMismatch):
            ss.load_store(*self._paths(tmp_path, paths, history=bad), topology)

    def test_wrong_header_names(self, tmp_path, paths, topology):
        bad = self._write(
            tmp_path, "h.csv", "TID,PRODUCT,F1,F2,F3,F4,F5,F6,F7\n1,1,0,0,0,0,0,0,0\n"
        )
        with pytest.raises(ParseError, match="header"):
            ss.load_store(*self._paths(tmp_path, paths, history=bad), topology)

    def test_short_row_is_dimension_mismatch(self, tmp_path, paths, topology):
        bad = self._write(
            tmp_path, "h.csv", "TID,PI,F1,F2,F3,F4,F5,F6,F7\n1,1,0,0,0\n"
        )
        with pytest.raises(DimensionMismatch, match="line 2"):
            ss.load_store(*self._paths(tmp_path, paths, history=bad), topology)

    def test_non_integer_field(self, tmp_path, paths, topology):
        bad = self._write(
            tmp_path, "h.csv", "TID,PI,F1,F2,F3,F4,F5,F6,F7\n1,1,0,x,0,0,0,0,0\n"
        )
        with pytest.raises(ParseError, match="not an integer"):
            ss.load_store(*self._paths(tmp_path, paths, history=bad), topology)

    def test_duplicate_history_tid(self, tmp_path, paths, topology):
        bad = self._write(
            tmp_path,
            "h.csv",
            "TID,PI,F1,F2,F3,F4,F5,F6,F7\n"
            "1,1,0,0,0,0,0,0,0\n"
            "1,2,0,0,0,0,0,0,0\n",
        )
        with pytest.raises(DuplicateTid, match="TID 1"):
            ss.load_store(*self._paths(tmp_path, paths, history=bad), topology)

    def test_missing_lead_time_row_names_the_tid(self, tmp_path, paths, topology):
        history = self._write(
            tmp_path,
            "h.csv",
            "TID,PI,F1,F2,F3,F4,F5,F6,F7\n99,1,0,0,0,0,0,0,0\n",
        )
        with pytest.raises(MissingLeadTimeRow, match="99"):
            ss.load_store(*self._paths(tmp_path, paths, history=history), topology)

    def test_missing_raw_material_product(self, tmp_path, paths, topology):
        # TID 1 carries product 3, the first uncovered product in scan order
        raw = self._write(tmp_path, "r.csv", "PI,RM,T\n1,1,20\n")
        with pytest.raises(MissingRawMaterial, match="product 3"):
            ss.load_store(*self._paths(tmp_path, paths, raw_lead=raw), topology)

    def test_negative_lead_time_rejected(self, tmp_path, paths, topology):
        bad = self._write(
            tmp_path,
            "s.csv",
            "TID,T1,T2,T3,T4,T5,T6\n" + "\n".join(
                f"{tid},1,1,1,1,1,{-1 if tid == 3 else 1}" for tid in range(1, 21)
            ) + "\n",
        )
        with pytest.raises(ParseError, match="below minimum"):
            ss.load_store(*self._paths(tmp_path, paths, stock_lead=bad), topology)

    def test_duplicate_raw_material_row(self, tmp_path, paths, topology, raw_tables):
        text = "PI,RM,T\n" + "".join(
            f"{p},{m},{t}\n" for p, m, t in raw_tables[2][1]
        ) + "3,1,24\n"
        raw = self._write(tmp_path, "r.csv", text)
        with pytest.raises(ParseError, match="duplicated"):
            ss.load_store(*self._paths(tmp_path, paths, raw_lead=raw), topology)

    def test_unreadable_path(self, tmp_path, paths, topology):
        with pytest.raises(ParseError, match="cannot read"):
            ss.load_store(tmp_path / "absent.csv", paths[1], paths[2], topology)

    def test_from_records_checks_level_width(self, tiny_rows):
        topology, history, leads, raws = tiny_rows
        history = history + [(4, 1, (1, 2))]
        with pytest.raises(DimensionMismatch):
            ss.HistoryStore.from_records(topology, history, leads + [(4, (1, 1))], raws)

    def test_from_records_checks_empty_history(self, tiny_rows):
        topology, _, leads, raws = tiny_rows
        with pytest.raises(ParseError, match="no records"):
            ss.HistoryStore.from_records(topology, [], leads, raws)

    def test_constructor_checks_history_width(self, store):
        # TID, PI and three levels where the chain has seven members
        history = np.array([[1, 3, 0, 0, 0], [2, 3, 0, 0, 0]])
        with pytest.raises(DimensionMismatch, match=r"history table has shape \(2, 5\), expected \(n, 9\)"):
            ss.HistoryStore(store.topology, history, store.lead, store.raw)


class TestMatching:
    def test_exact_match_on_own_vector(self, store, raw_tables):
        for row in raw_tables[0][1]:
            tid, pid, levels = row[0], row[1], row[2:]
            result = store.match_individual(pid, levels, 0)
            expected = brute_force_match(raw_tables[0][1], pid, levels, 0)
            assert result.tolist() == expected
            assert tid in result.tolist()

    def test_agrees_with_brute_force_across_radii(self, store, raw_tables):
        rows = raw_tables[0][1]
        rng = np.random.default_rng(9)
        for radius in (0, 1, 37, 100, 400):
            for row in rows[::3]:
                pid, levels = row[1], row[2:]
                jitter = rng.integers(-radius - 5, radius + 6, size=len(levels))
                query = [v + int(j) for v, j in zip(levels, jitter)]
                got = store.match_individual(pid, query, radius)
                assert got.tolist() == brute_force_match(rows, pid, query, radius)

    def test_zero_radius_is_exact_equality(self, store, raw_tables):
        row = raw_tables[0][1][0]
        pid, levels = row[1], row[2:]
        off = list(levels)
        off[3] += 1
        assert len(store.match_individual(pid, off, 0)) == 0

    def test_unknown_product_matches_nothing(self, store):
        assert store.match_individual(42, [0] * 7, 1000).tolist() == []

    def test_occurrences_bounded_by_periods(self, store):
        assert len(store.match_individual(3, [0] * 7, 10**6)) == 7 <= store.total_periods

    @given(
        pair=st.tuples(
            st.integers(min_value=0, max_value=300),
            st.integers(min_value=0, max_value=300),
        ),
        pid=st.integers(min_value=1, max_value=5),
        base=st.integers(min_value=-900, max_value=900),
    )
    @settings(max_examples=60, deadline=None)
    def test_radius_monotonicity(self, store, pair, pid, base):
        r_small, r_big = min(pair), max(pair)
        query = [base + (i * 17) % 40 for i in range(7)]
        small = store.match_individual(pid, query, r_small)
        big = store.match_individual(pid, query, r_big)
        assert set(small.tolist()) <= set(big.tolist())

    def test_wrong_query_width(self, store):
        with pytest.raises(DimensionMismatch):
            store.match_individual(1, [0, 0, 0], 0)

    def test_match_counts_wrong_query_width(self, store):
        with pytest.raises(DimensionMismatch, match=r"queries have shape \(1, 2\), expected \(n, 7\)"):
            store.match_counts(3, np.zeros((1, 2), dtype=np.int64), 0)

    def test_negative_radius(self, store):
        with pytest.raises(ConfigError):
            store.match_individual(1, [0] * 7, -1)

    @pytest.mark.parametrize("radius", [math.nan, 2.5, "1", None, np.float64(1.0)])
    def test_non_integer_radius(self, store, radius):
        # NaN once raised ValueError, "1" and None TypeError, and 2.5 matched
        # as radius 2
        with pytest.raises(ConfigError, match="matching radius must be an integer"):
            store.match_individual(1, [0] * 7, radius)
        with pytest.raises(ConfigError, match="matching radius must be an integer"):
            store.match_counts(1, np.zeros((1, 7), dtype=np.int64), radius)

    def test_integer_radius_types(self, store):
        query = store.history[:1, 2:]  # TID 1, product 3
        for radius in (np.int64(0), np.uint64(0), np.int8(0)):
            assert [a.tolist() for a in store.match_counts(3, query, radius)] == [[1], [121]]
            assert store.match_individual(3, query[0], radius).tolist() == [1]


class TestLeadTimeQueries:
    def test_reference_sums(self, store):
        assert store.history[0, :2].tolist() == [1, 3]
        levels = store.history[:1, 2:]
        occ, t_stock = store.match_counts(3, np.concatenate([levels, levels + 10**6]), 0)
        assert (occ.tolist(), t_stock.tolist()) == ([1, 0], [121, 0])
        assert sum(store.lead[:2, 1:].ravel().tolist()) == 248  # TIDs 1 and 2
        assert store.raw_lead_time_total(3) == 89
        assert store.raw_lead_time_total(1) == 31

    def test_sums_match_independent_parse(self, store, raw_tables):
        link_days = {row[0]: sum(row[1:]) for row in raw_tables[1][1]}
        assert {t: sum(lt) for t, *lt in store.lead.tolist()} == link_days
        for _, pid, *levels in raw_tables[0][1]:
            same = [row[0] for row in raw_tables[0][1] if row[1] == pid and row[2:] == levels]
            occ, t_stock = store.match_counts(pid, np.array([levels]), 0)
            assert (occ.tolist(), t_stock.tolist()) == ([len(same)], [sum(link_days[t] for t in same)])
        totals = {}
        for pid, _, t in raw_tables[2][1]:
            totals[pid] = totals.get(pid, 0) + t
        for pid, expected in totals.items():
            assert store.raw_lead_time_total(pid) == expected

    def test_additivity_over_disjoint_sets(self, store):
        # t_stock of a query is the sum of its matched records' link days
        link_days = {t: sum(lt) for t, *lt in store.lead.tolist()}
        for pid, radius in itertools.product(store.products, [0, 50, 400, 10**6]):
            levels = store.history[store.history[:, 1] == pid, 2:]
            occ, t_stock = store.match_counts(pid, levels, radius)
            for row, n, total in zip(levels, occ.tolist(), t_stock.tolist()):
                tids = store.match_individual(pid, row, radius).tolist()
                assert (n, total) == (len(tids), sum(link_days[t] for t in tids))

    def test_unknown_product_raw(self, store):
        with pytest.raises(MissingRawMaterial):
            store.raw_lead_time_total(6)


INT64_MAX = 2**63 - 1
SMALL_TOPOLOGY = ss.Topology(dc_count=1, agents_per_dc=(1,))


def write_tables(directory, topology, history, leads, raws):
    """Write in-memory rows as the three CSV files and return their paths."""
    l = topology.member_count
    tables = (
        ("h.csv", ["TID", "PI"] + [f"F{i}" for i in range(1, l + 1)],
         [(t, p, *lv) for t, p, lv in history]),
        ("s.csv", ["TID"] + [f"T{i}" for i in range(1, l)], [(t, *lt) for t, lt in leads]),
        ("r.csv", ["PI", "RM", "T"], raws),
    )
    paths = []
    for name, header, rows in tables:
        path = directory / name
        path.write_text(
            "\n".join([",".join(header)] + [",".join(map(str, row)) for row in rows]) + "\n",
            encoding="utf-8",
        )
        paths.append(path)
    return paths


def outcome(build):
    """The store ``build`` returns, or the type and message of its error."""
    try:
        return build()
    except (ParseError, DimensionMismatch, DuplicateTid, MissingLeadTimeRow, MissingRawMaterial) as exc:
        return type(exc), str(exc)


def assert_same_store(a, b):
    assert a.records == b.records
    assert a.lead_records == b.lead_records
    assert a.raw_records == b.raw_records
    assert a.products == b.products
    for x, y in ((a.history, b.history), (a.lead, b.lead), (a.raw, b.raw)):
        assert x.dtype == y.dtype == np.int64
        assert np.array_equal(x, y)
    for pid in {r.product_id for r in a.raw_records}:
        assert a.raw_lead_time_total(pid) == b.raw_lead_time_total(pid)


@st.composite
def valid_tables(draw):
    """Rows of a valid 3-member data set in random order, with values that
    reach the edges of int64 and lead-time sums that may not fit it.  Some
    lead-time rows may belong to no history row."""
    level = st.one_of(
        st.integers(-5, 5), st.integers(-(2**63), INT64_MAX), st.sampled_from([-(2**63), INT64_MAX])
    )
    days = st.one_of(st.integers(0, 50), st.integers(2**62 - 2, 2**62 + 2), st.just(INT64_MAX))
    all_tids = draw(st.lists(st.integers(1, 10**6), min_size=1, max_size=10, unique=True))
    tids = all_tids[: draw(st.integers(1, len(all_tids)))]
    history = [(t, draw(st.integers(1, 4)), draw(st.tuples(level, level, level))) for t in tids]
    leads = [(t, draw(st.tuples(days, days))) for t in draw(st.permutations(all_tids))]
    pairs = draw(st.lists(st.tuples(st.integers(1, 5), st.integers(1, 3)), unique=True, max_size=10))
    covered = {p for p, _ in pairs}
    pairs += [(p, 1) for p in range(1, 5) if p not in covered]
    raws = [(p, m, draw(days)) for p, m in draw(st.permutations(pairs))]
    return history, leads, raws


# Rows below a column minimum, on the 3-member rows of ``tiny_rows``: the
# CSV reader once checked these alone, by line; now every constructor does.
MINIMUM_DEFECTS = {
    "history-tid-below-1": (
        lambda h, s, r: (h + [(0, 1, (0, 0, 0))], s, r),
        ParseError, "history row TID=0: TID 0 below minimum 1",
    ),
    "history-tid-negative": (
        lambda h, s, r: (h + [(-4, 0, (0, 0, 0)), (4, 0, (0, 0, 0))], s, r),
        ParseError, "history row TID=-4: TID -4 below minimum 1",
    ),
    "history-pi-zero": (
        lambda h, s, r: (h + [(4, 0, (0, 0, 0))], s, r),
        ParseError, "history row TID=4: PI 0 below minimum 1",
    ),
    "lead-tid-below-1": (
        lambda h, s, r: (h, s + [(-4, (1, 1))], r),
        ParseError, "stock-lead-time row TID=-4: TID -4 below minimum 1",
    ),
    "link-time-negative": (
        lambda h, s, r: (h, s[:2] + [(3, (2, -50))], r),
        ParseError, "stock-lead-time row TID=3: T2 -50 below minimum 0",
    ),
    "raw-pi-below-1": (
        lambda h, s, r: (h, s, r + [(0, 1, 3)]),
        ParseError, "raw-material row PI=0, RM=1: PI 0 below minimum 1",
    ),
    "raw-rm-below-1": (
        lambda h, s, r: (h, s, r + [(2, 0, 3)]),
        ParseError, "raw-material row PI=2, RM=0: RM 0 below minimum 1",
    ),
    "raw-time-negative": (
        lambda h, s, r: (h, s, r[:2] + [(2, 1, -7)]),
        ParseError, "raw-material row PI=2, RM=1: T -7 below minimum 0",
    ),
}


def lexsorted_table(matrix, keys):
    """A table sorted by its first ``keys`` columns with ``np.lexsort``, and
    its first repeated key, or None."""
    matrix = matrix[np.lexsort(matrix[:, keys - 1 :: -1].T)]
    repeats = [i for i in range(1, len(matrix)) if (matrix[i, :keys] == matrix[i - 1, :keys]).all()]
    return matrix, (matrix[repeats[0], :keys].tolist() if repeats else None)


class TestTableOrder:
    @given(
        rows=st.lists(
            st.tuples(st.sampled_from([1, 2, 2**62, INT64_MAX]) | st.integers(1, 9), st.integers(1, 3),
                      st.integers(0, 5) | st.just(INT64_MAX)),
            max_size=30,
        ),
        keys=st.sampled_from([1, 2]),
        order=st.sampled_from(["unsorted", "sorted", "duplicated"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matrix_and_first_repeat_match_lexsort(self, rows, keys, order):
        matrix = np.array(rows, dtype=np.int64).reshape(-1, 3)
        if order == "sorted":
            matrix = lexsorted_table(matrix, keys)[0]
        elif order == "duplicated":
            matrix = np.concatenate([matrix, matrix[::2]])
        want = lexsorted_table(matrix, keys)
        for read_only in (False, True):
            given_matrix = matrix.copy()
            given_matrix.flags.writeable = not read_only
            got, repeat = _table(given_matrix, ["PI", "RM", "T"], keys, "raw-material", [1, 1, 0])
            assert got.tolist() == want[0].tolist() and repeat == want[1]
            # a caller's writable matrix is never held; a read-only one in
            # key order is held as it is
            in_order = got.tolist() == matrix.tolist()
            assert np.shares_memory(got, given_matrix) == (read_only and in_order and len(matrix) > 0)


class TestOneConstructor:
    @given(tables=valid_tables())
    @settings(max_examples=80, deadline=None)
    def test_load_store_equals_from_records(self, tmp_path_factory, tables):
        history, leads, raws = tables
        paths = write_tables(tmp_path_factory.mktemp("csv"), SMALL_TOPOLOGY, *tables)
        loaded = outcome(lambda: ss.load_store(*paths, SMALL_TOPOLOGY))
        built = outcome(lambda: ss.HistoryStore.from_records(SMALL_TOPOLOGY, *tables))
        lead_sums = {t: sum(lt) for t, lt in leads}
        raw_totals = {}
        for p, _, t in raws:
            raw_totals[p] = raw_totals.get(p, 0) + t
        if max([*lead_sums.values(), *raw_totals.values()]) > INT64_MAX:
            assert isinstance(built, tuple) and built[0] is ParseError
            assert built == loaded
            return
        assert_same_store(loaded, built)
        assert [(r.tid, r.product_id, r.levels) for r in built.records] == sorted(history)
        assert [(r.tid, r.link_times) for r in built.lead_records] == sorted(leads)
        assert [(r.product_id, r.raw_material_id, r.time) for r in built.raw_records] == sorted(raws)
        assert {t: sum(lt) for t, *lt in built.lead.tolist()} == lead_sums
        # every record of a product lies within radius 2**64 of any query;
        # the guard names the lowest product whose total passes int64
        past = []
        for pid in built.products:
            sums = [lead_sums[t] for t, p, _ in history if p == pid]
            if sum(sums) > INT64_MAX:
                past.append((pid, sum(sums)))
                continue
            occ, t_stock = built.match_counts(pid, np.zeros((1, 3), dtype=np.int64), 2**64)
            assert (occ.tolist(), t_stock.tolist()) == ([len(sums)], [sum(sums)])
        if past:
            message = f"^stock lead times of product {past[0][0]} sum to {past[0][1]}, past"
            with pytest.raises(ParseError, match=message):
                built._check_lead_time_totals()
        else:
            built._check_lead_time_totals()
        for pid, total in raw_totals.items():
            assert built.raw_lead_time_total(pid) == total

    @given(
        cells=st.lists(
            st.tuples(*[st.integers(0, INT64_MAX)] * 6), min_size=1, max_size=6
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_lead_sums_are_exact(self, cells):
        # from_records takes any non-negative int64 link days
        topology = ss.Topology(dc_count=1, agents_per_dc=(5,))
        history = [(tid, 1, (0,) * 7) for tid in range(1, len(cells) + 1)]
        leads = list(zip(range(1, len(cells) + 1), cells))
        past = [tid for tid, lt in leads if sum(lt) > INT64_MAX]
        result = outcome(lambda: ss.HistoryStore.from_records(topology, history, leads, [(1, 1, 1)]))
        if past:
            assert result == (
                ParseError,
                f"lead-time TID {past[0]} link times sum to {sum(leads[past[0] - 1][1])}, "
                "past the int64 range",
            )
        else:
            assert result.lead.tolist() == [[tid, *lt] for tid, lt in leads]
            # every record has level row 0, so one radius-0 query matches them all
            total = sum(map(sum, cells))
            if total > INT64_MAX:
                with pytest.raises(ParseError, match=f"product 1 sum to {total}, past the int64"):
                    ss.FitnessEvaluator(result, ss.PsoConfig())
            else:
                ss.FitnessEvaluator(result, ss.PsoConfig())
                occ, t_stock = result.match_counts(1, np.zeros((1, 7), dtype=np.int64), 0)
                assert (occ.tolist(), t_stock.tolist()) == ([len(cells)], [total])

    # Single-defect inputs on the 3-member rows of ``tiny_rows``: each edit
    # and the error both constructors must raise for it.
    DEFECTS = {
        "duplicate-history-tid": (
            lambda h, s, r: (h + [(1, 2, (0, 0, 0))], s, r),
            DuplicateTid, "history TID 1 appears more than once",
        ),
        "duplicate-lead-tid": (
            lambda h, s, r: (h, s + [(2, (0, 0))], r),
            DuplicateTid, "lead-time TID 2 appears more than once",
        ),
        "duplicate-raw-pair": (
            lambda h, s, r: (h, s, r + [(1, 2, 7)]),
            ParseError, "raw-material row (PI=1, RM=2) duplicated",
        ),
        "missing-lead-row": (
            lambda h, s, r: (h, s[:2], r),
            MissingLeadTimeRow, "history TID 3 has no stock-lead-time row",
        ),
        "missing-raw-product": (
            lambda h, s, r: (h, s, r[:2]),
            MissingRawMaterial, "product 2 appears in history but has no raw-material rows",
        ),
        "lead-and-raw-missing-on-one-tid": (
            lambda h, s, r: (h + [(4, 9, (0, 0, 0))], s, r),
            MissingLeadTimeRow, "history TID 4 has no stock-lead-time row",
        ),
        "raw-missing-before-lead": (
            lambda h, s, r: (h + [(4, 9, (0, 0, 0)), (5, 1, (0, 0, 0))], s + [(4, (1, 1))], r),
            MissingRawMaterial, "product 9 appears in history but has no raw-material rows",
        ),
        "lead-row-sum-past-int64": (
            lambda h, s, r: (h, [(1, (2**62, 2**62))] + s[1:], r),
            ParseError, f"lead-time TID 1 link times sum to {2**63}, past the int64 range",
        ),
        "raw-total-past-int64": (
            lambda h, s, r: (h, s, [(1, 1, 2**62), (1, 2, 2**62)] + r[2:]),
            ParseError, f"raw-material times of product 1 sum to {2**63}, past the int64 range",
        ),
        **MINIMUM_DEFECTS,
    }

    @pytest.mark.parametrize("defect", list(MINIMUM_DEFECTS))
    def test_matrix_constructor_checks_minimums(self, tiny_rows, defect):
        edit, error, message = MINIMUM_DEFECTS[defect]
        topology, *rows = tiny_rows
        history, leads, raws = edit(*rows)
        matrices = (
            np.array([(t, p, *lv) for t, p, lv in history]),
            np.array([(t, *lt) for t, lt in leads]),
            np.array(raws),
        )
        assert outcome(lambda: ss.HistoryStore(topology, *matrices)) == (error, message)

    @pytest.mark.parametrize("defect", list(DEFECTS))
    def test_single_defect_same_error_both_ways(self, tmp_path, tiny_rows, defect):
        edit, error, message = self.DEFECTS[defect]
        topology, *rows = tiny_rows
        tables = edit(*rows)
        paths = write_tables(tmp_path, topology, *tables)
        assert outcome(lambda: ss.HistoryStore.from_records(topology, *tables)) == (error, message)
        assert outcome(lambda: ss.load_store(*paths, topology)) == (error, message)

    # Defects that only in-memory rows can carry: the CSV reader rejects an
    # empty table or a ragged line itself, and a cell past int64 by its line.
    ROW_DEFECTS = {
        "empty-history": (
            lambda h, s, r: ([], s, r), ParseError, "history table holds no records",
        ),
        "ragged-history-row": (
            lambda h, s, r: (h + [(5, 1, (1,)), (4, 1, (1, 2))], s, r),
            DimensionMismatch, "history TID 4 has 2 stock columns, expected 3",
        ),
        "ragged-lead-row": (
            lambda h, s, r: (h, s + [(9, (1, 2, 3)), (8, (1,))], r),
            DimensionMismatch, "lead-time TID 8 has 1 link columns, expected 2",
        ),
        "level-not-integer": (
            lambda h, s, r: (h + [(4, 1, (0, 2.5, 0))], s, r),
            ParseError, "history table holds a value that is not an int64 integer",
        ),
        "level-past-int64": (
            lambda h, s, r: (h + [(4, 1, (0, 2**63, 0))], s, r),
            ParseError, "history table holds a value outside the int64 range",
        ),
        "level-nan": (
            lambda h, s, r: (h + [(4, 1, (0, float("nan"), 0))], s, r),
            ParseError, "history table holds a value that is not an int64 integer",
        ),
    }

    @pytest.mark.parametrize("defect", list(ROW_DEFECTS))
    def test_row_defect_from_records(self, tiny_rows, defect):
        edit, error, message = self.ROW_DEFECTS[defect]
        topology, *rows = tiny_rows
        built = outcome(lambda: ss.HistoryStore.from_records(topology, *edit(*rows)))
        assert built == (error, message)

    @pytest.mark.parametrize(
        "table, value",
        [
            (0, 1e30),
            (0, 2.7),
            (0, np.uint64(2**63)),
            (1, 1.5),
            (2, -0.5),
        ],
    )
    def test_constructor_rejects_non_int64_matrix(self, tiny_rows, table, value):
        topology, history, leads, raws = tiny_rows
        matrices = [
            np.array([(t, p, *lv) for t, p, lv in history]),
            np.array([(t, *lt) for t, lt in leads]),
            np.array(raws),
        ]
        dtype = np.uint64 if isinstance(value, np.uint64) else np.float64
        matrices[table] = matrices[table].astype(dtype)
        matrices[table][-1, -1] = value
        label = ("history", "stock-lead-time", "raw-material")[table]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert outcome(lambda: ss.HistoryStore(topology, *matrices)) == (
                ParseError, f"{label} table holds a value that is not an int64 integer"
            )

    @pytest.mark.parametrize(
        "cell, column", [("99999999999999999999", 3), (str(2**63), 0), (str(-(2**63) - 1), 4)]
    )
    def test_cell_past_int64_names_line_and_value(self, tmp_path, tiny_rows, cell, column):
        topology, *rows = tiny_rows
        paths = write_tables(tmp_path, topology, *rows)
        lines = paths[0].read_text().splitlines()
        cells = lines[2].split(",")
        cells[column] = cell
        lines[2] = ",".join(cells)
        paths[0].write_text("\n".join(lines) + "\n")
        assert outcome(lambda: ss.load_store(*paths, topology)) == (
            ParseError, f"history line 3: value {cell} outside the int64 range"
        )


# Pieces of the differential test of the two CSV parse paths.  Every
# padding character is one that str.strip() removes; every line break one
# that str.splitlines() splits on.
PADDING = " \t\xa0\u3000\x1f"
ASCII_PADDING = " \t\x1f"
LINE_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029\r\n"
SCRIPTS = [str.maketrans("0123456789", "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19"),
           str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")]
LIMITS = [-(2**63), -(2**63) + 1, INT64_MAX - 1, INT64_MAX]
# One defect a wild table carries: a character put into a cell, a cell
# replaced, or a cell dropped from its row.
DEFECTS = (
    [("insert", c) for c in ["_", ".", "e", "x", "#", "'", '"', "\x00", "+", "-", ",", "\r\n", *LINE_BREAKS]]
    + [("replace", c) for c in ["", str(2**63), str(-(2**63) - 1)]]
    + [("drop", None)]
)


@st.composite
def csv_cells(draw, odd, padding=PADDING):
    """One cell: a signed int64 integer, often at the int64 limits, with
    leading zeros and ``padding``.  An odd cell may be written in full-width
    or Arabic-Indic digits or with ``_`` between digits, which ``int()``
    accepts and loadtxt does not."""
    value = draw(st.one_of(st.integers(-20, 20), st.sampled_from(LIMITS), st.integers(-(2**63), INT64_MAX)))
    digits = "0" * draw(st.integers(0, 2)) + str(abs(value))
    if odd and len(digits) > 1 and draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(1, len(digits) - 1))
        digits = digits[:at] + "_" + digits[at:]
    if odd and draw(st.integers(0, 3)) == 0:
        digits = digits.translate(draw(st.sampled_from(SCRIPTS)))
    padding = st.text(st.sampled_from(padding), max_size=2)
    sign = "-" if value < 0 else draw(st.sampled_from(["", "+"]))
    return draw(padding) + sign + digits + draw(padding)


@st.composite
def csv_texts(draw):
    """A raw-material table: its header, then rows of three cells, each
    after a line end: LF, CRLF or blank lines, and in an odd or wild table
    also the other line breaks.  A wild table has one defect.  An LF table
    is ASCII with LF line ends only, the kind parsed from its bytes: it may
    open with blank lines or a UTF-8 byte order mark, pad its lines with
    ASCII whitespace, hold whitespace-only lines and hold no records."""
    mode = draw(st.sampled_from(["lf", "plain", "odd", "wild"]))
    if mode == "lf":
        cells = csv_cells(False, ASCII_PADDING)
        rows = draw(st.lists(st.lists(cells, min_size=3, max_size=3), max_size=4))
        text = draw(st.sampled_from(["", "", "\ufeff", "\n", " \n\n"])) + "PI,RM,T"
        for row in rows:
            text += draw(st.sampled_from(["\n", "\n", "\n\n", "\n \n", "\n\t\x1f\n"])) + ",".join(row)
        return text + draw(st.sampled_from(["", "\n", "\n\n"]))
    cells = csv_cells(mode != "plain")
    rows = draw(st.lists(st.lists(cells, min_size=3, max_size=3), min_size=1, max_size=4))
    if mode == "wild":
        row, at = draw(st.sampled_from(rows)), draw(st.integers(0, 2))
        cut = draw(st.integers(0, len(row[at])))
        kind, piece = draw(st.sampled_from(DEFECTS))
        if kind == "insert":
            row[at] = row[at][:cut] + piece + row[at][cut:]
        elif kind == "replace":
            row[at] = piece
        else:
            del row[at]
    ends = ["\n", "\r\n", "\n\n", "\r\n \r\n"] + (list(LINE_BREAKS) if mode != "plain" else [])
    text = "PI,RM,T"
    for row in rows:
        text += draw(st.sampled_from(ends)) + ",".join(row)
    return text + draw(st.sampled_from(["", "\n", "\r\n"]))


def numbered_lines(text):
    """The stripped non-blank lines of ``text`` with their numbers among all
    the lines ``str.splitlines`` finds, blank ones included."""
    return [(n, line) for n, line in enumerate((line.strip() for line in text.splitlines()), 1) if line]


def parsed(parse):
    """The rows of the int64 matrix ``parse`` returns, or the type and
    message of its error."""
    try:
        matrix = parse()
    except (ParseError, DimensionMismatch) as exc:
        return type(exc), str(exc)
    assert matrix.dtype == np.int64
    return matrix.tolist()


class TestParsePaths:
    """One np.loadtxt call per table, and the per-line parse it falls back to."""

    @given(text=csv_texts())
    @settings(max_examples=300, deadline=None)
    def test_one_call_agrees_with_per_line_parse(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "parse-paths.csv"
        path.write_text(text, encoding="utf-8", newline="")
        lines = numbered_lines(text)
        header = ["PI", "RM", "T"]
        if lines[0][1] != "PI,RM,T":  # a byte order mark is not whitespace
            want = (ParseError, f"raw-material header is {lines[0][1]!r}, expected 'PI,RM,T'")
        elif len(lines) == 1:
            want = (ParseError, f"raw-material file {path} has a header but no records")
        else:
            want = parsed(lambda: _parse_lines(lines[1:], header, "raw-material"))
        one_call = parsed(lambda: _read_table(path, header, "raw-material"))
        assert one_call == want
        lf = text.isascii() and not any(end in text for end in "\r\x0b\x0c\x1c\x1d\x1e")
        kind = "header-first LF" if lf and text.startswith("PI,RM,T\n") else "LF" if lf else "other"
        event(f"{kind} table, {'error' if isinstance(want, tuple) else 'rows'}")

    def test_lf_ascii_table_parses_from_its_bytes(self, paths, topology, monkeypatch, tmp_path):
        # the bundled tables and a synth table take no line split; a table
        # with a blank line first, a carriage return or a whitespace-only
        # line does
        def split(*args):
            raise AssertionError("split into lines")

        synth = ss.write_fixtures(ss.SynthConfig(periods=300), seed=3, out_dir=tmp_path)
        with monkeypatch.context() as patch:
            patch.setattr(history, "_split_and_parse", split)
            for files in (paths, tuple(synth.values())):
                for path, header in zip(files, _headers(topology.member_count)):
                    assert not _read_table(path, header, "t").flags.writeable
        for text in ("\nPI,RM,T\n1,1,1\n", "PI,RM,T\r\n1,1,1\n", "PI,RM,T\n1,1,1\n \n2,1,1\n"):
            path = tmp_path / "split.csv"
            path.write_bytes(text.encode())
            with monkeypatch.context() as patch:
                patch.setattr(history, "_split_and_parse", split)
                with pytest.raises(AssertionError, match="split into lines"):
                    _read_table(path, ["PI", "RM", "T"], "t")

    @pytest.mark.parametrize("byte", [b"\x85", b"\xa0"])
    def test_latin_1_space_is_not_utf_8(self, tmp_path, byte):
        # loadtxt reads bytes as Latin-1, where these are whitespace; as
        # UTF-8 they are no character at all
        path = tmp_path / "raw.csv"
        path.write_bytes(b"PI,RM,T\n1,1,3" + byte + b"\n")
        kind, message = outcome(lambda: _read_table(path, ["PI", "RM", "T"], "raw-material"))
        assert kind is ParseError
        assert message.startswith(f"cannot read raw-material file {path}: 'utf-8' codec can't decode byte")

    def test_fallback_loads_what_int_accepts(self, tmp_path, tiny_rows):
        # loadtxt rejects "1_000" and "\uff15"; the form feed ends a record
        topology, *rows = tiny_rows
        paths = write_tables(tmp_path, topology, *rows)
        paths[0].write_text(
            "TID,PI,F1,F2,F3\n1,1,1_000,-20,30\x0c2,2,\uff15,0,0\n3,1,10,-20,31\n", encoding="utf-8"
        )
        store = ss.load_store(*paths, topology)
        assert [(r.tid, r.product_id, r.levels) for r in store.records] == [
            (1, 1, (1000, -20, 30)), (2, 2, (5, 0, 0)), (3, 1, (10, -20, 31))
        ]

    @pytest.mark.parametrize("cell", ["5.0", "1e3", "0x10", "", "5#", '"5"'])
    def test_non_integer_cell_names_its_line(self, tmp_path, tiny_rows, cell):
        # the last cell of its line, so neither a comment nor a quote may hide it
        topology, *rows = tiny_rows
        paths = write_tables(tmp_path, topology, *rows)
        lines = paths[0].read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + "," + cell
        paths[0].write_text("\n".join(lines) + "\n")
        assert outcome(lambda: ss.load_store(*paths, topology)) == (
            ParseError, f"history line 3: {cell!r} is not an integer"
        )

    @pytest.mark.parametrize(
        "text",
        [
            "TID,PI,F1,F2,F3\n\n\n1,1,0,0,0\n2,1,0,x,0\n",
            "\nTID,PI,F1,F2,F3\n1,1,0,0,0\n \n2,1,0,x,0\n",
            "TID,PI,F1,F2,F3\r\n1,1,0,0,0\x0c\x0c\r\n2,1,0,x,0\n",
        ],
    )
    def test_error_line_counts_blank_lines(self, tmp_path, tiny_rows, text):
        # the x is on line 5 of each table, after blank lines, a blank line
        # first or two form feeds; str.splitlines finds each of those lines
        topology, *rows = tiny_rows
        paths = write_tables(tmp_path, topology, *rows)
        paths[0].write_text(text, encoding="utf-8", newline="")
        assert outcome(lambda: ss.load_store(*paths, topology)) == (
            ParseError, "history line 5: 'x' is not an integer"
        )

    def test_fixture_and_synth_tables_equal_on_both_paths(self, paths, topology, tmp_path):
        synth = ss.write_fixtures(ss.SynthConfig(periods=300), seed=3, out_dir=tmp_path)
        for files in (paths, tuple(synth.values())):
            for path, header in zip(files, _headers(topology.member_count)):
                lines = numbered_lines(path.read_text(encoding="utf-8"))
                assert parsed(lambda: _read_table(path, header, "t")) == parsed(
                    lambda: _parse_lines(lines[1:], header, "t")
                )
