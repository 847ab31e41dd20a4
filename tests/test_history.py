"""Loading, cross-validation and box matching of the historical tables."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stockswarm as ss
from stockswarm.errors import (
    ConfigError,
    DimensionMismatch,
    DuplicateTid,
    MissingLeadTimeRow,
    MissingRawMaterial,
    ParseError,
    UnknownTid,
)


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


class TestMatching:
    def test_exact_match_on_own_vector(self, store, raw_tables):
        for row in raw_tables[0][1]:
            tid, pid, levels = row[0], row[1], row[2:]
            result = store.match_individual(pid, levels, 0)
            expected = brute_force_match(raw_tables[0][1], pid, levels, 0)
            assert list(result.tids) == expected
            assert tid in result.tids
            assert result.occurrences == len(result.tids)

    def test_agrees_with_brute_force_across_radii(self, store, raw_tables):
        rows = raw_tables[0][1]
        rng = np.random.default_rng(9)
        for radius in (0, 1, 37, 100, 400):
            for row in rows[::3]:
                pid, levels = row[1], row[2:]
                jitter = rng.integers(-radius - 5, radius + 6, size=len(levels))
                query = [v + int(j) for v, j in zip(levels, jitter)]
                got = store.match_individual(pid, query, radius)
                assert list(got.tids) == brute_force_match(rows, pid, query, radius)

    def test_zero_radius_is_exact_equality(self, store, raw_tables):
        row = raw_tables[0][1][0]
        pid, levels = row[1], row[2:]
        off = list(levels)
        off[3] += 1
        assert store.match_individual(pid, off, 0).occurrences == 0

    def test_unknown_product_matches_nothing(self, store):
        assert store.match_individual(42, [0] * 7, 1000).tids == ()

    def test_occurrences_bounded_by_periods(self, store):
        result = store.match_individual(3, [0] * 7, 10**6)
        assert result.occurrences == 7 <= store.total_periods

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
        assert set(small.tids) <= set(big.tids)

    def test_wrong_query_width(self, store):
        with pytest.raises(DimensionMismatch):
            store.match_individual(1, [0, 0, 0], 0)

    def test_negative_radius(self, store):
        with pytest.raises(ConfigError):
            store.match_individual(1, [0] * 7, -1)

    def test_match_result_validates(self):
        with pytest.raises(ConfigError):
            ss.MatchResult((1, 2), 3)
        with pytest.raises(ConfigError):
            ss.MatchResult((2, 1), 2)


class TestLeadTimeQueries:
    def test_reference_sums(self, store):
        assert store.stock_lead_time_total([1]) == 121
        assert store.stock_lead_time_total([1, 2]) == 248
        assert store.stock_lead_time_total([]) == 0
        assert store.raw_lead_time_total(3) == 89
        assert store.raw_lead_time_total(1) == 31

    def test_sums_match_independent_parse(self, store, raw_tables):
        for row in raw_tables[1][1]:
            assert store.stock_lead_time_total([row[0]]) == sum(row[1:])
        totals = {}
        for pid, _, t in raw_tables[2][1]:
            totals[pid] = totals.get(pid, 0) + t
        for pid, expected in totals.items():
            assert store.raw_lead_time_total(pid) == expected

    def test_additivity_over_disjoint_sets(self, store):
        for a, b in itertools.combinations([(1, 4), (2,), (7, 9, 12)], 2):
            assert store.stock_lead_time_total(a) + store.stock_lead_time_total(
                b
            ) == store.stock_lead_time_total(list(a) + list(b))

    def test_unknown_tid(self, store):
        with pytest.raises(UnknownTid, match="999"):
            store.stock_lead_time_total([1, 999])
        with pytest.raises(UnknownTid, match=str(2**70)):
            store.stock_lead_time_total([1, 2**70])

    @pytest.mark.parametrize("tid", [1.5, 2.0, "1", float("nan"), None, np.uint64(2**63)])
    def test_tid_that_is_no_integer_is_unknown(self, store, tid):
        with pytest.raises(UnknownTid, match=f"TID {tid} has"):
            store.stock_lead_time_total([1, tid])

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
    for pid in a.products:
        for x, y in zip(a.product_rows(pid), b.product_rows(pid)):
            assert x.dtype == y.dtype == np.int64
            assert np.array_equal(x, y)
        tids = a.product_rows(pid)[0].tolist()
        assert a.stock_lead_time_total(tids) == b.stock_lead_time_total(tids)
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
        for tid, total in lead_sums.items():
            assert built.stock_lead_time_total([tid]) == total
        for pid in built.products:
            tids, _, sums = built.product_rows(pid)
            assert sums.tolist() == [lead_sums[t] for t in tids.tolist()]
        for pid, total in raw_totals.items():
            assert built.raw_lead_time_total(pid) == total

    @given(
        cells=st.lists(
            st.tuples(*[st.integers(-(2**63), INT64_MAX)] * 6), min_size=1, max_size=6
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_lead_sums_are_exact(self, cells):
        # from_records takes any int64 link days, negative ones too
        topology = ss.Topology(dc_count=1, agents_per_dc=(5,))
        history = [(tid, 1, (0,) * 7) for tid in range(1, len(cells) + 1)]
        leads = list(zip(range(1, len(cells) + 1), cells))
        past = [tid for tid, lt in leads if not -(2**63) <= sum(lt) <= INT64_MAX]
        result = outcome(lambda: ss.HistoryStore.from_records(topology, history, leads, [(1, 1, 1)]))
        if past:
            assert result == (
                ParseError,
                f"lead-time TID {past[0]} link times sum to {sum(leads[past[0] - 1][1])}, "
                "past the int64 range",
            )
        else:
            assert result.product_rows(1)[2].tolist() == [sum(lt) for _, lt in leads]
            assert result.stock_lead_time_total(range(1, len(cells) + 1)) == sum(map(sum, cells))

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
    }

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
