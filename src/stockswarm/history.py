"""Loading, validation and querying of the three historical tables.

The store ingests:

* ``stock_history.csv``       -- per-period signed stock levels, one row per
  transportation id (TID), header ``TID,PI,F1,...,Fl``;
* ``stock_lead_times.csv``    -- per-TID transport days on each of the l-1
  links from factory to end agents, header ``TID,T1,...,T{l-1}``;
* ``raw_material_lead_times.csv`` -- per-product raw-material supply days,
  header ``PI,RM,T``.

Files are strict CSV: comma-separated, no quoting, UTF-8, one record per
line.  After loading, the store is immutable and all queries are read-only,
so it can be shared freely across threads.
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .domain import INT64_MAX, INT64_MIN, Topology, _integer
from .errors import (
    ConfigError,
    DimensionMismatch,
    DuplicateTid,
    MissingLeadTimeRow,
    MissingRawMaterial,
    ParseError,
)

__all__ = [
    "HistoryRecord",
    "StockLeadTimeRecord",
    "RawMaterialLeadTime",
    "HistoryStore",
    "load_store",
]

# Line breaks of str.splitlines in ASCII besides "\n"; a table holding none
# of them splits into the same lines in np.loadtxt.
_OTHER_LINE_ENDS = (b"\r", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e")

# Window rows gathered at once by the box test at radius > 0; each of its
# flat index arrays holds at most this many elements.
_GATHER_ELEMENTS = 2**16


@dataclass(frozen=True)
class HistoryRecord:
    """One period's signed stock levels for one product across the chain."""

    tid: int
    product_id: int
    levels: tuple[int, ...]


@dataclass(frozen=True)
class StockLeadTimeRecord:
    """Transport days on each factory-to-agent link for one period."""

    tid: int
    link_times: tuple[int, ...]


@dataclass(frozen=True)
class RawMaterialLeadTime:
    """Supply days of one raw material for one product."""

    product_id: int
    raw_material_id: int
    time: int


class HistoryStore:
    """Validated, immutable view over the three historical tables.

    It holds each table as one read-only int64 matrix in CSV column order
    and builds record tuples on first read.  Build it with :func:`load_store`
    or :meth:`HistoryStore.from_records`.  Querying never mutates the store.
    """

    def __init__(
        self, topology: Topology, history: np.ndarray, lead: np.ndarray, raw: np.ndarray
    ) -> None:
        self._topology = topology
        l = topology.member_count
        history_columns, lead_columns, raw_columns = _headers(l)

        history, repeat = _table(history, history_columns, 1, "history", [1, 1])
        if not len(history):
            raise ParseError("history table holds no records")
        if repeat:
            raise DuplicateTid(f"history TID {repeat[0]} appears more than once")
        lead, repeat = _table(lead, lead_columns, 1, "stock-lead-time", [1] + [0] * (l - 1))
        if repeat:
            raise DuplicateTid(f"lead-time TID {repeat[0]} appears more than once")
        lead_sums = _int64_sums(lead[:, 1:], lead[:, 0], "lead-time TID {} link times")
        raw, repeat = _table(raw, raw_columns, 2, "raw-material", [1, 1, 0])
        if repeat:
            raise ParseError(f"raw-material row (PI={repeat[0]}, RM={repeat[1]}) duplicated")
        raw_pids, starts = np.unique(raw[:, 0], return_index=True)
        raw_totals = _int64_sums(raw[:, 2:], raw_pids, "raw-material times of product {}", starts)

        tids, pids = history[:, 0], history[:, 1]
        missing = np.flatnonzero(~(np.isin(tids, lead[:, 0]) & np.isin(pids, raw_pids)))
        if missing.size:  # the lowest TID first, and on it a missing lead row first
            tid, pid = history[missing[0], :2].tolist()
            if tid not in lead[:, 0]:
                raise MissingLeadTimeRow(f"history TID {tid} has no stock-lead-time row")
            raise MissingRawMaterial(f"product {pid} appears in history but has no raw-material rows")

        self._history, self._lead, self._raw = history, lead, raw
        self._raw_pids, self._raw_totals = raw_pids, raw_totals
        self._build_index(history, lead_sums[np.searchsorted(lead[:, 0], tids)])

    def _build_index(self, history: np.ndarray, lead_sums: np.ndarray) -> None:
        """The flat index: every product's distinct level rows end to end.

        One stable sort of the records by their ``(PI, F1..Fl)`` values
        orders them: PI leads, so each product's distinct rows form a block,
        member 1 ascends inside a block, and equal rows keep TID order.
        Each distinct row has its numeric key, a record count and a summed
        lead time; each record, in TID order, knows its row.  This one key
        order answers every query: an exact key at radius 0, and otherwise a
        member-1 window between two keys.
        """
        n = len(history)
        order = _key_order(history[:, 1:])
        ordered = history.take(order, axis=0)  # whole rows gather fastest
        opens = np.zeros(n, dtype=bool)  # where a new distinct row starts
        opens[0] = True
        for column in ordered[:, 1:].T:
            opens[1:] |= column[1:] != column[:-1]
        first = np.flatnonzero(opens)
        distinct = ordered.take(first, axis=0)[:, 1:]  # PI, F1..Fl
        del ordered  # a row per record, the build's largest temporary
        self._keys = _numeric_keys(distinct)
        self._record_row = np.empty(n, dtype=np.int64)
        self._record_row[order] = np.cumsum(opens) - 1
        self._lead_sums = lead_sums.take(order)  # per record, in key order
        self._counts = np.diff(np.append(first, n))
        self._sums = np.add.reduceat(self._lead_sums, first)
        row_pids = distinct[:, 0]
        block = np.append(True, row_pids[1:] != row_pids[:-1])  # where a product's block starts
        self._products = row_pids[block]
        self._row_starts = np.append(np.flatnonzero(block), len(first))
        self._rows = np.asfortranarray(distinct[:, 1:])  # member columns contiguous
        for array in vars(self).values():
            if isinstance(array, np.ndarray):
                array.flags.writeable = False

    @classmethod
    def from_records(
        cls,
        topology: Topology,
        history_rows: Iterable[tuple[int, int, Sequence[int]]],
        lead_rows: Iterable[tuple[int, Sequence[int]]],
        raw_rows: Iterable[tuple[int, int, int]],
    ) -> "HistoryStore":
        """Build a store from plain tuples, bypassing file parsing."""
        l = topology.member_count
        history_rows, lead_rows = list(history_rows), list(lead_rows)
        bad = min(((t, len(lv)) for t, _, lv in history_rows if len(lv) != l), default=None)
        if bad:
            raise DimensionMismatch(f"history TID {bad[0]} has {bad[1]} stock columns, expected {l}")
        bad = min(((t, len(lt)) for t, lt in lead_rows if len(lt) != l - 1), default=None)
        if bad:
            raise DimensionMismatch(
                f"lead-time TID {bad[0]} has {bad[1]} link columns, expected {l - 1}"
            )
        history = [(t, p, *lv) for t, p, lv in history_rows]
        return cls(topology, history, [(t, *lt) for t, lt in lead_rows], list(raw_rows))

    @property
    def topology(self) -> Topology:
        return self._topology

    @property
    def history(self) -> np.ndarray:
        """Read-only (n, l + 2) matrix of TID, PI, F1..Fl rows, TIDs ascending."""
        return self._history

    @property
    def lead(self) -> np.ndarray:
        """Read-only (n, l) matrix of TID, T1..T(l-1) rows, TIDs ascending."""
        return self._lead

    @property
    def raw(self) -> np.ndarray:
        """Read-only (n, 3) matrix of PI, RM, T rows, ascending by (PI, RM)."""
        return self._raw

    @cached_property
    def records(self) -> tuple[HistoryRecord, ...]:
        """History records in ascending TID order."""
        return tuple(HistoryRecord(t, p, tuple(lv)) for t, p, *lv in self._history.tolist())

    @cached_property
    def lead_records(self) -> tuple[StockLeadTimeRecord, ...]:
        return tuple(StockLeadTimeRecord(t, tuple(lt)) for t, *lt in self._lead.tolist())

    @cached_property
    def raw_records(self) -> tuple[RawMaterialLeadTime, ...]:
        return tuple(RawMaterialLeadTime(*row) for row in self._raw.tolist())

    @property
    def total_periods(self) -> int:
        """Number of recorded periods (= history rows)."""
        return len(self._history)

    @property
    def products(self) -> tuple[int, ...]:
        """Product ids that occur in the history, ascending."""
        return tuple(self._products.tolist())

    def _check_lead_time_totals(self) -> None:
        """Raise ParseError when the lead times of one product's records sum
        past int64, naming the lowest such product.  A match sums t_stock in
        int64, and a product's largest t_stock is that total."""
        record_starts = (np.cumsum(self._counts) - self._counts)[self._row_starts[:-1]]
        _int64_sums(
            self._lead_sums[:, None], self._products, "stock lead times of product {}", record_starts
        )

    def match_counts(
        self, product_ids, queries: np.ndarray, radius: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """P(occ) and t_stock, the summed lead time of the matched records,
        for each row of an (n, members) matrix of level queries.

        ``product_ids`` holds one product id per query row, or one id for
        them all.  A level or id that is not an int64 integer raises
        ConfigError.  Radius 0 looks each ``(PI, F1..Fl)`` row up among the
        index's distinct keys; a larger radius box-tests the distinct rows
        inside each query's member-1 window, a bounded number at a time.
        """
        queries = _int64_array(queries, ConfigError, "query")
        pids = self._checked(product_ids, queries, radius)
        if radius == 0:
            wanted = _numeric_keys(np.column_stack((pids, queries)))
            at = np.minimum(np.searchsorted(self._keys, wanted), len(self._keys) - 1)
            found = self._keys[at] == wanted
            return np.where(found, self._counts[at], 0), np.where(found, self._sums[at], 0)
        occ, t_stock = np.zeros((2, len(queries)), dtype=np.int64)
        for query, row in self._window_hits(pids, queries, radius):
            if len(row):  # queries ascend, so each query's pairs are one run
                first = np.append(0, (query[1:] != query[:-1]).nonzero()[0] + 1)
                occ[query.take(first)] += np.add.reduceat(self._counts.take(row), first)
                t_stock[query.take(first)] += np.add.reduceat(self._sums.take(row), first)
        return occ, t_stock

    def match_individual(
        self, product_id: int, levels: Sequence[int], radius: int
    ) -> np.ndarray:
        """TIDs, ascending in a new int64 array, of the records of
        ``product_id`` within ``radius`` units of ``levels`` on every member
        dimension.

        ``radius == 0`` is exact integer equality per dimension.  An empty
        result is valid and common.  A level or product id that is not an
        int64 integer raises ConfigError.
        """
        query = _int64_array(levels, ConfigError, "query")
        if query.shape != (self._topology.member_count,):
            raise DimensionMismatch(
                f"query has {query.size} stock entries, expected {self._topology.member_count}"
            )
        pids = self._checked(product_id, query[None, :], radius)
        hit = np.zeros(len(self._rows), dtype=bool)
        for _, row in self._window_hits(pids, query[None, :], radius):
            hit[row] = True  # rows of the queried product's block only
        return self._history[hit[self._record_row], 0]

    def raw_lead_time_total(self, product_id: int) -> int:
        """Sum of raw-material supply days for one product."""
        product_ids = _int64_array([product_id], ConfigError, "product id")
        return int(self._raw_lead_time_totals(product_ids)[0])

    def _raw_lead_time_totals(self, product_ids: np.ndarray) -> np.ndarray:
        """Sums of raw-material supply days for an int64 array of product
        ids.  The lowest id without raw-material rows raises
        MissingRawMaterial."""
        product_ids = np.asarray(product_ids)
        at = np.minimum(np.searchsorted(self._raw_pids, product_ids), len(self._raw_pids) - 1)
        missing = self._raw_pids[at] != product_ids
        if missing.any():
            raise MissingRawMaterial(
                f"product {product_ids[missing].min()} has no raw-material rows"
            )
        return self._raw_totals[at]

    def _checked(self, product_ids, queries: np.ndarray, radius: int) -> np.ndarray:
        """One int64 product id per row of ``queries``, once ``radius``, the
        ids and the (n, members) shape of ``queries`` are checked."""
        if _integer(radius, "matching radius") < 0:
            raise ConfigError(f"matching radius must be non-negative, got {radius}")
        members = self._topology.member_count
        if queries.ndim != 2 or queries.shape[1] != members:
            raise DimensionMismatch(f"queries have shape {queries.shape}, expected (n, {members})")
        pids = _int64_array(product_ids, ConfigError, "product id")
        if pids.ndim > 1 or pids.size not in (1, len(queries)):
            raise DimensionMismatch(
                f"product ids have shape {pids.shape}, expected one or {len(queries)}"
            )
        return pids if pids.shape == (len(queries),) else np.full(len(queries), pids)

    def _windows(self, pids: np.ndarray, low: np.ndarray, span: np.ndarray):
        """Start and stop, in the distinct rows, of each product's rows whose
        member 1 lies in ``[low, low + span]``, bounds given as uint64 views
        of int64 levels.  They lie between the keys of ``(PI, low,
        INT64_MIN, ...)`` and ``(PI, low + span, INT64_MAX, ...)``, both
        included; a product without records gets an empty range."""
        n = len(pids)
        edge = np.empty((2 * n, self._rows.shape[1] + 1), dtype=np.int64)
        edge[:n, 2:], edge[n:, 2:] = INT64_MIN, INT64_MAX
        edge[:n, 0] = edge[n:, 0] = pids
        edge[:n, 1], edge[n:, 1] = low.view(np.int64), (low + span).view(np.int64)
        keys = _numeric_keys(edge)
        return self._keys.searchsorted(keys[:n]), self._keys.searchsorted(keys[n:], "right")

    def _window_hits(self, pids: np.ndarray, queries: np.ndarray, radius: int):
        """Yield, a chunk at a time, (query, row) index pairs where a
        distinct row of a query's product lies within ``radius`` of the
        query on every member, both ascending by query.

        A query's candidates are the rows of its product's block whose
        member 1 lies in its window ``[q1 - radius, q1 + radius]``, found
        by ``_windows``.  The windows of the batch are laid end to end and
        gathered ``_GATHER_ELEMENTS`` rows at a time, so one query with a
        large window is split too; ``cuts`` marks where each query's rows
        start and end among the chunk's rows.  Each member takes one
        unsigned range test, ``level - low <= span`` (``_saturated_bounds``),
        against its query's bounds repeated along those rows.  The rows that
        fail member 2 are dropped, and again those that fail member 3:
        when hits are rare each test leaves few rows for the next.  Members
        4..l share one mask.  Dropping rows maps the cuts with one search
        among the survivors.
        """
        low, span = _saturated_bounds(queries.T.copy(), radius)  # a row per member
        lo, hi = self._windows(pids, low[0], span[0])
        edges = np.append(0, (hi - lo).cumsum())  # each query's window positions, end to end
        shift = lo - edges[:-1]  # a window position plus its query's shift is its row
        rows, members, total = self._rows.T.view(np.uint64), len(low), int(edges[-1])
        for start in range(0, total, _GATHER_ELEMENTS):
            stop = min(start + _GATHER_ELEMENTS, total)
            # the queries a..b-1 whose windows overlap positions [start, stop)
            a, b = edges.searchsorted(start, "right") - 1, edges.searchsorted(stop)
            cuts = edges[a : b + 1] - start
            cuts[0], cuts[-1] = 0, stop - start
            parts = cuts[1:] - cuts[:-1]
            row = np.arange(start, stop) + shift[a:b].repeat(parts)
            for member in range(1, members):
                level = rows[member].take(row)
                level -= low[member, a:b].repeat(parts)
                passed = level <= span[member, a:b].repeat(parts)
                keep = passed if member <= 3 else keep & passed  # members 4..l: one mask
                if member < 3 or member == members - 1:  # after members 2, 3 and l
                    kept = keep.nonzero()[0]
                    row, cuts = row.take(kept), kept.searchsorted(cuts)
                    parts = cuts[1:] - cuts[:-1]
            yield np.arange(a, b).repeat(parts), row


def _saturated_bounds(queries: np.ndarray, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """``low``, ``queries - radius`` saturated at the int64 minimum, and
    ``span``, the width of ``[low, queries + radius]`` saturated at the int64
    maximum, as uint64 views.  A level lies in that range exactly when
    ``level - low <= span`` in uint64 (Warren, *Hacker's Delight*, 4-1): the
    difference wraps modulo 2**64 and below ``low`` comes out past ``span``."""
    # Flipping the sign bit maps int64 onto uint64 in order; below and
    # above the query, the radius stops at either end of that order.
    bits = queries.view(np.uint64)
    shifted = bits ^ np.uint64(2**63)
    r = np.uint64(min(radius, 2**64 - 1))
    below = np.minimum(shifted, r)
    span = np.minimum(~shifted, r)
    span += below
    return bits - below, span  # shifted - below, its sign bit flipped back


def _numeric_keys(matrix: np.ndarray) -> np.ndarray:
    """Each row of an int64 matrix as one byte string.  The bytes are the
    values with the sign bit flipped, big-endian, so the byte order of two
    strings is the numeric order of their rows, member by member."""
    flipped = matrix.astype(">i8", order="C")
    flipped ^= np.int64(INT64_MIN)
    return flipped.view(np.dtype((np.void, flipped.itemsize * flipped.shape[1])))[:, 0]


def _key_order(matrix: np.ndarray) -> np.ndarray:
    """The stable order of an int64 matrix's rows by value, first column
    first: the order ``np.argsort(_numeric_keys(matrix), kind="stable")``
    gives, found faster.  Each column, mapped onto uint64 in order and less
    its minimum, is split into as many 16-bit digits as its span needs, and
    one ``np.lexsort`` orders the rows by every digit, least significant
    first (LSD radix sorting, Knuth, TAOCP vol. 3, 5.2.5); numpy sorts
    16-bit keys by radix."""
    if len(matrix) < 2:
        return np.arange(len(matrix))
    digits = []
    for column in matrix.T[::-1]:  # lexsort's last key leads
        shifted = column.view(np.uint64) ^ np.uint64(2**63)
        shifted -= shifted.min()
        for shift in range(0, int(shifted.max()).bit_length(), 16):
            digits.append((shifted >> np.uint64(shift)).astype(np.uint16))
    return np.lexsort(digits) if digits else np.arange(len(matrix))


def _headers(member_count: int) -> tuple[list[str], list[str], list[str]]:
    """Column names of the history, stock-lead-time and raw-material tables."""
    return (
        ["TID", "PI"] + [f"F{i}" for i in range(1, member_count + 1)],
        ["TID"] + [f"T{i}" for i in range(1, member_count)],
        ["PI", "RM", "T"],
    )


def _table(
    rows, columns: list[str], keys: int, label: str, minimums: list[int]
) -> tuple[np.ndarray, list[int] | None]:
    """A table as an int64 matrix of ``columns`` sorted stably by its first
    ``keys`` columns, and the first key that repeats, or None.

    A read-only matrix already in key order is kept as it is; any other
    input is copied, so the store never shares a writable array with its
    caller.  The leading columns hold at least ``minimums``; the first row
    in key order below one raises ParseError.
    """
    width = len(columns)
    matrix = _int64_array(rows, ParseError, f"{label} table")
    if matrix.size and (matrix.ndim != 2 or matrix.shape[1] != width):
        raise DimensionMismatch(f"{label} table has shape {matrix.shape}, expected (n, {width})")
    matrix = matrix.reshape(-1, width)
    order = _key_order(matrix[:, :keys])
    if (order[1:] < order[:-1]).any() or matrix.flags.writeable:
        matrix = matrix.take(order, axis=0)
    below = matrix[:, : len(minimums)] < np.array(minimums, dtype=np.int64)
    bad = np.flatnonzero(below.any(axis=1))
    if bad.size:
        row, col = matrix[bad[0]].tolist(), int(np.argmax(below[bad[0]]))
        key = ", ".join(f"{c}={v}" for c, v in zip(columns, row[:keys]))
        raise ParseError(f"{label} row {key}: {columns[col]} {row[col]} below minimum {minimums[col]}")
    repeats = np.flatnonzero((matrix[1:, :keys] == matrix[:-1, :keys]).all(axis=1))
    return matrix, (matrix[repeats[0], :keys].tolist() if repeats.size else None)


def _int64_array(values, error: type[Exception], what: str) -> np.ndarray:
    """``values`` as an int64 array; a value that is not an int64 integer
    raises ``error``."""
    if isinstance(values, np.ndarray) and values.dtype == np.int64:
        return values
    try:
        with np.errstate(invalid="ignore"):
            array = np.asarray(values, dtype=np.int64)
    except OverflowError:
        raise error(f"{what} holds a value outside the int64 range") from None
    except ValueError:  # NaN in a list
        raise error(f"{what} holds a value that is not an int64 integer") from None
    if not np.array_equal(array, values):  # a float or uint64 value casts without error
        raise error(f"{what} holds a value that is not an int64 integer")
    return array


def _int64_sums(
    terms: np.ndarray, keys: np.ndarray, what: str, starts: np.ndarray | None = None
) -> np.ndarray:
    """Exact int64 sums of the non-negative int64 ``terms``: of each row, or
    with ``starts`` of each block of rows from one start to the next.  A sum
    past int64 raises ParseError naming its key.  The 32-bit halves of the
    terms are summed apart in uint64, so no sum wraps."""
    high = low = np.zeros(len(terms), dtype=np.uint64)
    for column in terms.T:
        column = column.astype(np.uint64)
        high, low = high + (column >> 32), low + (column & 0xFFFFFFFF)
    if starts is not None:
        high, low = np.add.reduceat(high, starts), np.add.reduceat(low, starts)
    high, low = high + (low >> 32), low & 0xFFFFFFFF
    past = np.flatnonzero(high >> 31)
    if past.size:
        first = past[0]
        exact = (int(high[first]) << 32) + int(low[first])
        raise ParseError(f"{what.format(keys[first])} sum to {exact}, past the int64 range")
    return (high << 32 | low).astype(np.int64)


def _read_table(path: str | Path, expected_header: list[str], label: str) -> np.ndarray:
    """Read a strict CSV table of integers into a read-only int64 matrix.

    A table of ASCII bytes that ends its lines with LF alone and opens
    with the exact header line is parsed from its bytes in one
    ``np.loadtxt`` call.  Any other table, or one that call rejects, is
    decoded and split by ``str.splitlines``; its stripped non-blank data
    lines are parsed in one ``np.loadtxt`` call too, and input it rejects is
    parsed again by :func:`_parse_lines`, which accepts what ``int()``
    accepts (``1_000``, full-width digits) and names the line of an error,
    counting every line that ``str.splitlines`` finds, blank ones included.
    Width disagreements raise DimensionMismatch (they usually mean the
    configured chain size is wrong); anything else malformed raises
    ParseError.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read {label} file {path}: {exc}") from exc
    matrix = None
    if (
        data.isascii()
        and data.startswith(",".join(expected_header).encode() + b"\n")
        and not any(end in data for end in _OTHER_LINE_ENDS)
    ):
        matrix = _loadtxt(io.BytesIO(data), len(expected_header), skiprows=1)
    if matrix is None:
        matrix = _split_and_parse(data, path, expected_header, label)
    matrix.flags.writeable = False
    return matrix


def _split_and_parse(
    data: bytes, path: str | Path, expected_header: list[str], label: str
) -> np.ndarray:
    """The records of a table's bytes, by the ``str.splitlines`` rules."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {label} file {path}: {exc}") from exc
    stripped = (line.strip() for line in text.splitlines())
    lines = [(lineno, line) for lineno, line in enumerate(stripped, start=1) if line]
    if not lines:
        raise ParseError(f"{label} file {path} is empty")
    header = [cell.strip() for cell in lines[0][1].split(",")]
    if len(header) != len(expected_header):
        raise DimensionMismatch(
            f"{label} header has {len(header)} columns, expected {len(expected_header)} "
            f"({','.join(expected_header)})"
        )
    if header != expected_header:
        raise ParseError(
            f"{label} header is {','.join(header)!r}, expected {','.join(expected_header)!r}"
        )
    if len(lines) == 1:
        raise ParseError(f"{label} file {path} has a header but no records")
    matrix = _loadtxt([line for _, line in lines[1:]], len(expected_header))
    return matrix if matrix is not None else _parse_lines(lines[1:], expected_header, label)


def _loadtxt(source, width: int, skiprows: int = 0) -> np.ndarray | None:
    """The int64 matrix one ``np.loadtxt`` call parses from ``source``, or
    None when it rejects the input, finds no records or other than
    ``width`` columns."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # older numpy parses "5.0" as 5, with a warning
            matrix = np.loadtxt(
                source, np.int64, comments=None, delimiter=",", ndmin=2, skiprows=skiprows
            )
    except (ValueError, Warning):  # a table of no records warns
        return None
    return matrix if matrix.shape[1] == width else None


def _parse_lines(lines: list[tuple[int, str]], expected_header: list[str], label: str) -> np.ndarray:
    """The data lines, (line number, stripped text) pairs, parsed cell by
    cell with ``int()``; the first bad line raises an error that names it."""
    rows = []
    for lineno, line in lines:
        cells = [cell.strip() for cell in line.split(",")]
        if len(cells) != len(expected_header):
            raise DimensionMismatch(
                f"{label} line {lineno} has {len(cells)} columns, expected {len(expected_header)}"
            )
        rows.append([_parse_int(cell, label, lineno) for cell in cells])
    return np.array(rows, dtype=np.int64)


def _parse_int(cell: str, label: str, lineno: int) -> int:
    try:
        value = int(cell)
    except ValueError:
        raise ParseError(f"{label} line {lineno}: {cell!r} is not an integer") from None
    if not INT64_MIN <= value <= INT64_MAX:
        raise ParseError(f"{label} line {lineno}: value {value} outside the int64 range")
    return value


def load_store(
    history_path: str | Path,
    stock_leadtime_path: str | Path,
    raw_leadtime_path: str | Path,
    topology: Topology,
) -> HistoryStore:
    """Load and cross-validate the three tables into a HistoryStore.

    Raises ParseError, DimensionMismatch, DuplicateTid, MissingLeadTimeRow
    or MissingRawMaterial; on success every history TID has lead times and
    every history product has raw-material rows.
    """
    history, lead, raw = _headers(topology.member_count)
    return HistoryStore(
        topology,
        _read_table(history_path, history, "history"),
        _read_table(stock_leadtime_path, lead, "stock-lead-time"),
        _read_table(raw_leadtime_path, raw, "raw-material"),
    )
