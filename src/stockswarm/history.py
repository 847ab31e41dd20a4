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

import operator
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .domain import INT64_MAX, INT64_MIN, Topology
from .errors import (
    ConfigError,
    DimensionMismatch,
    DuplicateTid,
    MissingLeadTimeRow,
    MissingRawMaterial,
    ParseError,
    UnknownTid,
)

__all__ = [
    "HistoryRecord",
    "StockLeadTimeRecord",
    "RawMaterialLeadTime",
    "MatchResult",
    "HistoryStore",
    "load_store",
]


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


@dataclass(frozen=True)
class MatchResult:
    """TIDs whose records fall within the matching radius of a candidate."""

    tids: tuple[int, ...]
    occurrences: int

    def __post_init__(self) -> None:
        if self.occurrences != len(self.tids):
            raise ConfigError("occurrences must equal the number of matched tids")
        if any(a >= b for a, b in zip(self.tids, self.tids[1:])):
            raise ConfigError("matched tids must be strictly increasing")


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

        history, repeat = _table(history, l + 2, 1, "history")
        if not len(history):
            raise ParseError("history table holds no records")
        if repeat:
            raise DuplicateTid(f"history TID {repeat[0]} appears more than once")
        lead, repeat = _table(lead, l, 1, "stock-lead-time")
        if repeat:
            raise DuplicateTid(f"lead-time TID {repeat[0]} appears more than once")
        lead_sums = lead[:, 1:].astype(object).sum(axis=1)  # Python ints, so exact
        lead_sums = _int64_sums(lead_sums, lead[:, 0], "lead-time TID {} link times")
        raw, repeat = _table(raw, 3, 2, "raw-material")
        if repeat:
            raise ParseError(f"raw-material row (PI={repeat[0]}, RM={repeat[1]}) duplicated")
        raw_pids, starts = np.unique(raw[:, 0], return_index=True)
        raw_totals = np.add.reduceat(raw[:, 2].astype(object), starts)
        raw_totals = _int64_sums(raw_totals, raw_pids, "raw-material times of product {}")

        tids, pids = history[:, 0], history[:, 1]
        missing = np.flatnonzero(~(np.isin(tids, lead[:, 0]) & np.isin(pids, raw_pids)))
        if missing.size:  # the lowest TID first, and on it a missing lead row first
            tid, pid = history[missing[0], :2].tolist()
            if tid not in lead[:, 0]:
                raise MissingLeadTimeRow(f"history TID {tid} has no stock-lead-time row")
            raise MissingRawMaterial(f"product {pid} appears in history but has no raw-material rows")

        self._history, self._lead, self._raw, self._lead_sums = history, lead, raw, lead_sums
        self._raw_total = dict(zip(raw_pids.tolist(), raw_totals.tolist()))
        # Per-product contiguous copies for fast box matching, TIDs ascending.
        row_lead_sums = lead_sums[np.searchsorted(lead[:, 0], tids)]
        by_product = np.argsort(pids, kind="stable")
        products, starts = np.unique(pids[by_product], return_index=True)
        self._by_product = {
            pid: (tids[rows], history[rows, 2:], row_lead_sums[rows])
            for pid, rows in zip(products.tolist(), np.split(by_product, starts[1:]))
        }
        for array in (history, lead, raw, lead_sums, *sum(self._by_product.values(), ())):
            array.flags.writeable = False
        self._no_records = (history[:0, 0], history[:0, 2:], lead_sums[:0])

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
        return tuple(self._by_product)

    def product_rows(
        self, product_id: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Read-only TIDs, (rows, members) level matrix and per-row lead-time
        sums of one product's records in ascending TID order, or None when it
        has no records."""
        return self._by_product.get(int(product_id))

    def _box_hits(
        self, product_id: int, queries: np.ndarray, radius: int
    ) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], np.ndarray]:
        """The product's index entry (empty without records), and a (queries,
        records) matrix that is True where a record lies within ``radius`` of
        a query on every member."""
        if radius < 0:
            raise ConfigError(f"matching radius must be non-negative, got {radius}")
        members = self._topology.member_count
        if queries.ndim != 2 or queries.shape[1] != members:
            raise DimensionMismatch(
                f"queries have shape {queries.shape}, expected (n, {members})"
            )
        entry = self._by_product.get(int(product_id), self._no_records)
        # q -/+ radius, saturated: flipping the sign bit maps int64 onto uint64 in order.
        sign = np.uint64(2**63)
        shifted = queries.astype(np.int64, copy=False).view(np.uint64) ^ sign
        r = np.uint64(min(radius, 2**64 - 1))
        low = ((shifted - np.minimum(shifted, r)) ^ sign).view(np.int64)[:, None, :]
        high = ((shifted + np.minimum(~shifted, r)) ^ sign).view(np.int64)[:, None, :]
        return entry, ((entry[1] >= low) & (entry[1] <= high)).all(axis=2)

    def match_counts(
        self, product_id: int, queries: np.ndarray, radius: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """P(occ) and the summed lead time of the matched records for each row
        of an (n, members) int64 matrix of level queries on one product."""
        (_, _, lead_sums), hits = self._box_hits(product_id, queries, radius)
        return hits.sum(axis=1), hits @ lead_sums

    def match_individual(
        self, product_id: int, levels: Sequence[int], radius: int
    ) -> MatchResult:
        """Find all records of ``product_id`` within ``radius`` units of
        ``levels`` on every member dimension.

        ``radius == 0`` is exact integer equality per dimension.  An empty
        result is valid and common.  A level that is not an int64 integer
        raises ConfigError.
        """
        query = _int64_array(levels, ConfigError, "query")
        if query.shape != (self._topology.member_count,):
            raise DimensionMismatch(
                f"query has {query.size} stock entries, expected {self._topology.member_count}"
            )
        (tids, _, _), hits = self._box_hits(product_id, query[None, :], radius)
        matched = tuple(int(t) for t in tids[hits[0]])
        return MatchResult(matched, len(matched))

    def stock_lead_time_total(self, tids: Iterable[int]) -> int:
        """Exact sum of all link transport days over the given TIDs."""
        tids = list(tids)
        try:  # index() refuses a TID such as 1.5, which no table holds either
            wanted = np.fromiter(map(operator.index, tids), dtype=np.int64, count=len(tids))
        except (OverflowError, TypeError):
            bad = (t for t in tids if not hasattr(t, "__index__") or not INT64_MIN <= t <= INT64_MAX)
            raise UnknownTid(f"TID {next(bad)} has no stock-lead-time row") from None
        rows = np.searchsorted(self._lead[:, 0], wanted)
        found = self._lead[np.minimum(rows, len(self._lead) - 1), 0] == wanted
        if not found.all():
            raise UnknownTid(f"TID {wanted[~found][0]} has no stock-lead-time row")
        return sum(self._lead_sums[rows].tolist())

    def raw_lead_time_total(self, product_id: int) -> int:
        """Sum of raw-material supply days for one product."""
        try:
            return self._raw_total[int(product_id)]
        except KeyError:
            raise MissingRawMaterial(
                f"product {product_id} has no raw-material rows"
            ) from None


def _table(rows, width: int, keys: int, label: str) -> tuple[np.ndarray, list[int] | None]:
    """A table as an (n, width) int64 matrix sorted stably by its first
    ``keys`` columns, and the first key that repeats, or None."""
    matrix = _int64_array(rows, ParseError, f"{label} table")
    if matrix.size and (matrix.ndim != 2 or matrix.shape[1] != width):
        raise DimensionMismatch(f"{label} table has shape {matrix.shape}, expected (n, {width})")
    matrix = matrix.reshape(-1, width)
    matrix = matrix[np.lexsort(matrix[:, keys - 1 :: -1].T)]
    repeats = np.flatnonzero((matrix[1:, :keys] == matrix[:-1, :keys]).all(axis=1))
    return matrix, (matrix[repeats[0], :keys].tolist() if repeats.size else None)


def _int64_array(values, error: type[Exception], what: str) -> np.ndarray:
    """``values`` as an int64 array; a value that is not an int64 integer
    raises ``error``."""
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


def _int64_sums(sums: np.ndarray, keys: np.ndarray, what: str) -> np.ndarray:
    """Exact sums (Python ints) as int64; one past int64 raises ParseError."""
    past = np.flatnonzero((sums < INT64_MIN) | (sums > INT64_MAX))
    if past.size:
        first = past[0]
        raise ParseError(f"{what.format(keys[first])} sum to {sums[first]}, past the int64 range")
    return sums.astype(np.int64)


def _read_table(
    path: str | Path, expected_header: list[str], label: str, minimums: list[int | None]
) -> np.ndarray:
    """Read a strict CSV table of integers into an int64 matrix.

    Width disagreements raise DimensionMismatch (they usually mean the
    configured chain size is wrong); anything else malformed raises
    ParseError.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {label} file {path}: {exc}") from exc
    lines = [line.strip() for line in text.splitlines()]
    lines = [line for line in lines if line]
    if not lines:
        raise ParseError(f"{label} file {path} is empty")
    header = [cell.strip() for cell in lines[0].split(",")]
    if len(header) != len(expected_header):
        raise DimensionMismatch(
            f"{label} header has {len(header)} columns, expected {len(expected_header)} "
            f"({','.join(expected_header)})"
        )
    if header != expected_header:
        raise ParseError(
            f"{label} header is {','.join(header)!r}, expected {','.join(expected_header)!r}"
        )
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = [cell.strip() for cell in line.split(",")]
        if len(cells) != len(expected_header):
            raise DimensionMismatch(
                f"{label} line {lineno} has {len(cells)} columns, expected {len(expected_header)}"
            )
        rows.append([_parse_int(cell, label, lineno, low) for cell, low in zip(cells, minimums)])
    if not rows:
        raise ParseError(f"{label} file {path} has a header but no records")
    return np.array(rows, dtype=np.int64)


def _parse_int(cell: str, label: str, lineno: int, minimum: int | None = None) -> int:
    try:
        value = int(cell)
    except ValueError:
        raise ParseError(f"{label} line {lineno}: {cell!r} is not an integer") from None
    if minimum is not None and value < minimum:
        raise ParseError(f"{label} line {lineno}: value {value} below minimum {minimum}")
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
    l = topology.member_count
    history = ["TID", "PI"] + [f"F{i}" for i in range(1, l + 1)]
    lead = ["TID"] + [f"T{i}" for i in range(1, l)]
    return HistoryStore(
        topology,
        _read_table(history_path, history, "history", [1, 1] + [None] * l),
        _read_table(stock_leadtime_path, lead, "stock-lead-time", [1] + [0] * (l - 1)),
        _read_table(raw_leadtime_path, ["PI", "RM", "T"], "raw-material", [1, 1, 0]),
    )
