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

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .domain import Topology
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

    Build it with :func:`load_store` (CSV files) or
    :meth:`HistoryStore.from_records` (in-memory rows).  Querying never
    mutates the store.
    """

    def __init__(
        self,
        topology: Topology,
        records: Iterable[HistoryRecord],
        lead_records: Iterable[StockLeadTimeRecord],
        raw_records: Iterable[RawMaterialLeadTime],
    ) -> None:
        self._topology = topology
        l = topology.member_count

        records = sorted(records, key=lambda r: r.tid)
        lead_records = sorted(lead_records, key=lambda r: r.tid)
        raw_records = sorted(raw_records, key=lambda r: (r.product_id, r.raw_material_id))
        if not records:
            raise ParseError("history table holds no records")

        seen_tids: set[int] = set()
        for rec in records:
            if len(rec.levels) != l:
                raise DimensionMismatch(
                    f"history TID {rec.tid} has {len(rec.levels)} stock columns, expected {l}"
                )
            if rec.tid in seen_tids:
                raise DuplicateTid(f"history TID {rec.tid} appears more than once")
            seen_tids.add(rec.tid)

        lead_sum_by_tid: dict[int, int] = {}
        for row in lead_records:
            if len(row.link_times) != l - 1:
                raise DimensionMismatch(
                    f"lead-time TID {row.tid} has {len(row.link_times)} link columns, expected {l - 1}"
                )
            if row.tid in lead_sum_by_tid:
                raise DuplicateTid(f"lead-time TID {row.tid} appears more than once")
            lead_sum_by_tid[row.tid] = int(sum(row.link_times))

        raw_total: dict[int, int] = {}
        seen_raw: set[tuple[int, int]] = set()
        for row in raw_records:
            key = (row.product_id, row.raw_material_id)
            if key in seen_raw:
                raise ParseError(
                    f"raw-material row (PI={row.product_id}, RM={row.raw_material_id}) duplicated"
                )
            seen_raw.add(key)
            raw_total[row.product_id] = raw_total.get(row.product_id, 0) + int(row.time)

        for rec in records:
            if rec.tid not in lead_sum_by_tid:
                raise MissingLeadTimeRow(f"history TID {rec.tid} has no stock-lead-time row")
            if rec.product_id not in raw_total:
                raise MissingRawMaterial(
                    f"product {rec.product_id} appears in history but has no raw-material rows"
                )

        self._records = tuple(records)
        self._lead_records = tuple(lead_records)
        self._raw_records = tuple(raw_records)
        self._lead_sum_by_tid = lead_sum_by_tid
        self._raw_total = raw_total

        # Per-product contiguous views for fast box matching.
        self._by_product: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for pid in sorted({r.product_id for r in records}):
            rows = [r for r in records if r.product_id == pid]
            tids = np.array([r.tid for r in rows], dtype=np.int64)
            levels = np.array([r.levels for r in rows], dtype=np.int64)
            tids.flags.writeable = levels.flags.writeable = False
            self._by_product[pid] = (tids, levels)

    @classmethod
    def from_records(
        cls,
        topology: Topology,
        history_rows: Iterable[tuple[int, int, Sequence[int]]],
        lead_rows: Iterable[tuple[int, Sequence[int]]],
        raw_rows: Iterable[tuple[int, int, int]],
    ) -> "HistoryStore":
        """Build a store from plain tuples, bypassing file parsing."""
        return cls(
            topology,
            [HistoryRecord(t, p, tuple(int(v) for v in lv)) for t, p, lv in history_rows],
            [StockLeadTimeRecord(t, tuple(int(v) for v in lt)) for t, lt in lead_rows],
            [RawMaterialLeadTime(p, m, int(t)) for p, m, t in raw_rows],
        )

    @property
    def topology(self) -> Topology:
        return self._topology

    @property
    def records(self) -> tuple[HistoryRecord, ...]:
        """History records in ascending TID order."""
        return self._records

    @property
    def lead_records(self) -> tuple[StockLeadTimeRecord, ...]:
        return self._lead_records

    @property
    def raw_records(self) -> tuple[RawMaterialLeadTime, ...]:
        return self._raw_records

    @property
    def total_periods(self) -> int:
        """Number of recorded periods (= history rows)."""
        return len(self._records)

    @property
    def products(self) -> tuple[int, ...]:
        """Product ids that occur in the history, ascending."""
        return tuple(sorted(self._by_product))

    def product_rows(self, product_id: int) -> tuple[np.ndarray, np.ndarray] | None:
        """Read-only TIDs and (rows, members) level matrix of one product's
        records in ascending TID order, or None when it has no records."""
        return self._by_product.get(int(product_id))

    def match_individual(
        self, product_id: int, levels: Sequence[int], radius: int
    ) -> MatchResult:
        """Find all records of ``product_id`` within ``radius`` units of
        ``levels`` on every member dimension.

        ``radius == 0`` is exact integer equality per dimension.  An empty
        result is valid and common.
        """
        if radius < 0:
            raise ConfigError(f"matching radius must be non-negative, got {radius}")
        query = np.asarray(levels, dtype=np.int64)
        if query.shape != (self._topology.member_count,):
            raise DimensionMismatch(
                f"query has {query.size} stock entries, expected {self._topology.member_count}"
            )
        entry = self._by_product.get(int(product_id))
        if entry is None:
            return MatchResult((), 0)
        tids, matrix = entry
        hit = (np.abs(matrix - query) <= radius).all(axis=1)
        matched = tuple(int(t) for t in tids[hit])
        return MatchResult(matched, len(matched))

    def stock_lead_time_total(self, tids: Iterable[int]) -> int:
        """Sum of all link transport days over the given TIDs."""
        total = 0
        for tid in tids:
            try:
                total += self._lead_sum_by_tid[tid]
            except KeyError:
                raise UnknownTid(f"TID {tid} has no stock-lead-time row") from None
        return total

    def raw_lead_time_total(self, product_id: int) -> int:
        """Sum of raw-material supply days for one product."""
        try:
            return self._raw_total[int(product_id)]
        except KeyError:
            raise MissingRawMaterial(
                f"product {product_id} has no raw-material rows"
            ) from None


def _read_table(path: str | Path, expected_header: list[str], label: str) -> list[list[str]]:
    """Read a strict CSV table; returns data rows as string cells.

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
        rows.append(cells)
    if not rows:
        raise ParseError(f"{label} file {path} has a header but no records")
    return rows


def _parse_int(cell: str, label: str, lineno: int, minimum: int | None = None) -> int:
    try:
        value = int(cell)
    except ValueError:
        raise ParseError(f"{label} line {lineno}: {cell!r} is not an integer") from None
    if minimum is not None and value < minimum:
        raise ParseError(f"{label} line {lineno}: value {value} below minimum {minimum}")
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

    header = ["TID", "PI"] + [f"F{i}" for i in range(1, l + 1)]
    records = []
    for lineno, cells in enumerate(_read_table(history_path, header, "history"), start=2):
        tid = _parse_int(cells[0], "history", lineno, minimum=1)
        pid = _parse_int(cells[1], "history", lineno, minimum=1)
        levels = tuple(_parse_int(c, "history", lineno) for c in cells[2:])
        records.append(HistoryRecord(tid, pid, levels))

    header = ["TID"] + [f"T{i}" for i in range(1, l)]
    lead_records = []
    for lineno, cells in enumerate(
        _read_table(stock_leadtime_path, header, "stock-lead-time"), start=2
    ):
        tid = _parse_int(cells[0], "stock-lead-time", lineno, minimum=1)
        times = tuple(_parse_int(c, "stock-lead-time", lineno, minimum=0) for c in cells[1:])
        lead_records.append(StockLeadTimeRecord(tid, times))

    raw_records = []
    for lineno, cells in enumerate(
        _read_table(raw_leadtime_path, ["PI", "RM", "T"], "raw-material"), start=2
    ):
        pid = _parse_int(cells[0], "raw-material", lineno, minimum=1)
        rm = _parse_int(cells[1], "raw-material", lineno, minimum=1)
        t = _parse_int(cells[2], "raw-material", lineno, minimum=0)
        raw_records.append(RawMaterialLeadTime(pid, rm, t))

    return HistoryStore(topology, records, lead_records, raw_records)
