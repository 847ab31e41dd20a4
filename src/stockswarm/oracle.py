"""Brute-force enumeration baseline for checking swarm results.

At matching radius 0 a position can only ever match the set of records
whose stock vector equals its rounded vector exactly, so every reachable
fitness value is hit by evaluating each record's own vector plus, per
product, one vector that matches nothing.  The minimum over that candidate
set is therefore a true lower bound on anything the swarm can return at
radius 0.  A record's own vector matches the records of its distinct index
row there, so the oracle reads those candidates' counts off the index and
looks up only the vectors that match nothing.  At larger radii the
enumeration is still a useful reference point but no longer an exhaustive
bound, since partial overlaps of several record boxes become reachable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import INT64_MAX, INT64_MIN
from .engine import FitnessEvaluator, PsoConfig, _check_log_domain
from .history import HistoryStore

__all__ = ["OracleResult", "empty_match_candidate", "enumerate_candidates", "oracle_minimum"]


@dataclass(frozen=True)
class OracleResult:
    """Minimum of the enumeration and how it was obtained."""

    best_position: tuple[int, ...]
    best_fitness: float
    evaluations: int
    skipped_products: tuple[int, ...]


def empty_match_candidate(
    store: HistoryStore, product_id: int, config: PsoConfig
) -> tuple[int, ...] | None:
    """A stock vector for ``product_id`` that matches zero records, or None.

    Scans the stock dimensions in order for an integer value farther than
    the matching radius from every recorded level of that product on that
    dimension; one such dimension is enough to defeat the box test.  The
    scan is deterministic: bound edges first, then the lowest qualifying
    inter-record gap; only recorded values within the radius of the stock
    box take part, so the chosen level lies in the box.  At radius 0, when
    every dimension is covered, the first vector of the stock box in
    lexicographic order that no record holds is taken instead.  None means, at radius 0, that the records hold
    every vector of the box; at a larger radius, that no single dimension
    escapes the records, though a vector escaping them on several
    dimensions at once may still exist.
    """
    l = store.topology.member_count
    lb, ub = config.bounds.stock_lb, config.bounds.stock_ub
    radius = config.match_radius
    rows = store._distinct_rows(product_id)
    filler = min(max(0, lb), ub)
    if len(rows) == 0:
        return (product_id,) + (filler,) * l
    near = max(lb - radius, INT64_MIN), min(ub + radius, INT64_MAX)  # recorded values near the box
    for dim in range(l):
        if dim == 0:  # member 1 ascends in the distinct rows
            column = rows[:, 0]
            values = column[np.append(True, column[1:] != column[:-1])]
        else:
            values = np.unique(rows[:, dim])
        values = values[np.searchsorted(values, near[0]) : np.searchsorted(values, near[1], "right")]
        chosen: int | None = None
        if not len(values) or int(values[0]) - lb > radius:
            chosen = lb
        else:
            # the values ascend, so no difference wraps in uint64
            gaps = np.diff(values.view(np.uint64))
            wide = np.flatnonzero(gaps > np.uint64(min(2 * radius + 1, 2**64 - 1)))
            if wide.size:
                chosen = int(values[wide[0]]) + radius + 1
            elif ub - int(values[-1]) > radius:
                chosen = ub
        if chosen is not None:
            levels = [filler] * l
            levels[dim] = chosen
            return (product_id, *levels)
    if radius == 0:
        # Every dimension holds each box value, so the box is at most
        # records wide.  The product's distinct rows inside the box, in
        # lexicographic order, are the box's first vectors up to the first
        # free one, whose rank is that of the first row that differs.
        rows = rows[((rows >= lb) & (rows <= ub)).all(axis=1)]
        width = ub - lb + 1
        # place values past len(rows) give digit 0 for every rank used
        places = [min(width**power, len(rows) + 1) for power in range(l - 1, -1, -1)]
        ranks = np.arange(len(rows) + 1)[:, None]
        vectors = lb + ranks // np.array(places) % width
        differs = np.flatnonzero((vectors[:-1] != rows).any(axis=1))
        free = int(differs[0]) if differs.size else len(rows)
        if free < width**l:
            return (product_id, *vectors[free].tolist())
    return None


def enumerate_candidates(
    store: HistoryStore, config: PsoConfig
) -> tuple[np.ndarray, tuple[int, ...]]:
    """An (n, l + 1) int64 matrix of all oracle candidates, and the products
    lacking an empty-match vector.

    Rows are every record's own vector in TID order, then one empty-match
    vector per product id the swarm can round to (the bounded integer range
    united with the products actually on record), ascending.
    """
    product_ids = sorted(
        set(store.products)
        | set(range(config.bounds.product_lb, config.bounds.product_ub + 1))
    )
    found = {pid: empty_match_candidate(store, pid, config) for pid in product_ids}
    empty = [candidate for candidate in found.values() if candidate is not None]
    empty = np.array(empty, dtype=np.int64).reshape(-1, store.history.shape[1] - 1)
    skipped = tuple(pid for pid, candidate in found.items() if candidate is None)
    return np.vstack([store.history[:, 1:], empty]), skipped


def oracle_minimum(store: HistoryStore, config: PsoConfig) -> OracleResult:
    """Score the candidate matrix and return the minimum.  Ties keep the
    earliest candidate, so the result is deterministic and independent of
    any seed.

    At radius 0 the record rows take their distinct row's count and lead
    time sum from the index (``HistoryStore._record_counts``), only the
    empty-match rows go through ``match_counts``, and one ``score`` call
    covers them all.  A larger radius scores the matrix with one
    ``evaluate_batch`` call.
    """
    _check_log_domain(store, config)
    candidates, skipped = enumerate_candidates(store, config)
    evaluator = FitnessEvaluator(store, config)
    if config.match_radius == 0:
        record_occ, record_t = store._record_counts()
        empty = candidates[store.total_periods :]
        empty_occ, empty_t = store.match_counts(empty[:, 0], empty[:, 1:], 0)
        occ, t_stock = np.concatenate((record_occ, empty_occ)), np.concatenate((record_t, empty_t))
        fitness = evaluator.score(candidates[:, 0], occ, t_stock)
    else:
        fitness = evaluator.evaluate_batch(candidates)
    best = int(np.argmin(fitness))  # argmin takes the earliest on ties
    return OracleResult(
        best_position=tuple(candidates[best].tolist()),
        best_fitness=float(fitness[best]),
        evaluations=len(candidates),
        skipped_products=skipped,
    )
