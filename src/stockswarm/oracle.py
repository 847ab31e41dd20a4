"""Brute-force enumeration baseline for checking swarm results.

At matching radius 0 a position can only ever match the set of records
whose stock vector equals its rounded vector exactly, so every reachable
fitness value is hit by evaluating each record's own vector plus, per
product, one vector that matches nothing.  The minimum over that candidate
set is therefore a true lower bound on anything the swarm can return at
radius 0.  At larger radii the enumeration is still a useful reference
point but no longer an exhaustive bound, since partial overlaps of several
record boxes become reachable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .engine import FitnessEvaluator, PsoConfig, _check_log_domain
from .history import HistoryStore

__all__ = ["OracleResult", "empty_match_candidate", "enumerate_candidates", "oracle_minimum"]

# Candidates per evaluate_batch call at radius > 0: about one default swarm,
# so the batch kernel's (queries, rows, members) broadcast stays as large as
# in an optimize run.
BATCH_SIZE = 32


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
    inter-record gap.  At radius 0, when every dimension is covered, the
    first vector of the stock box in lexicographic order that no record
    holds is taken instead.  None means, at radius 0, that the records hold
    every vector of the box; at a larger radius, that no single dimension
    escapes the records, though a vector escaping them on several
    dimensions at once may still exist.
    """
    l = store.topology.member_count
    lb, ub = config.bounds.stock_lb, config.bounds.stock_ub
    radius = config.match_radius
    rows = store.product_rows(product_id)
    filler = min(max(0, lb), ub)
    if rows is None:
        return (product_id,) + (filler,) * l
    _, matrix, _ = rows
    for dim in range(l):
        values = np.unique(matrix[:, dim]).tolist()  # Python ints: gaps never wrap
        chosen: int | None = None
        if values[0] - lb > radius:
            chosen = lb
        else:
            for a, b in zip(values, values[1:]):
                if b - a > 2 * radius + 1:
                    chosen = a + radius + 1
                    break
            if chosen is None and ub - values[-1] > radius:
                chosen = ub
        if chosen is not None:
            levels = [filler] * l
            levels[dim] = chosen
            return (product_id, *levels)
    if radius == 0:
        # Every dimension holds each box value, so the box is at most
        # records wide, and the walk meets a free vector within records + 1
        # steps or ends having found every vector recorded.
        recorded = set(map(tuple, matrix.tolist()))
        for levels in itertools.product(range(lb, ub + 1), repeat=l):
            if levels not in recorded:
                return (product_id, *levels)
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


def _exact_match_fitness(
    store: HistoryStore, evaluator: FitnessEvaluator, candidates: np.ndarray
) -> np.ndarray:
    """Fitness of every candidate at radius 0, from one sort per product.

    At radius 0 a record's own vector matches exactly the records of its
    product with equal levels, so grouping equal level rows gives every
    record's P(occ) and matched lead time at once.  The empty-match vectors
    after the records match nothing.
    """
    occ = np.zeros(len(candidates), dtype=np.int64)
    t_stock = np.zeros(len(candidates), dtype=np.int64)
    for pid in store.products:
        group_tids, levels, lead_sums = store.product_rows(pid)
        rows = levels.view(np.dtype((np.void, levels.strides[0])))[:, 0]
        order = np.argsort(rows)  # sorting rows as bytes makes equal rows adjacent
        ordered = levels[order]
        starts = np.flatnonzero(np.r_[True, (ordered[1:] != ordered[:-1]).any(axis=1)])
        counts = np.diff(np.r_[starts, len(order)])
        at = np.searchsorted(store.history[:, 0], group_tids[order])  # a record's candidate row
        occ[at] = np.repeat(counts, counts)
        t_stock[at] = np.repeat(np.add.reduceat(lead_sums[order], starts), counts)
    return evaluator.score(candidates[:, 0], occ, t_stock)


def oracle_minimum(store: HistoryStore, config: PsoConfig) -> OracleResult:
    """Score every candidate and return the minimum.

    Radius 0 scores all candidates from one sort per product; a larger
    radius scores them ``BATCH_SIZE`` at a time with ``evaluate_batch``,
    which is still quadratic in the history length.  Ties keep the earliest
    candidate, so the result is deterministic and independent of any seed.
    """
    _check_log_domain(store, config)
    evaluator = FitnessEvaluator(store, config)
    candidates, skipped = enumerate_candidates(store, config)
    if config.match_radius == 0:
        fitness = _exact_match_fitness(store, evaluator, candidates)
    else:
        positions = candidates.astype(np.float64)
        fitness = np.concatenate(
            [
                evaluator.evaluate_batch(positions[i : i + BATCH_SIZE])
                for i in range(0, len(positions), BATCH_SIZE)
            ]
        )
    best = int(np.argmin(fitness))  # argmin takes the earliest on ties
    return OracleResult(
        best_position=tuple(candidates[best].tolist()),
        best_fitness=float(fitness[best]),
        evaluations=len(candidates),
        skipped_products=skipped,
    )
