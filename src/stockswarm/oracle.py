"""Brute-force enumeration baseline for checking swarm results.

At matching radius 0 a position can only ever match the set of records
whose stock vector equals its rounded vector exactly, so every reachable
fitness value is hit by evaluating each record's own vector plus, per
product, one vector that matches nothing.  The minimum over that candidate
set is therefore a true lower bound on anything the swarm can return at
radius 0.  At larger radii the enumeration is still a useful reference
point but no longer an exhaustive bound, since partial overlaps of several
record boxes become reachable.  Records with equal vectors share one
distinct index row and so one fitness at every radius, scored once; an
empty-match vector matches no record, so it scores P(occ) = t_stock = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import INT64_MAX, INT64_MIN
from .engine import FitnessEvaluator, PsoConfig, _bounded_product_ids
from .history import HistoryStore, _key_order

__all__ = ["OracleResult", "enumerate_candidates", "oracle_minimum"]


@dataclass(frozen=True)
class OracleResult:
    """Minimum of the enumeration and how it was obtained."""

    best_position: tuple[int, ...]
    best_fitness: float
    evaluations: int
    skipped_products: tuple[int, ...]


def _gap_scan(
    store: HistoryStore, config: PsoConfig, product_ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """A ``(PI, F1..Fl)`` row that matches zero records for each of the
    ascending int64 ``product_ids``, and whether each product has one.

    Scans the stock dimensions in order for an integer value farther than
    the matching radius from every recorded level of that product on that
    dimension; one such dimension is enough to defeat the box test, and the
    other members take a filler level.  The scan is deterministic: bound
    edges first, then the lowest qualifying inter-record gap; only recorded
    values within the radius of the stock box take part, so the chosen level
    lies in the box.  An id without records gets the filler vector.

    Each dimension is one pass over the index for every product still
    without a choice: its rows' levels, ascending in each product (in key
    order for member 1, by ``_key_order`` of ``(product, level)`` for the
    others).  A product's levels near the box are counted from its start,
    and its first qualifying gap is one ``flatnonzero`` over the whole pass
    and a ``searchsorted`` of its first near level; the gaps are compared
    in uint64, so none wraps.

    At radius 0, when every dimension is covered, the first vector of the
    stock box in lexicographic order that no record holds is taken instead.
    A product lacks a vector when, at radius 0, its records hold every
    vector of the box; at a larger radius, when no single dimension escapes
    the records, though a vector escaping them on several dimensions at
    once may still exist.
    """
    lb, ub, radius = config.bounds.stock_lb, config.bounds.stock_ub, config.match_radius
    near_lb, near_ub = max(lb - radius, INT64_MIN), min(ub + radius, INT64_MAX)
    # A lowest level above lb + radius leaves lb free, a highest one below
    # ub - radius leaves ub free; clamped, an edge past int64 frees nothing.
    above_lb, below_ub = min(lb + radius, INT64_MAX), max(ub - radius, INT64_MIN)
    wide, step = np.uint64(min(2 * radius + 1, 2**64 - 1)), np.uint64(radius + 1)
    vectors = np.full(
        (len(product_ids), store.topology.member_count + 1), min(max(0, lb), ub), dtype=np.int64
    )
    vectors[:, 0] = product_ids
    block = np.minimum(np.searchsorted(store._products, product_ids), len(store._products) - 1)
    starts = store._row_starts[block]
    sizes = store._row_starts[block + 1] - starts
    pending = np.flatnonzero(store._products[block] == product_ids)  # recorded ids
    for dim, column in enumerate(store._rows.T):
        if not len(pending):
            break
        size = sizes[pending]
        ends = np.cumsum(size)
        offsets = ends - size  # where each product's levels start in ``values``
        if ends[-1] == len(column):  # every block, in index order
            values = column
        else:
            values = column.take(np.arange(ends[-1]) + np.repeat(starts[pending] - offsets, size))
        if dim:  # member 1 already ascends in each product's block
            owner = np.repeat(np.arange(len(pending)), size)
            values = values.take(_key_order(np.column_stack((owner, values))))
        # each product's levels near the box, ascending, lie in [first, stop)
        first = offsets + np.add.reduceat(values < near_lb, offsets)
        stop = offsets + np.add.reduceat(values <= near_ub, offsets)
        held = first < stop
        first, stop = first[held], stop[held]
        # The levels ascend inside a product, so no difference there wraps.
        # A gap that leaves a product's near levels, or lies between two
        # products, starts below its first or at its last, so it is never
        # taken.
        gap = np.flatnonzero(np.diff(values.view(np.uint64)) > wide)
        gap = np.append(gap, len(values))[np.searchsorted(gap, first)]  # taken if below last
        free = (values.view(np.uint64).take(np.minimum(gap, len(values) - 1)) + step).view(np.int64)
        last = stop - 1
        low, inner, high = values[first] > above_lb, gap < last, values[last] < below_ub
        chosen = np.full(len(pending), lb, dtype=np.int64)  # no level near the box: lb is free
        chosen[held] = np.where(low, lb, np.where(inner, free, ub))
        done = ~held
        done[held] = low | inner | high
        vectors[pending[done], dim + 1] = chosen[done]
        pending = pending[~done]
    found = np.ones(len(product_ids), dtype=bool)
    for at in pending.tolist():  # every dimension covered
        rows = store._rows[starts[at] : starts[at] + sizes[at]]
        vector = _first_free_vector(rows, lb, ub) if radius == 0 else None
        found[at] = vector is not None
        if found[at]:
            vectors[at, 1:] = vector
    return vectors, found


def _first_free_vector(rows: np.ndarray, lb: int, ub: int) -> list[int] | None:
    """The first vector of the box ``[lb, ub]`` in lexicographic order that
    is not among ``rows``, a product's distinct rows in lexicographic order,
    or None when they hold the whole box.

    The rows inside the box ascend, so the k-th of them is the box's k-th
    vector for every k up to the first free one and for none after it: a
    bisection finds it, with each rank's digits in Python ints.
    """
    rows = rows[((rows >= lb) & (rows <= ub)).all(axis=1)]
    width, members = ub - lb + 1, rows.shape[1]

    def vector(rank: int) -> list[int]:
        return [lb + rank // width**power % width for power in range(members - 1, -1, -1)]

    low, high = 0, len(rows)
    while low < high:
        middle = (low + high) // 2
        if rows[middle].tolist() == vector(middle):
            low = middle + 1
        else:
            high = middle
    return vector(low) if low < width**members else None


def _empty_match_rows(
    store: HistoryStore, config: PsoConfig
) -> tuple[np.ndarray, tuple[int, ...]]:
    """The empty-match vectors, one ``(PI, F1..Fl)`` row per product id the
    swarm can round to (the bounded integer range united with the products
    actually on record) that has one, ascending, and the ids that have none.

    The ids in the bounds are checked first, by ``_bounded_product_ids``,
    before anything is sized by the bounds."""
    bounds, products = config.bounds, store._products
    # Every recorded product has raw-material rows, so the ids in the bounds
    # hold the recorded ones there.
    product_ids = np.concatenate((
        products[: np.searchsorted(products, bounds.product_lb)],
        _bounded_product_ids(store, config),
        products[np.searchsorted(products, bounds.product_ub, "right") :],
    ))
    vectors, found = _gap_scan(store, config, product_ids)
    return vectors[found], tuple(product_ids[~found].tolist())


def enumerate_candidates(
    store: HistoryStore, config: PsoConfig
) -> tuple[np.ndarray, tuple[int, ...]]:
    """An (n, l + 1) int64 matrix of all oracle candidates, and the products
    lacking an empty-match vector.

    Rows are every record's own vector in TID order, then one empty-match
    vector per product id the swarm can round to (the bounded integer range
    united with the products actually on record), ascending.  The ids in the
    bounds raise the errors ``run`` raises; ``oracle_minimum`` scores the
    same candidates without this matrix.
    """
    empty, skipped = _empty_match_rows(store, config)
    return np.vstack([store.history[:, 1:], empty]), skipped


def oracle_minimum(store: HistoryStore, config: PsoConfig) -> OracleResult:
    """The minimum over the candidates of ``enumerate_candidates``.  Ties
    keep the earliest candidate, so the result is deterministic and
    independent of any seed.

    No candidate matrix is built.  The records sharing a distinct index row
    share its vector, so they share its fitness at every radius: one
    ``score`` call scores each distinct row once and the records read their
    fitness through ``_record_row``; the earliest minimum among them is the
    earliest record in TID order.  At radius 0 a row's P(occ) and t_stock
    are its count and lead-time sum; otherwise ``match_counts`` gives them,
    with the rows as queries in key order.  Each empty-match row matches no
    record, so a second ``score`` call takes P(occ) = t_stock = 0 for them;
    they win only when strictly lower, since records come first.
    """
    empty, skipped = _empty_match_rows(store, config)
    evaluator, radius = FitnessEvaluator(store, config), config.match_radius
    pids = np.repeat(store._products, np.diff(store._row_starts))
    if radius:
        occ, t_stock = store.match_counts(pids, store._rows, radius)
    else:
        occ, t_stock = store._counts, store._sums
    fitness = evaluator.score(pids, occ, t_stock).take(store._record_row)
    best = int(np.argmin(fitness))  # argmin takes the earliest on ties
    position, best_fitness = store.history[best, 1:], fitness[best]
    empty_fitness = evaluator.score(empty[:, 0], 0, 0)  # each matches no record
    if len(empty) and empty_fitness.min() < best_fitness:
        best = int(np.argmin(empty_fitness))
        position, best_fitness = empty[best], empty_fitness[best]
    return OracleResult(
        best_position=tuple(position.tolist()),
        best_fitness=float(best_fitness),
        evaluations=store.total_periods + len(empty),
        skipped_products=skipped,
    )
