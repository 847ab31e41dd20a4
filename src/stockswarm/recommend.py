"""Turning the best individual into per-member inventory actions.

Sign convention on the stock dimensions: a negative level predicts a
shortage, so the member should increase inventory of the product by that
magnitude; a positive level predicts an excess, so the member should
decrease it.  Zero means no predicted imbalance and no action.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .domain import Topology, Weights, round_half_away_from_zero
from .errors import ConfigError, DimensionMismatch

__all__ = [
    "Action",
    "Recommendation",
    "member_labels",
    "interpret",
    "render_report",
]

_DIRECTIONS = ("increase", "decrease", "none")


@dataclass(frozen=True)
class Action:
    """What one chain member should do with the recommended product."""

    member_index: int
    member_label: str
    direction: str
    quantity: int

    def __post_init__(self) -> None:
        if self.direction not in _DIRECTIONS:
            raise ConfigError(f"direction must be one of {_DIRECTIONS}, got {self.direction!r}")
        if self.quantity < 0:
            raise ConfigError(f"quantity must be non-negative, got {self.quantity}")
        if (self.direction == "none") != (self.quantity == 0):
            raise ConfigError("direction is 'none' exactly when quantity is 0")


@dataclass(frozen=True)
class Recommendation:
    """Product, one action per chain member, and run provenance."""

    product_id: int
    actions: tuple[Action, ...]
    fitness: float
    weights: Weights | None
    iterations: int


def member_labels(topology: Topology) -> tuple[str, ...]:
    """Chain-order labels: factory, distribution centres, then agents.

    Agents are numbered globally in DC order, so a 1+2+(2,2) chain yields
    agent 1..agent 4 with agents 1-2 under distribution centre 1.
    """
    labels = ["factory"]
    labels += [f"distribution centre {i}" for i in range(1, topology.dc_count + 1)]
    agent = 1
    for count in topology.agents_per_dc:
        for _ in range(count):
            labels.append(f"agent {agent}")
            agent += 1
    return tuple(labels)


def interpret(
    best_position: Sequence[float],
    topology: Topology,
    *,
    fitness: float = math.nan,
    weights: Weights | None = None,
    iterations: int = 0,
) -> Recommendation:
    """Round a best individual and map each stock dimension to an action.

    The keyword arguments carry run provenance into the report; they default
    to unknown so a bare position can be interpreted on its own.
    """
    position = np.asarray(best_position)
    if position.shape != (topology.member_count + 1,):
        raise DimensionMismatch(
            f"position has {position.size} entries, expected {topology.member_count + 1}"
        )
    rounded = round_half_away_from_zero(position)
    labels = member_labels(topology)
    actions = []
    for index, level in enumerate(int(v) for v in rounded[1:]):
        if level < 0:
            direction, quantity = "increase", -level
        elif level > 0:
            direction, quantity = "decrease", level
        else:
            direction, quantity = "none", 0
        actions.append(Action(index, labels[index], direction, quantity))
    return Recommendation(
        product_id=int(rounded[0]),
        actions=tuple(actions),
        fitness=fitness,
        weights=weights,
        iterations=iterations,
    )


def _action_line(action: Action, product_id: int) -> str:
    if action.direction == "none":
        return f"{action.member_label}: no change"
    return (
        f"{action.member_label}: {action.direction} inventory of "
        f"product {product_id} by {action.quantity} units"
    )


def render_report(recommendation: Recommendation, format: str = "text") -> bytes:
    """Render a recommendation as UTF-8 bytes, "text" or "json".

    Rendering is pure, so equal recommendations give identical bytes.
    Unknown provenance (NaN fitness, absent weights) renders as null in
    JSON and n/a in text.
    """
    rec = recommendation
    if format == "json":
        payload = {
            "product_id": rec.product_id,
            "fitness": None if math.isnan(rec.fitness) else rec.fitness,
            "weights": None if rec.weights is None else list(rec.weights.as_tuple()),
            "iterations": rec.iterations,
            "actions": [
                {
                    "member": a.member_label,
                    "direction": a.direction,
                    "quantity": a.quantity,
                }
                for a in rec.actions
            ],
        }
        return (json.dumps(payload, indent=2, allow_nan=False) + "\n").encode("utf-8")
    if format == "text":
        lines = [_action_line(a, rec.product_id) for a in rec.actions]
        lines.append(f"product: {rec.product_id}")
        lines.append(f"fitness: {'n/a' if math.isnan(rec.fitness) else repr(rec.fitness)}")
        if rec.weights is None:
            lines.append("weights: n/a")
        else:
            w = rec.weights.as_tuple()
            lines.append(f"weights: {w[0]!r}, {w[1]!r}, {w[2]!r}")
        lines.append(f"iterations: {rec.iterations}")
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise ConfigError(f"format must be 'text' or 'json', got {format!r}")
