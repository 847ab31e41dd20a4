"""Deterministic generation of schema-valid synthetic fixtures.

Used by property tests and the command line to produce history stores of
arbitrary size that always pass validation.  All draws come from one
seeded generator in a fixed order (per period: product then levels; then
per period: link times; then per product: raw-material count and times),
so one seed always yields the same rows and the same file bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .domain import INT64_MAX, INT64_MIN, Topology, _integer
from .errors import ConfigError
from .history import _TABLES, _headers

__all__ = ["SynthConfig", "generate", "write_fixtures"]

_MAX_RAW_MATERIALS = 5  # per product; each gets 2 to this many
# Table rows formatted at once; formatting makes Python ints of every cell.
_WRITE_ROWS = 2**12


@dataclass(frozen=True)
class SynthConfig:
    """Shape and value ranges of one synthetic data set."""

    periods: int = 20
    products: int = 5
    topology: Topology = field(default_factory=Topology)
    stock_lb: int = -1000
    stock_ub: int = 1000
    link_time_lb: int = 6
    link_time_ub: int = 48
    raw_time_lb: int = 6
    raw_time_ub: int = 35

    def __post_init__(self) -> None:
        if not isinstance(self.topology, Topology):
            raise ConfigError(f"topology must be a Topology, got {self.topology!r}")
        for name in (f.name for f in fields(self) if f.name != "topology"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        for name in ("periods", "products", "stock_lb", "stock_ub"):  # int64 sizes and bounds
            if not INT64_MIN <= getattr(self, name) <= INT64_MAX:
                raise ConfigError(f"{name} {getattr(self, name)} is outside the int64 range")
        if self.periods < 1:
            raise ConfigError(f"periods must be positive, got {self.periods}")
        if self.products < 1:
            raise ConfigError(f"products must be positive, got {self.products}")
        if self.stock_lb > self.stock_ub:
            raise ConfigError("stock_lb must not exceed stock_ub")
        if not 0 <= self.link_time_lb <= self.link_time_ub:
            raise ConfigError("link time range must be 0 <= lb <= ub")
        if not 0 <= self.raw_time_lb <= self.raw_time_ub:
            raise ConfigError("raw-material time range must be 0 <= lb <= ub")
        # Validation rejects a lead-time row, or a product's raw-material
        # times, that sum past int64.
        links = self.topology.member_count - 1
        for name, draws in (("link_time_ub", links), ("raw_time_ub", _MAX_RAW_MATERIALS)):
            value = getattr(self, name)
            if draws * value > INT64_MAX:
                raise ConfigError(f"{draws} draws of {name} {value} can sum past the int64 range")
        # numpy refuses, with a ValueError, an array of more than INT64_MAX bytes.
        cells = self.periods * (self.topology.member_count + 2)
        if cells * 8 > INT64_MAX:
            raise ConfigError(f"periods {self.periods} need {cells} history cells, too many")


def generate(config: SynthConfig, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three tables as int64 matrices ``(history, lead, raw)``, in the
    column order of the :class:`~stockswarm.history.HistoryStore`
    constructor, which takes them as they are.

    Every period gets one history row and one lead-time row (TIDs 1..n);
    every product id 1..products gets 2 to 5 raw materials.  One call draws
    every period's product and levels, from per-column bounds broadcast over
    the periods, and one call draws every link time.  The generator draws
    array elements in order and keeps its spare 32 bits across calls, so the
    values equal those of one call per period.
    """
    seed = _integer(seed, "seed")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    n, l = config.periods, config.topology.member_count
    low = np.array([1] + [config.stock_lb] * l, dtype=np.int64)
    high = np.array([config.products] + [config.stock_ub] * l, dtype=np.int64)
    # Each draw is copied in after its table's TIDs and freed before the
    # next table is made, so no two draws are alive at once.
    history = np.empty((n, l + 2), dtype=np.int64)
    history[:, 0] = np.arange(1, n + 1)
    history[:, 1:] = rng.integers(low, high, size=(n, l + 1), endpoint=True)
    lead = np.empty((n, l), dtype=np.int64)
    lead[:, 0] = history[:, 0]
    links = (config.link_time_lb, config.link_time_ub)
    lead[:, 1:] = rng.integers(*links, size=(n, l - 1), endpoint=True)
    raw = []
    for pid in range(1, config.products + 1):  # each count decides the next draws
        count = int(rng.integers(2, _MAX_RAW_MATERIALS, endpoint=True))
        raw_times = rng.integers(config.raw_time_lb, config.raw_time_ub, size=count, endpoint=True)
        raw.append(np.column_stack([np.full(count, pid), np.arange(1, count + 1), raw_times]))
    return history, lead, np.concatenate(raw)


def write_fixtures(config: SynthConfig, seed: int, out_dir: str | Path) -> dict[str, Path]:
    """Generate and write the three CSV files; returns their paths."""
    tables = generate(config, seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    paths = {key: out / name for key, name, _ in _TABLES}
    for path, header, table in zip(paths.values(), _headers(config.topology.member_count), tables):
        row = ",".join(["%d"] * table.shape[1]) + "\n"
        with path.open("w", encoding="utf-8") as file:
            file.write(",".join(header) + "\n")
            for start in range(0, len(table), _WRITE_ROWS):
                block = table[start : start + _WRITE_ROWS]
                file.write(row * len(block) % tuple(block.ravel().tolist()))
    return paths
