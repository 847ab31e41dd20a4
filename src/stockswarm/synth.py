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
from .history import _headers

__all__ = ["SynthConfig", "generate", "write_fixtures"]

_MAX_RAW_MATERIALS = 5  # per product; each gets 2 to this many


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
        for name in (f.name for f in fields(self) if f.name != "topology"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        for name in ("products", "stock_lb", "stock_ub"):  # the draws take int64 bounds
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


def generate(
    config: SynthConfig, seed: int
) -> tuple[
    list[tuple[int, int, tuple[int, ...]]],
    list[tuple[int, tuple[int, ...]]],
    list[tuple[int, int, int]],
]:
    """Rows for the three tables, directly loadable via from_records.

    Every period gets one history row and one lead-time row (TIDs 1..n);
    every product id 1..products gets 2 to 5 raw materials.
    """
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    l = config.topology.member_count
    history = []
    for tid in range(1, config.periods + 1):
        pid = int(rng.integers(1, config.products + 1))
        levels = tuple(
            int(v) for v in rng.integers(config.stock_lb, config.stock_ub + 1, size=l)
        )
        history.append((tid, pid, levels))
    leads = []
    for tid in range(1, config.periods + 1):
        times = tuple(
            int(v)
            for v in rng.integers(config.link_time_lb, config.link_time_ub + 1, size=l - 1)
        )
        leads.append((tid, times))
    raws = []
    for pid in range(1, config.products + 1):
        count = int(rng.integers(2, _MAX_RAW_MATERIALS + 1))
        for rm in range(1, count + 1):
            time = int(rng.integers(config.raw_time_lb, config.raw_time_ub + 1))
            raws.append((pid, rm, time))
    return history, leads, raws


def write_fixtures(config: SynthConfig, seed: int, out_dir: str | Path) -> dict[str, Path]:
    """Generate and write the three CSV files; returns their paths."""
    history, leads, raws = generate(config, seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    paths = {
        "history": out / "stock_history.csv",
        "stock_lead": out / "stock_lead_times.csv",
        "raw_lead": out / "raw_material_lead_times.csv",
    }
    tables = (
        [(tid, pid, *levels) for tid, pid, levels in history],
        [(tid, *times) for tid, times in leads],
        raws,
    )
    for path, header, rows in zip(paths.values(), _headers(config.topology.member_count), tables):
        lines = [",".join(header)] + [",".join(map(str, row)) for row in rows]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return paths
