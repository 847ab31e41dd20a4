"""Flat ``key = value`` settings files and their translation to objects.

Every key has a default, so an empty or absent file is a valid full
configuration.  Unknown keys are rejected rather than ignored: a typo in a
tuning knob should fail loudly, not silently run the defaults.  Lines
starting with ``#`` and blank lines are comments; when a key repeats, the
last assignment wins.
"""

from __future__ import annotations

from pathlib import Path

from .domain import Bounds, PriorityConfig, Topology
from .engine import PsoConfig
from .errors import ConfigError

__all__ = [
    "DEFAULT_SETTINGS",
    "parse_settings",
    "build_topology",
    "build_pso_config",
]

DEFAULT_SETTINGS: dict[str, str] = {
    "swarm_size": "30",
    "max_iterations": "100",
    "c1": "2.0",
    "c2": "2.0",
    "w_max": "0.9",
    "w_min": "0.4",
    "r1": "10",
    "r2": "5",
    "r3": "1",
    "match_radius": "100",
    "log_base": "natural",
    "stall_window": "0",
    "product_lb": "1",
    "product_ub": "5",
    "stock_lb": "-1000",
    "stock_ub": "1000",
    "velocity_fraction": "0.2",
    "per_dimension_r": "false",
    "member_count": "7",
    "dc_count": "2",
    "agents_per_dc": "2,2",
}


def parse_settings(path: str | Path | None = None) -> dict[str, str]:
    """Defaults overlaid with the assignments of one settings file."""
    settings = dict(DEFAULT_SETTINGS)
    if path is None:
        return settings
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in DEFAULT_SETTINGS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        settings[key] = value
    return settings


def _get_int(settings: dict[str, str], key: str) -> int:
    try:
        return int(settings[key])
    except ValueError:
        raise ConfigError(f"config key {key}: {settings[key]!r} is not an integer") from None


def _get_float(settings: dict[str, str], key: str) -> float:
    try:
        return float(settings[key])
    except ValueError:
        raise ConfigError(f"config key {key}: {settings[key]!r} is not a number") from None


def _get_bool(settings: dict[str, str], key: str) -> bool:
    value = settings[key].lower()
    if value in ("true", "false"):
        return value == "true"
    raise ConfigError(f"config key {key}: expected true or false, got {settings[key]!r}")


def build_topology(settings: dict[str, str]) -> Topology:
    """Topology from dc_count and agents_per_dc, cross-checked on size."""
    dc_count = _get_int(settings, "dc_count")
    raw = settings["agents_per_dc"].strip()
    if raw:
        try:
            agents = tuple(int(part.strip()) for part in raw.split(","))
        except ValueError:
            raise ConfigError(
                f"config key agents_per_dc: {raw!r} is not a comma-separated integer list"
            ) from None
    else:
        agents = ()
    topology = Topology(dc_count=dc_count, agents_per_dc=agents)
    member_count = _get_int(settings, "member_count")
    if member_count != topology.member_count:
        raise ConfigError(
            f"member_count {member_count} disagrees with "
            f"1 + {dc_count} DCs + {sum(agents)} agents = {topology.member_count}"
        )
    return topology


def build_pso_config(settings: dict[str, str], seed: int = 0) -> PsoConfig:
    """Full run config from settings; the seed comes from the caller."""
    return PsoConfig(
        swarm_size=_get_int(settings, "swarm_size"),
        max_iterations=_get_int(settings, "max_iterations"),
        c1=_get_float(settings, "c1"),
        c2=_get_float(settings, "c2"),
        w_max=_get_float(settings, "w_max"),
        w_min=_get_float(settings, "w_min"),
        bounds=Bounds(
            product_lb=_get_int(settings, "product_lb"),
            product_ub=_get_int(settings, "product_ub"),
            stock_lb=_get_int(settings, "stock_lb"),
            stock_ub=_get_int(settings, "stock_ub"),
            velocity_fraction=_get_float(settings, "velocity_fraction"),
        ),
        priorities=PriorityConfig(
            r1=_get_float(settings, "r1"),
            r2=_get_float(settings, "r2"),
            r3=_get_float(settings, "r3"),
        ),
        match_radius=_get_int(settings, "match_radius"),
        log_base=settings["log_base"],
        stall_window=_get_int(settings, "stall_window"),
        seed=seed,
        per_dimension_r=_get_bool(settings, "per_dimension_r"),
    )
