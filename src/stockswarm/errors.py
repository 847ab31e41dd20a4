"""Exception hierarchy shared by all stockswarm modules.

Every error raised on a documented contract path derives from
:class:`StockSwarmError`, so callers (notably the CLI) can separate
input/data problems from configuration problems without string matching.
"""

__all__ = [
    "StockSwarmError",
    "ConfigError",
    "ZeroPrioritySum",
    "DegenerateLeadTimeWeights",
    "LogDomainError",
    "StoreError",
    "ParseError",
    "DuplicateTid",
    "MissingLeadTimeRow",
    "MissingRawMaterial",
    "DimensionMismatch",
]


class StockSwarmError(Exception):
    """Base class for all stockswarm errors."""


class ConfigError(StockSwarmError):
    """A setting value or combination of settings is invalid."""


class ZeroPrioritySum(ConfigError):
    """All three priority levels are zero; weights would be undefined."""


class DegenerateLeadTimeWeights(ConfigError):
    """Both lead-time priorities are zero; the fitness log term would
    collapse to log(0) for every candidate."""


class LogDomainError(StockSwarmError):
    """The weighted lead-time sum fed to the fitness logarithm is not
    positive.  Signals degenerate priorities or all-zero lead times, a
    configuration/data problem rather than a search state."""


class StoreError(StockSwarmError):
    """Base class for historical-table loading and query errors."""


class ParseError(StoreError):
    """A table file is malformed (bad header, non-integer field, empty,
    out-of-range value, duplicate raw-material row)."""


class DuplicateTid(StoreError):
    """The same transportation id appears twice within one table."""


class MissingLeadTimeRow(StoreError):
    """A history transportation id has no stock-lead-time row."""


class MissingRawMaterial(StoreError):
    """A product has no raw-material lead-time rows."""


class DimensionMismatch(StoreError):
    """A row or vector width disagrees with the configured chain size."""

