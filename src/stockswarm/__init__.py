"""Swarm search over historical stock patterns in a supply chain.

The package mines a history of per-period stock levels (factory,
distribution centres, end agents) together with transport and raw-material
lead times for the excess/shortage pattern with the strongest pull on
supply-chain cost, then turns the winning individual into per-member
increase/decrease recommendations.

Typical use::

    import stockswarm as ss

    history, stock_lead, raw_lead = ss.fixture_paths()
    store = ss.load_store(history, stock_lead, raw_lead, ss.Topology())
    config = ss.PsoConfig(match_radius=0, seed=7)
    result = ss.run(store, store.topology, config)
    report = ss.interpret(result.best_position, store.topology,
                          fitness=result.best_fitness,
                          weights=result.weights_used,
                          iterations=result.iterations_run)

Everything is deterministic given the inputs and the seed.
"""

from importlib.resources import files
from pathlib import Path

from . import domain, engine, errors, history, oracle, recommend, synth
from .domain import *
from .engine import *
from .history import *
from .oracle import *
from .recommend import *
from .synth import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "errors",
    "fixture_paths",
    *domain.__all__,
    *history.__all__,
    *engine.__all__,
    *recommend.__all__,
    *oracle.__all__,
    *synth.__all__,
]


def fixture_paths() -> tuple[Path, Path, Path]:
    """Paths of the bundled history, stock lead-time and raw-material CSVs."""
    data = files(__name__) / "data"
    return tuple(Path(str(data / name)) for _, name, _ in history._TABLES)
