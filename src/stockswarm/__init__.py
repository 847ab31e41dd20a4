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

from . import errors
from .domain import (
    Bounds,
    PriorityConfig,
    Topology,
    Weights,
    dimension,
    round_half_away_from_zero,
    total_agents,
    weights_from_priorities,
)
from .engine import (
    FitnessEvaluator,
    OptimizationResult,
    PsoConfig,
    draw_swarm,
    evaluate,
    inertia_weight,
    pso_step,
    run,
)
from .history import (
    HistoryRecord,
    HistoryStore,
    MatchResult,
    RawMaterialLeadTime,
    StockLeadTimeRecord,
    load_store,
)
from .oracle import OracleResult, empty_match_candidate, enumerate_candidates, oracle_minimum
from .recommend import Action, Recommendation, interpret, member_labels, render_report
from .synth import SynthConfig, generate, write_fixtures

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "errors",
    "fixture_paths",
    # domain
    "Topology",
    "Bounds",
    "PriorityConfig",
    "Weights",
    "total_agents",
    "dimension",
    "weights_from_priorities",
    "round_half_away_from_zero",
    # history
    "HistoryRecord",
    "StockLeadTimeRecord",
    "RawMaterialLeadTime",
    "MatchResult",
    "HistoryStore",
    "load_store",
    # engine
    "PsoConfig",
    "OptimizationResult",
    "FitnessEvaluator",
    "evaluate",
    "inertia_weight",
    "draw_swarm",
    "pso_step",
    "run",
    # recommend
    "Action",
    "Recommendation",
    "member_labels",
    "interpret",
    "render_report",
    # oracle
    "OracleResult",
    "empty_match_candidate",
    "enumerate_candidates",
    "oracle_minimum",
    # synth
    "SynthConfig",
    "generate",
    "write_fixtures",
]


def fixture_paths() -> tuple[Path, Path, Path]:
    """Paths of the bundled history, stock lead-time and raw-material CSVs."""
    data = files(__name__) / "data"
    return (
        Path(str(data / "stock_history.csv")),
        Path(str(data / "stock_lead_times.csv")),
        Path(str(data / "raw_material_lead_times.csv")),
    )
