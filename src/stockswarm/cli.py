"""Command-line front end.

Four subcommands cover the whole workflow:

* ``validate``  -- load and cross-check the three CSV tables, print a summary;
* ``optimize``  -- run the swarm, write text/json reports plus a run manifest;
* ``oracle``    -- brute-force enumeration minimum for the same inputs;
* ``synth``     -- generate schema-valid synthetic CSV fixtures.

Exit codes are a stable contract: 0 success, 2 input or validation errors,
3 configuration or numeric-domain errors.  Every report-producing command
writes a ``manifest.json`` capturing the settings, seed and input digests,
so any output can be reproduced byte for byte from its manifest.

When data paths are omitted, the bundled fixture tables are used, which
makes ``stockswarm optimize`` runnable straight after install.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from . import __version__, fixture_paths
from .config import DEFAULT_SETTINGS, _get_int, build_pso_config, build_topology, parse_settings
from .domain import Topology
from .engine import run
from .errors import ConfigError, LogDomainError, StoreError
from .history import _TABLES, load_store
from .oracle import oracle_minimum
from .recommend import interpret, render_report
from .synth import SynthConfig, write_fixtures

__all__ = ["main"]


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]  # 64-bit content hash


def _data_paths(args: argparse.Namespace) -> dict[str, Path]:
    return {
        key: bundled if getattr(args, key) is None else Path(getattr(args, key))
        for (key, _, _), bundled in zip(_TABLES, fixture_paths())
    }


def _manifest(
    args: argparse.Namespace,
    settings: dict[str, str],
    paths: dict[str, Path],
    extra_config: dict[str, str] | None = None,
) -> bytes:
    """The manifest.json bytes: everything needed to reproduce one
    command's output bytes."""
    config = {key: settings[key] for key in DEFAULT_SETTINGS}
    if extra_config:
        config.update(extra_config)
    payload = {
        "artifact_version": __version__,
        "seed": args.seed,
        "config": config,
        "inputs": {name: _digest(path) for name, path in sorted(paths.items())},
    }
    return (json.dumps(payload, indent=2) + "\n").encode("utf-8")


def _load(args: argparse.Namespace) -> tuple[dict[str, str], Topology, object, dict[str, Path]]:
    settings = parse_settings(args.config)
    topology = build_topology(settings)
    paths = _data_paths(args)
    store = load_store(*paths.values(), topology)
    return settings, topology, store, paths


def cmd_validate(args: argparse.Namespace) -> int:
    _, topology, store, paths = _load(args)
    for name, path in paths.items():
        print(f"{name}: {path}")
    print(f"history rows: {store.total_periods}")
    print(f"stock lead-time rows: {len(store.lead)}")
    print(f"raw-material rows: {len(store.raw)}")
    print(
        f"{store.total_periods} periods, {len(store.products)} products, "
        f"l={topology.member_count}"
    )
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    settings, topology, store, paths = _load(args)
    config = build_pso_config(settings, seed=args.seed)
    try:
        result = run(store, topology, config)
    except MemoryError:
        print(
            f"error: a swarm of {config.swarm_size} particles does not fit in memory",
            file=sys.stderr,
        )
        return 3
    recommendation = interpret(
        result.best_position,
        topology,
        fitness=result.best_fitness,
        weights=result.weights_used,
        iterations=result.iterations_run,
    )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.txt").write_bytes(render_report(recommendation, "text"))
    (out / "report.json").write_bytes(render_report(recommendation, "json"))
    (out / "manifest.json").write_bytes(_manifest(args, settings, paths))

    trace = result.gbest_trace
    last_improvement = next(
        iteration for iteration, fitness in trace if fitness == result.best_fitness
    )
    print(
        f"trace: first {trace[0][1]!r}, last {trace[-1][1]!r}, "
        f"last improvement at iteration {last_improvement}, "
        f"{result.iterations_run} iterations run"
    )
    sys.stdout.flush()
    sys.stdout.buffer.write(render_report(recommendation, args.format))
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    settings, _, store, paths = _load(args)
    config = build_pso_config(settings, seed=args.seed)
    result = oracle_minimum(store, config)

    payload = {
        "best_fitness": result.best_fitness,
        "best_position": list(result.best_position),
        "evaluations": result.evaluations,
        "skipped_products": list(result.skipped_products),
    }
    body = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "oracle.json").write_bytes(body)
    (out / "manifest.json").write_bytes(_manifest(args, settings, paths))

    if args.format == "json":
        sys.stdout.buffer.write(body)
    else:
        print(f"evaluations: {result.evaluations}")
        print(f"minimum fitness: {result.best_fitness!r}")
        print(f"at position: {list(result.best_position)}")
        if result.skipped_products:
            print(
                "no empty-match candidate for products: "
                f"{list(result.skipped_products)} (radius blankets their stock range)"
            )
    return 0


# The synth-only options: SynthConfig fields, recorded in the manifest too.
_SYNTH_OPTIONS = ("periods", "products", "link_time_lb", "link_time_ub", "raw_time_lb", "raw_time_ub")


def cmd_synth(args: argparse.Namespace) -> int:
    settings = parse_settings(args.config)
    topology = build_topology(settings)
    options = {name: getattr(args, name) for name in _SYNTH_OPTIONS}
    synth_config = SynthConfig(
        topology=topology,
        stock_lb=_get_int(settings, "stock_lb"),
        stock_ub=_get_int(settings, "stock_ub"),
        **options,
    )
    try:
        paths = write_fixtures(synth_config, args.seed, args.out)
    except OSError as exc:
        print(f"error: cannot write to {args.out}: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(
            f"error: {args.periods} periods and {args.products} products do not fit in memory",
            file=sys.stderr,
        )
        return 3
    extra = {name: str(value) for name, value in options.items()}
    (Path(args.out) / "manifest.json").write_bytes(_manifest(args, settings, paths, extra))
    for name, path in paths.items():
        print(f"{name}: {path}")
    print(f"{args.periods} periods, {args.products} products, l={topology.member_count}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="flat key = value settings file")
    for key, _, label in _TABLES:
        common.add_argument(
            f"--{key.replace('_', '-')}", metavar="PATH", help=f"{label} CSV (default: bundled)"
        )
    common.add_argument("--seed", type=int, default=0, help="RNG seed (default: 0)")
    common.add_argument("--out", metavar="DIR", default=".", help="output directory")
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="stdout report format"
    )

    parser = argparse.ArgumentParser(
        prog="stockswarm",
        description="Swarm search for the historical stock pattern that drives supply-chain cost.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="load and cross-check the CSV tables")
    p.set_defaults(func=cmd_validate)
    p = sub.add_parser("optimize", parents=[common], help="run the swarm and write reports")
    p.set_defaults(func=cmd_optimize)
    p = sub.add_parser("oracle", parents=[common], help="brute-force enumeration minimum")
    p.set_defaults(func=cmd_oracle)
    p = sub.add_parser("synth", parents=[common], help="generate synthetic fixture CSVs")
    p.add_argument("--periods", type=int, help="history rows to generate")
    p.add_argument("--products", type=int, help="distinct product ids")
    p.add_argument("--link-time-lb", type=int, help="minimum link transport days")
    p.add_argument("--link-time-ub", type=int, help="maximum link transport days")
    p.add_argument("--raw-time-lb", type=int, help="minimum raw-material days")
    p.add_argument("--raw-time-ub", type=int, help="maximum raw-material days")
    synth = SynthConfig()  # each synth-only option defaults to its field's default
    p.set_defaults(func=cmd_synth, **{name: getattr(synth, name) for name in _SYNTH_OPTIONS})
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (StoreError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, LogDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
