"""Per-layer probes: each layer's public functions timed on a workload's inputs.

Every probe runs on every workload, so each per-layer metric exists for
each of them.  The probes call the same public API the CLI uses:

* history: ``load_store``, ``HistoryStore.from_records`` on already-parsed
  tuples, and ``match_individual`` on a sample of recorded vectors;
* engine: ``FitnessEvaluator``, one ``run`` with the workload's settings
  whose rounds are timed through ``observer``, and an ``evaluate_batch``
  replay of the recorded batches, which splits the PSO step from evaluation;
* oracle: ``enumerate_candidates`` and ``oracle_minimum``;
* synth: ``write_fixtures`` at the workload's shape, with ``generate``
  timed as a span inside it; its files are checked like a job's outputs;
* recommend: ``interpret`` plus both ``render_report`` formats.

Each timed probe repeats until ``PROBE_SECONDS`` have passed and at least
``PROBE_CALLS`` times, and reports the median call.

Traffic counts (distinct positions, hit share, clamp share, computed kernel
box tests and bytes) come from the recorded batches, measured here rather
than inside the program.
"""

from __future__ import annotations

import gc
import statistics
import time
from pathlib import Path

import numpy as np

from stockswarm import engine, history, oracle, recommend, synth
from stockswarm.config import build_pso_config, build_topology, parse_settings

from checks import Tables, box_hits, check_synth, digest_problems, digests, rounded
from spans import END, NAME, START, Tracer
from workloads import Workload, data_paths

PROBE_SECONDS = 1.0
PROBE_CALLS = 3
MATCH_SAMPLE = 1000
REPLAY_SECONDS = 1.0
REPORT_REPEATS = 200


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _timed(fn, *args):
    start = time.perf_counter()
    value = fn(*args)
    return time.perf_counter() - start, value


def _repeated(fn, *args):
    """Median seconds of repeated calls, and the last call's value."""
    samples, value = [], None
    while len(samples) < PROBE_CALLS or sum(samples) < PROBE_SECONDS:
        value = None  # let the previous value go before the next call
        gc.collect()
        seconds, value = _timed(fn, *args)
        samples.append(seconds)
    return statistics.median(samples), value


def kernel_traffic(batches: list[np.ndarray], tables: Tables) -> tuple[int, int]:
    """Box tests and bytes of the current (queries, rows, members) broadcast.

    Per batch and product, ``evaluate_batch`` materialises a difference and
    its absolute value as int64 and a bool comparison, each queries x rows x
    members, then a queries x rows bool hit mask.  Computed from row counts.
    """
    rows = np.bincount(tables.history[:, 1])
    members = tables.history.shape[1] - 2
    tests = 0
    for batch in batches:
        pids, queries = np.unique(rounded(batch[:, 0]), return_counts=True)
        tests += int(sum(q * rows[p] for p, q in zip(pids, queries) if 0 <= p < len(rows)))
    return tests * members, tests * (17 * members + 1)


def hit_share(batches: list[np.ndarray], tables: Tables, radius: int) -> float:
    """Share of evaluations whose rounded position matches at least one record."""
    points = rounded(np.vstack(batches))
    hits = 0
    for pid in np.unique(points[:, 0]):
        rows = tables.history[tables.rows_of(pid), 2:].astype(np.int32)
        queries = points[points[:, 0] == pid, 1:].astype(np.int32)
        if len(rows):
            hits += int(box_hits(rows, queries, radius).any(axis=1).sum())
    return hits / len(points)


def engine_metrics(store, topology, config, tables: Tables) -> tuple[dict[str, float], object]:
    tracer, marks = Tracer(), []
    with tracer.installed():
        start = time.perf_counter()
        result = engine.run(
            store, topology, config, observer=lambda *_: marks.append(time.perf_counter())
        )
        search_s = time.perf_counter() - start
    batch_spans = [s for s in tracer.spans if s[NAME] == "engine.evaluate_batch"]
    bounds = [batch_spans[0][END], *marks]  # round k runs from bounds[k-1] to bounds[k]
    rounds = np.diff(bounds)
    evals = np.array([s[END] - s[START] for s in batch_spans[1:]])

    evaluator = engine.FitnessEvaluator(store, config)
    replay, spent = [], 0.0
    while spent < REPLAY_SECONDS or not replay:
        for batch in tracer.batches:
            seconds, _ = _timed(evaluator.evaluate_batch, batch)
            replay.append(seconds * 1e3)
            spent += seconds

    batches = tracer.batches
    evaluations = sum(len(b) for b in batches)
    points = rounded(np.vstack(batches))
    lower = config.bounds.position_lower(topology.member_count)
    upper = config.bounds.position_upper(topology.member_count)
    moved = np.vstack(batches[1:])
    box_tests, box_bytes = kernel_traffic(batches, tables)
    return {
        "engine.evaluate_batch_ms_p50": percentile(replay, 50),
        "engine.evaluate_batch_ms_p97": percentile(replay, 97),
        "engine.round_ms_p50": float(np.median(rounds)) * 1e3,
        "engine.step_ms_p50": float(np.median(rounds - evals)) * 1e3,
        "engine.evaluations": evaluations,
        "engine.distinct_ratio": len(np.unique(points, axis=0)) / evaluations,
        "engine.hit_share": hit_share(batches, tables, config.match_radius),
        "engine.clamp_share": float(((moved <= lower) | (moved >= upper)).mean()),
        # Nominal, as demo 04 counts it: every period against every evaluation.
        "engine.comparisons_per_s": store.total_periods * evaluations / search_s,
        # Computed from row counts for the current broadcast, not counted.
        "engine.kernel_box_tests": box_tests,
        "engine.kernel_bytes": box_bytes,
    }, result


def oracle_metrics(store, config) -> dict[str, float]:
    enumerate_s, (candidates, _) = _repeated(oracle.enumerate_candidates, store, config)
    minimum_s, _ = _repeated(oracle.oracle_minimum, store, config)
    return {
        "oracle.candidates": len(candidates),
        "oracle.enumerate_s": enumerate_s,
        "oracle.minimum_s": minimum_s,
        "oracle.per_candidate_us": minimum_s / len(candidates) * 1e6,
    }


def synth_metrics(
    w: Workload, topology, seed: int, out: Path, expected: dict[str, str] | None
) -> tuple[dict[str, float], list[str]]:
    """Synth timings, and the problems found in the files it wrote."""
    config = synth.SynthConfig(periods=w.periods, products=w.products, topology=topology)
    tracer = Tracer()
    with tracer.installed():
        _, paths = _repeated(synth.write_fixtures, config, seed, out / "data")
    generate = tracer.durations("synth.generate")
    write = [total - gen for total, gen in zip(tracer.durations("synth.write_fixtures"), generate)]
    written = sum(p.stat().st_size for p in paths.values())
    problems = check_synth(out / "data", w.periods, w.products, w.members)
    problems += digest_problems(digests(out, ("data",)), expected)
    return {
        "synth.generate_s": statistics.median(generate),
        "synth.write_s": statistics.median(write),
        "synth.write_bytes_per_s": written / statistics.median(write),
    }, problems


def report_ms(result, topology) -> float:
    samples = []
    for _ in range(REPORT_REPEATS):
        start = time.perf_counter()
        rec = recommend.interpret(
            result.best_position, topology, fitness=result.best_fitness,
            weights=result.weights_used, iterations=result.iterations_run,
        )
        recommend.render_report(rec, "text")
        recommend.render_report(rec, "json")
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def layer_metrics(
    w: Workload, seed: int, work: Path, tables: Tables, synth_digests: dict[str, str] | None
) -> tuple[dict[str, float], list[str]]:
    """Every per-layer probe on the inputs already in ``work``.

    Returns the metrics and the problems found in the synth probe's files.
    """
    settings = parse_settings(work / "settings.cfg")
    topology = build_topology(settings)
    config = build_pso_config(settings, seed=seed)

    load_s, store = _repeated(history.load_store, *data_paths(work), topology)
    rows = store.total_periods + len(store.lead_records) + len(store.raw_records)
    parsed = (
        [(r.tid, r.product_id, r.levels) for r in store.records],
        [(r.tid, r.link_times) for r in store.lead_records],
        [(r.product_id, r.raw_material_id, r.time) for r in store.raw_records],
    )
    from_records_s, _ = _repeated(history.HistoryStore.from_records, topology, *parsed)
    del parsed
    step = max(1, store.total_periods // MATCH_SAMPLE)
    match_us = []
    for record in store.records[::step]:
        seconds, _ = _timed(
            store.match_individual, record.product_id, record.levels, config.match_radius
        )
        match_us.append(seconds * 1e6)
    init_s, _ = _repeated(engine.FitnessEvaluator, store, config)

    metrics = {
        "history.load_s": load_s,
        "history.parse_rows_per_s": rows / load_s,
        "history.from_records_s": from_records_s,
        "history.match_individual_us_p50": percentile(match_us, 50),
        "engine.evaluator_init_s": init_s,
    }
    engine_part, result = engine_metrics(store, topology, config, tables)
    metrics.update(engine_part)
    metrics.update(oracle_metrics(store, config))
    synth_part, problems = synth_metrics(w, topology, seed, work / "synth-probe", synth_digests)
    metrics.update(synth_part)
    metrics["recommend.report_ms"] = report_ms(result, topology)
    return metrics, problems
