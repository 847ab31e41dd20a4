"""Measuring runs of the benchmark; ``run.py`` is the entry point."""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from stockswarm import engine, oracle
from stockswarm.config import build_pso_config, build_topology, parse_settings
from stockswarm.history import load_store

from checks import Checker, recorded_digests
from jobs import Tally, timed_job
from layers import layer_metrics
from selftest import self_test
from spans import LAYERS, Tracer
from workloads import WORKLOADS, data_paths, job_argv, prepare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_ROUNDS = 3
ROUND_FLOOR_S = 1.0  # set-up and search repeat within a round until this much time has passed
CHILD_TIMEOUT_S = 150
REFERENCE_S = 0.013  # about the reference's median time on the 2-vCPU VM the bounds were set on


def declared_units(kind: str) -> dict[str, str]:
    """Metric names and units of one kind ("end_to_end" or "per_layer") in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def summary(samples: list[float]) -> str:
    """Median, the highest percentile with at least 10 samples above it, and n."""
    ordered = sorted(samples)
    n = len(ordered)
    text = f"median {statistics.median(ordered):.6g}"
    if n > 10:
        text += f", p{100 * (n - 10) // n} {ordered[n - 11]:.6g}"
    return text + f", n={n}"


class Reference:
    """Fixed pure-Python CSV parsing, unrelated to the program.

    Set-up is pure Python (CSV parsing and record objects).  On a shared
    host its speed drifts by tens of percent between runs minutes apart,
    and this reference drifts with it.  So each set-up sample is scaled by
    ``REFERENCE_S`` over the mean of the reference's times just before and
    just after it.  The numpy-bound job and search got noisier when scaled
    this way, so they stay plain wall time.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.lines = [",".join(map(str, row)) for row in rng.integers(-1000, 1001, (4000, 9)).tolist()]
        self.last = self.time()

    def time(self) -> float:
        start = time.perf_counter()
        parsed = {}
        for i, line in enumerate(self.lines):
            parsed[i] = tuple(int(cell) for cell in line.split(","))
        return time.perf_counter() - start

    def scale(self, seconds: float) -> float:
        before, self.last = self.last, self.time()
        return seconds * 2 * REFERENCE_S / (before + self.last)


def _repeat(fn, record) -> None:
    """Call ``fn`` until ``ROUND_FLOOR_S`` has passed, recording each call's wall time."""
    spent = 0.0
    while spent < ROUND_FLOOR_S:
        gc.collect()
        start = time.perf_counter()
        fn()
        seconds = time.perf_counter() - start
        record(seconds)
        spent += seconds


def peak_rss(argv: list[str]) -> tuple[float, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "rss_child.py"), str(SRC), json.dumps(argv)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        return float("nan"), [f"peak-RSS process exited with {proc.returncode}: {proc.stderr[-500:]}"]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["peak_rss_mb"], out["problems"]


def measure(w, seed: int, seconds: float, work: Path, tally, check):
    """End-to-end metrics with tracing off."""
    argv = job_argv(w, seed, work)
    rss, problems = peak_rss(argv)
    tally.record(problems or check())
    settings = parse_settings(work / "settings.cfg")
    topology = build_topology(settings)
    config = build_pso_config(settings, seed=seed)

    # The first job in a process pays one-off allocation costs; keep it out.
    timed_job(argv, check, tally)
    paths = data_paths(work)
    store = load_store(*paths, topology)
    if w.command == "oracle":
        search = lambda: oracle.oracle_minimum(store, config)
    else:
        search = lambda: engine.run(store, topology, config)
    samples = {"job_s": [], "setup_s": [], "search_s": []}
    setup_wall = []
    reference = Reference()

    def record_setup(seconds: float) -> None:
        setup_wall.append(seconds)
        samples["setup_s"].append(reference.scale(seconds))

    start, last = time.perf_counter(), 0.0
    while len(samples["job_s"]) < MIN_ROUNDS or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        samples["job_s"].append(timed_job(argv, check, tally))
        _repeat(lambda: engine.FitnessEvaluator(load_store(*paths, topology), config), record_setup)
        _repeat(search, samples["search_s"].append)
        last = time.perf_counter() - began

    for name, values in samples.items():
        print(f"{name}: {summary(values)} s")
    print(f"setup_s wall time: {summary(setup_wall)} s")
    print(f"peak_rss_mb: {rss:.6g} MiB")
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["peak_rss_mb"] = rss
    return metrics


def trace(w, seed: int, seconds: float, work: Path, tally, check):
    """Per-layer metrics, layer self times and tracing overhead."""
    argv = job_argv(w, seed, work)
    start = time.perf_counter()
    timed_job(argv, check, tally)  # warm-up
    synth_digests = recorded_digests(w, seed).get("synth")
    metrics, problems = layer_metrics(w, seed, work, check.tables(), synth_digests)
    tally.record(problems)  # the synth probe counts as one job
    tracer = Tracer()
    plain, traced, last = [], [], 0.0
    while not traced or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        plain.append(timed_job(argv, check, tally))
        tracer.job = len(traced)
        with tracer.installed():
            traced.append(timed_job(argv, check, tally))
        last = time.perf_counter() - began

    selfs = tracer.self_times()
    print(f"untraced job_s: {summary(plain)} s")
    print(f"traced job_s: {summary(traced)} s")
    print("layer self time per traced job, median s:")
    layer_s = {}
    for layer in LAYERS:
        layer_s[layer] = statistics.median(selfs.get(job, {}).get(layer, 0.0) for job in range(len(traced)))
        print(f"  {layer:<10} {layer_s[layer]:.6g}")
    batch_s = sum(tracer.durations("engine.evaluate_batch")) / len(traced)
    search = tracer.durations("engine.run") or tracer.durations("oracle.oracle_minimum")
    print(f"engine.evaluate_batch self time / search span: {batch_s / (sum(search) / len(traced)):.3f}")
    metrics["history.self_s"] = layer_s["history"]
    metrics["engine.self_s"] = layer_s["engine"]
    metrics["cli.overhead_s"] = layer_s["cli"]
    # Each pair runs back to back, so its difference sees one machine speed.
    metrics["trace.overhead_s"] = statistics.median(t - p for t, p in zip(traced, plain))
    metrics["trace.spans"] = len(tracer.spans) // len(traced)
    tracer.write(WORK / f"spans-{w.name}-s{seed}.json")
    return metrics


def main(args: argparse.Namespace) -> int:
    w = WORKLOADS.get(args.workload)
    if w is None:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    print(f"workload {w.name}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"why: {w.why}")
    print(f"inputs: {w.periods} periods, {w.products} products, {w.members} members, settings {w.settings}")

    work = WORK / f"{w.name}-s{args.seed}-p{os.getpid()}"
    try:
        problems = self_test(work / "selftest")
        prepare(w, args.seed, work)
        tally = Tally()
        check = Checker(w, work, recorded_digests(w, args.seed).get("job"))
        run = trace if args.trace else measure
        metrics = run(w, args.seed, args.seconds, work, tally, check)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = declared_units("per_layer" if args.trace else "end_to_end")
    for name in sorted(units):
        print(f"{name} = {metrics[name]!r} {units[name]}")
    print(f"fail_ratio: {tally.failed}/{tally.attempted}")
    for problem in problems + tally.problems:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": not problems and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0

