"""Tiny-size self-test, run at the start of every benchmark run.

It shows that the benchmark cannot pass silently: the generator is
deterministic in its seed, every workload and the synth probe pass their
checks at a tiny size, and each deliberately corrupted output, a fitness
kernel that drops matches, and a command that exits non-zero are each
counted as a failed job.
"""

from __future__ import annotations

import json
import shutil
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from stockswarm import engine, synth
from stockswarm.domain import Topology

from checks import Checker, check_synth, digest_problems, digests
from jobs import Tally, run_job
from workloads import WORKLOADS, job_argv, motif_history, prepare

SEED = 7
PERIODS = 300
SYNTH_PRODUCTS = 5


def _nudge_json(path: Path, key: str) -> float:
    payload = json.loads(path.read_bytes())
    old = payload[key]
    payload[key] *= 1 + 1e-9
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return old


def _nudge_report(out: Path) -> None:
    """Change the fitness in both reports alike, so only the recomputation can tell."""
    old = _nudge_json(out / "report.json", "fitness")
    new = json.loads((out / "report.json").read_bytes())["fitness"]
    text = (out / "report.txt").read_text("utf-8")
    (out / "report.txt").write_text(text.replace(f"fitness: {old!r}", f"fitness: {new!r}"), encoding="utf-8")


def _set_level(path: Path, value: int) -> None:
    lines = path.read_text("utf-8").splitlines()
    lines[1] = ",".join(lines[1].split(",")[:-1] + [str(value)])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _append(path: Path, text: str) -> None:
    path.write_text(path.read_text("utf-8") + text, encoding="utf-8")


@contextmanager
def _batch_without_matches():
    """Make ``evaluate_batch`` score every position as if it matched nothing."""
    real = engine.FitnessEvaluator.evaluate_batch

    def broken(evaluator, positions):
        far = np.array(positions, dtype=np.float64)
        far[:, 1:] = 10**9
        return real(evaluator, far)

    engine.FitnessEvaluator.evaluate_batch = broken
    try:
        yield
    finally:
        engine.FitnessEvaluator.evaluate_batch = real


# (workload, what is corrupted, how, whether only the digests can notice)
JOB_CORRUPTIONS = (
    ("mine-20k", "report fitness", lambda work: _nudge_report(work / "out"), False),
    ("oracle-20k", "oracle minimum", lambda work: _nudge_json(work / "out" / "oracle.json", "best_fitness"), False),
    ("oracle-20k", "manifest bytes", lambda work: _append(work / "out" / "manifest.json", "\n"), True),
)


def _synth_problems(root: Path, bad: Tally) -> list[str]:
    """A tiny synth probe passes its checks; a corrupted level and bytes do not."""
    members = Topology().member_count
    config = synth.SynthConfig(periods=PERIODS, products=SYNTH_PRODUCTS)
    synth.write_fixtures(config, SEED, root / "data")
    problems = check_synth(root / "data", PERIODS, SYNTH_PRODUCTS, members)
    clean = digests(root, ("data",))
    _append(root / "data" / "raw_material_lead_times.csv", "\n")
    bad.record(digest_problems(digests(root, ("data",)), clean))
    _set_level(root / "data" / "stock_history.csv", 5000)
    bad.record(check_synth(root / "data", PERIODS, SYNTH_PRODUCTS, members))
    return ["tiny synth probe: " + p for p in problems]


def self_test(root: Path) -> list[str]:
    """Problems found; an empty list means the self-test passed."""
    problems = []
    a, b, c = (motif_history(PERIODS, 5, 7, seed) for seed in (SEED, SEED, SEED + 1))
    if not all((x == y).all() for x, y in zip(a, b)):
        problems.append("generator gave different tables for one seed")
    if all(x.shape == y.shape and (x == y).all() for x, y in zip(a, c)):
        problems.append("generator ignored its seed")

    good, bad = Tally(), Tally()
    works = {}
    for name, w in WORKLOADS.items():
        w = w.shrunk(periods=PERIODS, max_iterations=3)
        work = works[name] = root / w.name
        shutil.rmtree(work, ignore_errors=True)
        prepare(w, SEED, work)
        good.record(run_job(job_argv(w, SEED, work)) or Checker(w, work, None)())
    for name, what, corrupt, by_digest in JOB_CORRUPTIONS:
        work = works[name]
        w = WORKLOADS[name].shrunk(periods=PERIODS, max_iterations=3)
        clean = digests(work, ("data", "out"))
        corrupt(work)
        found = Checker(w, work, clean if by_digest else None)()
        if not found:
            problems.append(f"corrupted {what} went unnoticed")
        bad.record(found)
        run_job(job_argv(w, SEED, work))  # restore the outputs
    w = WORKLOADS["mine-20k"].shrunk(periods=PERIODS, max_iterations=3)
    with _batch_without_matches():
        bad.record(Checker(w, works["mine-20k"], None)())
    argv = job_argv(w, SEED, works["mine-20k"])
    argv[argv.index("--history") + 1] = str(root / "missing.csv")
    bad.record(run_job(argv))
    problems += _synth_problems(root / "synth", bad)

    problems += ["tiny job failed: " + p for p in good.problems]
    if bad.failed != bad.attempted:
        problems.append(f"{bad.failed} of {bad.attempted} broken jobs counted as failed")
    return problems
