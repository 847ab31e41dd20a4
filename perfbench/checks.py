"""Output checks, written independently of the program's own code paths.

A job fails when a command exits non-zero or raises, or when any check here
reports a problem.  The checks are:

* the reported best position's fitness, recomputed from the CSVs by a
  brute-force numpy matcher, agrees within ``REL_TOL``;
* the reported oracle minimum equals a grouped radius-0 minimum: one
  ``np.unique`` over the ``(PI, levels)`` rows plus ``w1 + log(w3 * t_raw)``
  for each product that has a vector matching no record;
* once per run, the program's ``evaluate`` and ``evaluate_batch`` agree with
  the brute-force fitness on positions that match recorded rows;
* synth output has the shape and value ranges synth promises;
* at ``DEFAULT_SEED`` every output file's sha256 equals the digest recorded
  in ``digests.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from stockswarm import engine
from stockswarm.config import build_pso_config, build_topology, parse_settings
from stockswarm.history import load_store

from workloads import (
    DATA_FILES,
    DEFAULT_SEED,
    LINK_DAYS,
    RAW_DAYS,
    RAW_MATERIALS,
    STOCK_BOUND,
    Workload,
    data_paths,
)

REL_TOL = 1e-12
KERNEL_POSITIONS = 64
PRIORITIES = (10.0, 5.0, 1.0)  # CLI defaults r1, r2, r3; no workload overrides them
DEFAULT_RADIUS = 100
DIGESTS_FILE = Path(__file__).resolve().parent / "digests.json"


def weights() -> tuple[float, float, float]:
    total = sum(PRIORITIES)
    return tuple(r / total for r in PRIORITIES)


def rounded(positions: np.ndarray) -> np.ndarray:
    """Round half away from zero to int64, as the fitness definition does."""
    return np.copysign(np.floor(np.abs(positions) + 0.5), positions).astype(np.int64)


def box_hits(rows: np.ndarray, queries: np.ndarray, radius: int, chunk: int = 32) -> np.ndarray:
    """(queries, rows) bool: every member within ``radius``, by brute force."""
    out = np.zeros((len(queries), len(rows)), dtype=bool)
    for start in range(0, len(queries), chunk):
        block = queries[start : start + chunk]
        out[start : start + chunk] = (np.abs(rows[None] - block[:, None]) <= radius).all(axis=2)
    return out


@dataclass(frozen=True)
class Tables:
    """The three CSV tables, parsed by numpy, with per-row lead-time sums."""

    history: np.ndarray  # TID, PI, F1..Fm
    lead: np.ndarray  # TID, T1..T(m-1)
    raw: np.ndarray  # PI, RM, T
    lead_sum: np.ndarray  # link days summed per history row
    raw_total: dict[int, int]

    @classmethod
    def read(cls, data: Path) -> "Tables":
        """Parse the three CSV files in the directory ``data``."""
        history, lead, raw = (
            np.loadtxt(data / name, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
            for name in DATA_FILES
        )
        order = np.argsort(lead[:, 0])
        at = order[np.searchsorted(lead[order, 0], history[:, 0])]
        if not np.array_equal(lead[at, 0], history[:, 0]):
            raise ValueError("a history TID has no stock-lead-time row")
        raw_total: dict[int, int] = {}
        for pid, _, days in raw.tolist():
            raw_total[pid] = raw_total.get(pid, 0) + days
        return cls(history, lead, raw, lead[at, 1:].sum(axis=1), raw_total)

    def rows_of(self, pid: int) -> np.ndarray:
        return self.history[:, 1] == pid

    def fitness(self, pid: int, levels, radius: int) -> float:
        """Brute-force fitness of one rounded individual."""
        w1, w2, w3 = weights()
        mine = self.rows_of(pid)
        hit = box_hits(self.history[mine, 2:], np.asarray([levels], dtype=np.int64), radius)[0]
        occ = int(hit.sum())
        t_stock = int(self.lead_sum[mine][hit].sum())
        return w1 * (1.0 - occ / len(self.history)) + math.log(w2 * t_stock + w3 * self.raw_total[pid])

    def oracle_minimum(self, product_ub: int) -> tuple[float, int]:
        """Grouped radius-0 minimum and the number of oracle candidates."""
        w1, w2, w3 = weights()
        keys, inverse, counts = np.unique(
            self.history[:, 1:], axis=0, return_inverse=True, return_counts=True
        )
        t_stock = np.bincount(inverse.ravel(), weights=self.lead_sum, minlength=len(keys))
        t_raw = np.array([self.raw_total[int(p)] for p in keys[:, 0]], dtype=np.float64)
        best = float((w1 * (1.0 - counts / len(self.history)) + np.log(w2 * t_stock + w3 * t_raw)).min())
        # At radius 0 a product has a vector matching nothing exactly when it
        # has no rows or some member leaves a stock value unused.
        span = 2 * STOCK_BOUND + 1
        empties = 0
        for pid in sorted(set(keys[:, 0].tolist()) | set(range(1, product_ub + 1))):
            levels = self.history[self.rows_of(pid), 2:]
            if len(levels) == 0 or any(len(np.unique(col)) < span for col in levels.T):
                empties += 1
                best = min(best, w1 + math.log(w3 * self.raw_total[pid]))
        return best, len(self.history) + empties


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL * abs(want)


def check_report(out: Path, tables: Tables, radius: int, iterations: int) -> list[str]:
    report = json.loads((out / "report.json").read_bytes())
    signs = {"increase": -1, "decrease": 1, "none": 0}
    levels = [signs[a["direction"]] * a["quantity"] for a in report["actions"]]
    want = tables.fitness(report["product_id"], levels, radius)
    problems = []
    if not _close(report["fitness"], want):
        problems.append(f"report fitness {report['fitness']!r}, brute force gives {want!r}")
    if report["weights"] != list(weights()) or report["iterations"] != iterations:
        problems.append("report weights or iterations differ from the settings")
    if f"fitness: {report['fitness']!r}\n" not in (out / "report.txt").read_text("utf-8"):
        problems.append("report.txt fitness differs from report.json")
    return problems


def check_oracle(out: Path, tables: Tables, product_ub: int) -> list[str]:
    got = json.loads((out / "oracle.json").read_bytes())
    want, candidates = tables.oracle_minimum(product_ub)
    pid, *levels = got["best_position"]
    problems = []
    if not _close(got["best_fitness"], want):
        problems.append(f"oracle minimum {got['best_fitness']!r}, grouped minimum is {want!r}")
    if not _close(tables.fitness(pid, levels, 0), want):
        problems.append("oracle best position does not score the oracle minimum")
    if got["evaluations"] != candidates:
        problems.append(f"oracle evaluated {got['evaluations']} candidates, expected {candidates}")
    return problems


def check_kernel(work: Path, tables: Tables, radius: int) -> list[str]:
    """The program's scalar and batch fitness against brute force.

    Each position is a recorded row moved by less than half a unit on the
    product id and less than ``radius + 0.5`` on every member, so it rounds
    to a vector that matches at least that row.
    """
    settings = parse_settings(work / "settings.cfg")
    topology = build_topology(settings)
    evaluator = engine.FitnessEvaluator(
        load_store(*data_paths(work), topology), build_pso_config(settings, seed=DEFAULT_SEED)
    )
    rng = np.random.default_rng(DEFAULT_SEED)
    picked = rng.choice(len(tables.history), min(KERNEL_POSITIONS, len(tables.history)), replace=False)
    rows = tables.history[picked, 1:]
    reach = np.full(rows.shape[1], radius + 0.49)
    reach[0] = 0.49
    positions = rows + rng.uniform(-reach, reach, size=rows.shape)
    want = [tables.fitness(int(p[0]), p[1:], radius) for p in rounded(positions)]
    got = {
        "evaluate_batch": evaluator.evaluate_batch(positions).tolist(),
        "evaluate": [evaluator.evaluate(p) for p in positions],
    }
    return [
        f"{path} gives {values[i]!r} at a matching position, brute force {expected!r}"
        for path, values in got.items()
        for i, expected in enumerate(want)
        if not _close(values[i], expected)
    ][:3]


def check_synth(data: Path, periods: int, products: int, members: int) -> list[str]:
    """Shape and value ranges of the three CSV files ``synth`` wrote to ``data``."""
    tables = Tables.read(data)
    history, lead, raw = tables.history, tables.lead, tables.raw
    tids = np.arange(1, periods + 1)
    ok = (
        history.shape == (periods, members + 2)
        and lead.shape == (periods, members)
        and np.array_equal(history[:, 0], tids)
        and np.array_equal(lead[:, 0], tids)
        and history[:, 1].min() >= 1
        and history[:, 1].max() <= products
        and np.abs(history[:, 2:]).max() <= STOCK_BOUND
        and lead[:, 1:].min() >= LINK_DAYS[0]
        and lead[:, 1:].max() <= LINK_DAYS[1]
        and raw[:, 2].min() >= RAW_DAYS[0]
        and raw[:, 2].max() <= RAW_DAYS[1]
    )
    for pid in range(1, products + 1):
        ids = raw[raw[:, 0] == pid, 1]
        ok = ok and RAW_MATERIALS[0] <= len(ids) <= RAW_MATERIALS[1]
        ok = ok and np.array_equal(ids, np.arange(1, len(ids) + 1))
    return [] if ok else ["synth tables break the synth contract"]


def digests(root: Path, subdirs: tuple[str, ...]) -> dict[str, str]:
    """sha256 of every file in the given subdirectories of ``root``."""
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for sub in subdirs
        for path in sorted((root / sub).iterdir())
    }


def digest_problems(found: dict[str, str], expected: dict[str, str] | None) -> list[str]:
    if expected is None:
        return []
    return [
        f"{name}: sha256 {found.get(name)} differs from the recorded {digest}"
        for name, digest in expected.items()
        if found.get(name) != digest
    ]


def recorded_digests(w: Workload, seed: int) -> dict[str, dict[str, str]]:
    """Digests of the job's and the synth probe's files; empty unless seed is DEFAULT_SEED."""
    if seed != DEFAULT_SEED:
        return {}
    return json.loads(DIGESTS_FILE.read_text("utf-8"))[w.name]


class Checker:
    """Checks each job's outputs; parses the input tables once per run.

    The program never writes to the input files, so later jobs reuse the
    first parse, and the fitness kernels are checked on the first job only.
    """

    def __init__(self, w: Workload, work: Path, expected: dict[str, str] | None) -> None:
        self.w = w
        self.work = work
        self.expected = expected
        self.radius = int(w.settings.get("match_radius", DEFAULT_RADIUS))
        self._tables: Tables | None = None

    def tables(self) -> Tables:
        if self._tables is None:
            self._tables = Tables.read(self.work / "data")
        return self._tables

    def __call__(self) -> list[str]:
        try:
            return self._check()
        except Exception as exc:  # any crash in a check marks the job failed
            return [f"check raised {type(exc).__name__}: {exc}"]

    def _check(self) -> list[str]:
        w, problems = self.w, []
        if self._tables is None:
            problems += check_kernel(self.work, self.tables(), self.radius)
        if w.command == "optimize":
            iterations = int(w.settings["max_iterations"])
            problems += check_report(self.work / "out", self.tables(), self.radius, iterations)
        else:
            problems += check_oracle(self.work / "out", self.tables(), w.products)
        return problems + digest_problems(digests(self.work, ("data", "out")), self.expected)
