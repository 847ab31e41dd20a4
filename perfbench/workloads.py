"""The benchmark's workloads and its seeded motif-history generator.

A workload is one ``stockswarm`` command run on generated files.
The program receives only those files, a settings file and a ``--seed``;
everything else about the inputs stays inside the benchmark.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0

# Motif histories: about MOTIF_SHARE of the periods repeat one of MOTIFS
# per-product patterns, half of them exactly and the rest within +-JITTER on
# every member.  JITTER stays below the default matching radius (100), so the
# inexact repeats still match their motif, and the exact repeats give the
# radius-0 oracle groups of more than one record.  Every other period is
# uniform noise over the stock bounds, which on its own would make every
# record unique.
MOTIFS = 8
MOTIF_SHARE = 0.4
EXACT_SHARE = 0.5
JITTER = 50
STOCK_BOUND = 1000
LINK_DAYS = (6, 48)
RAW_DAYS = (6, 35)
RAW_MATERIALS = (2, 5)

DATA_FILES = ("stock_history.csv", "stock_lead_times.csv", "raw_material_lead_times.csv")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its command, input shape and the reason for it."""

    name: str
    why: str
    command: str  # "optimize" or "oracle"; search_s times the same search
    settings: dict[str, str]  # settings-file assignments on top of the CLI defaults
    periods: int
    products: int
    members: int

    def shrunk(self, periods: int, max_iterations: int) -> "Workload":
        """The same workload at a tiny size, for the self-test."""
        settings = dict(self.settings)
        if self.command == "optimize":
            settings["max_iterations"] = str(max_iterations)
        return dataclasses.replace(
            self, name=f"tiny-{self.name}", periods=periods, settings=settings
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mine-20k",
            why=(
                "optimize at 400 iterations on a 20k-period motif history: "
                "evaluate_batch is most of the job, so a matching-kernel or "
                "PSO-step change must move it"
            ),
            command="optimize",
            settings={"max_iterations": "400"},
            periods=20_000,
            products=5,
            members=7,
        ),
        Workload(
            name="oracle-20k",
            why=(
                "radius-0 oracle on the same kind of history: the scalar "
                "evaluate/match_individual path, evaluate_batch never runs; "
                "only an oracle change should move it"
            ),
            command="oracle",
            settings={"match_radius": "0"},
            periods=20_000,
            products=5,
            members=7,
        ),
    )
}


def motif_history(
    periods: int, products: int, members: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """History, stock lead-time and raw-material tables as int64 arrays.

    Columns follow the CSV headers: ``TID,PI,F1..Fm``, ``TID,T1..T(m-1)`` and
    ``PI,RM,T``.  Every product id 1..products has raw-material rows.
    """
    rng = np.random.default_rng(seed)
    pids = rng.integers(1, products + 1, size=periods)
    noise = rng.integers(-STOCK_BOUND, STOCK_BOUND + 1, size=(periods, members))
    motifs = rng.integers(
        -(STOCK_BOUND - JITTER), STOCK_BOUND - JITTER + 1, size=(products, MOTIFS, members)
    )
    repeat = rng.random(periods) < MOTIF_SHARE
    exact = rng.random(periods) < EXACT_SHARE
    which = rng.integers(0, MOTIFS, size=periods)
    jitter = rng.integers(-JITTER, JITTER + 1, size=(periods, members))
    copies = motifs[pids - 1, which] + np.where(exact[:, None], 0, jitter)
    levels = np.where(repeat[:, None], copies, noise)
    tids = np.arange(1, periods + 1)
    links = rng.integers(LINK_DAYS[0], LINK_DAYS[1] + 1, size=(periods, members - 1))

    counts = rng.integers(RAW_MATERIALS[0], RAW_MATERIALS[1] + 1, size=products)
    raw_pids = np.repeat(np.arange(1, products + 1), counts)
    raw_ids = np.concatenate([np.arange(1, c + 1) for c in counts])
    raw_days = rng.integers(RAW_DAYS[0], RAW_DAYS[1] + 1, size=raw_pids.size)
    return (
        np.column_stack([tids, pids, levels]),
        np.column_stack([tids, links]),
        np.column_stack([raw_pids, raw_ids, raw_days]),
    )


def write_motif_history(w: Workload, seed: int, data: Path) -> None:
    """Write the three CSV tables of a motif history into ``data``."""
    data.mkdir(parents=True, exist_ok=True)
    tables = motif_history(w.periods, w.products, w.members, seed)
    headers = (
        ["TID", "PI"] + [f"F{i}" for i in range(1, w.members + 1)],
        ["TID"] + [f"T{i}" for i in range(1, w.members)],
        ["PI", "RM", "T"],
    )
    for name, table, header in zip(DATA_FILES, tables, headers):
        np.savetxt(data / name, table, fmt="%d", delimiter=",", header=",".join(header), comments="")


def prepare(w: Workload, seed: int, work: Path) -> None:
    """Write the settings file and the input tables."""
    work.mkdir(parents=True, exist_ok=True)
    text = "".join(f"{key} = {value}\n" for key, value in w.settings.items())
    (work / "settings.cfg").write_text(text, encoding="utf-8")
    write_motif_history(w, seed, work / "data")


def data_paths(work: Path) -> tuple[Path, Path, Path]:
    return tuple(work / "data" / name for name in DATA_FILES)


def job_argv(w: Workload, seed: int, work: Path) -> list[str]:
    """The CLI arguments of one job of ``w``."""
    history, stock_lead, raw_lead = (str(p) for p in data_paths(work))
    return [
        w.command, "--config", str(work / "settings.cfg"), "--seed", str(seed),
        "--history", history, "--stock-lead", stock_lead, "--raw-lead", raw_lead,
        "--out", str(work / "out"),
    ]
