"""Spans around calls into stockswarm's layers, recorded from outside.

``Tracer.installed()`` replaces the public functions and methods listed in
``TARGETS`` with wrappers that record one span per call: name, layer, start,
end, parent span and job id.  Spans stay in memory until ``write`` is called
once at the end of a run.  The program's own files are not changed.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from stockswarm import cli, engine, history, oracle, synth

LAYERS = ("cli", "history", "engine", "oracle", "recommend", "synth")

# (owner, attribute, layer).  The cli entries are the names cli.py looks up
# at call time; the rest are module globals or methods that the layers or
# the per-layer probes call.
TARGETS = (
    (cli, "main", "cli"),
    (cli, "load_store", "history"),
    (cli, "run", "engine"),
    (cli, "oracle_minimum", "oracle"),
    (cli, "interpret", "recommend"),
    (cli, "render_report", "recommend"),
    (synth, "write_fixtures", "synth"),
    (synth, "generate", "synth"),
    (oracle, "enumerate_candidates", "oracle"),
    (history.HistoryStore, "__init__", "history"),
    (history.HistoryStore, "match_individual", "history"),
    (engine.FitnessEvaluator, "__init__", "engine"),
    (engine.FitnessEvaluator, "evaluate", "engine"),
    (engine.FitnessEvaluator, "evaluate_batch", "engine"),
)

NAME, LAYER, START, END, PARENT, JOB = range(6)


class Tracer:
    """In-memory spans, plus a copy of every position batch evaluated."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.batches: list[np.ndarray] = []
        self.job = 0
        self._open: list[int] = []

    def _wrap(self, name: str, layer: str, fn):
        clock, spans, open_ = time.perf_counter, self.spans, self._open

        def traced(*args, **kwargs):
            span = [name, layer, clock(), 0.0, open_[-1] if open_ else -1, self.job]
            open_.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                open_.pop()

        return traced

    @contextmanager
    def installed(self):
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in TARGETS]
        batches = self.batches
        evaluate_batch = engine.FitnessEvaluator.evaluate_batch

        def recording(evaluator, positions):
            batches.append(np.array(positions))
            return evaluate_batch(evaluator, positions)

        try:
            for (owner, attr, layer), (_, _, fn) in zip(TARGETS, saved):
                if fn is evaluate_batch:
                    fn = recording
                setattr(owner, attr, self._wrap(f"{layer}.{attr}", layer, fn))
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def durations(self, name: str) -> list[float]:
        return [s[END] - s[START] for s in self.spans if s[NAME] == name]

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per job, per layer: span time not covered by child spans."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        out: dict[int, dict[str, float]] = {}
        for s, covered in zip(self.spans, child):
            layers = out.setdefault(s[JOB], dict.fromkeys(LAYERS, 0.0))
            layers[s[LAYER]] += s[END] - s[START] - covered
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"fields": ["name", "layer", "start", "end", "parent", "job"], "spans": self.spans}
        path.write_text(json.dumps(payload), encoding="utf-8")
