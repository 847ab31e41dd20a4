"""Running ``stockswarm`` commands in-process and counting failed jobs."""

from __future__ import annotations

import gc
import io
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

from stockswarm import cli


def run_cli(argv: list[str]) -> tuple[int | None, str]:
    """Run one command through ``cli.main`` with stdout and stderr captured.

    Returns the exit code, or None when the command raised, and the captured
    stderr.  ``cli`` writes reports to ``sys.stdout.buffer``, so stdout is a
    text wrapper over a bytes buffer.
    """
    saved = sys.stdout, sys.stderr
    sys.stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    sys.stderr = io.StringIO()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crashing command is a failed job
        sys.stderr.write(f"{type(exc).__name__}: {exc}")
        code = None
    finally:
        err = sys.stderr.getvalue()
        sys.stdout, sys.stderr = saved
    return code, err


def run_job(argv: list[str]) -> list[str]:
    """Run one command; returns its problems, empty when it exited with 0."""
    code, err = run_cli(argv)
    return [] if code == 0 else [f"stockswarm {argv[0]} exited with {code}: {err.strip()}"]


@dataclass
class Tally:
    """Jobs attempted and failed, with the first problems seen."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems[: max(0, 10 - len(self.problems))]


def timed_job(argv: list[str], check: Callable[[], list[str]], tally: Tally) -> float:
    """Wall time of one job; its outputs are checked afterwards."""
    gc.collect()
    start = time.perf_counter()
    problems = run_job(argv)
    seconds = time.perf_counter() - start
    tally.record(problems or check())
    return seconds
