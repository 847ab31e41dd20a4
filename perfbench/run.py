"""stockswarm benchmark: two workloads, end-to-end and per-layer metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload mine-20k --seed 0 --seconds 50 --trace 0

The benchmark imports the program from ``src/`` next to this directory; it
exits non-zero, printing no result, when that is missing.  Inputs are made
from ``--seed``, in a scratch directory under ``.bench_work/`` that is
removed afterwards.  Every run starts with a tiny self-test of the
benchmark's own generator and checks (``selftest.py``).

``--trace 0`` times whole jobs with tracing off.  After one warm-up job,
rounds of (one job, then set-ups and searches, each repeated for at least a
second) repeat for ``--seconds`` and at least three times; each metric is
the median of its samples:

* ``job_s``: the workload's CLI command, in-process through ``cli.main``;
* ``setup_s``: ``load_store`` plus ``FitnessEvaluator`` on the job's inputs,
  scaled to a fixed speed of the host by a reference timed around each
  sample (``bench.Reference``); the plain wall time is printed beside it;
* ``search_s``: ``engine.run`` or ``oracle.oracle_minimum`` on a loaded store;
* ``peak_rss_mb``: peak RSS of a fresh process that runs one job only.

``--trace 1`` runs one warm-up job and the per-layer probes of ``layers.py``,
then pairs of (untraced job, traced job) for the rest of ``--seconds``.  Traced jobs give
each layer's self time and the tracing overhead; their spans are written to
``.bench_work/spans-<workload>-s<seed>.json``.

Every job's outputs are checked (``checks.py``); a failed check, a non-zero
exit or an exception fails the job.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    try:
        import stockswarm
    except ImportError as exc:
        sys.exit(f"error: cannot import stockswarm from {SRC}: {exc}")
    if Path(stockswarm.__file__).resolve().parent.parent != SRC:
        sys.exit(f"error: imported stockswarm from {stockswarm.__file__}, not from {SRC}")

    import bench  # imports the program, so only after the check above

    return bench.main(args)


if __name__ == "__main__":
    sys.exit(main())
