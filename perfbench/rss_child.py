"""Run one workload's job in a fresh process and report its peak RSS.

Usage: python3 rss_child.py SRC_DIR ARGV_JSON

Prints one JSON object: the problems of the job (empty on success) and the
process's peak resident set size in MiB.
"""

import json
import resource
import sys

sys.path.insert(0, sys.argv[1])

from jobs import run_job  # noqa: E402  (needs the program on sys.path)

problems = run_job(json.loads(sys.argv[2]))
peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
print(json.dumps({"problems": problems, "peak_rss_mb": peak_kib / 1024}))
