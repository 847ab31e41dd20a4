"""Run the engine on synthetic data, then plant a pattern and mine it.

Part 1 mines a 2000-period uniform-noise history.  Uniform noise has no
recurring structure, so the engine correctly settles on a never-before-seen
pattern for the cheapest raw-material product.  (``perfbench/run.py``
measures throughput.)

Part 2 builds a history with a deliberately planted recurring shortage
pattern and shows a multi-start swarm digging it back out.
"""

import tempfile
from pathlib import Path

import numpy as np

import stockswarm as ss

# --- part 1: a big noise history ---------------------------------------------

topology = ss.Topology(dc_count=3, agents_per_dc=(2, 3, 2))
synth_config = ss.SynthConfig(periods=2000, products=8, topology=topology)

with tempfile.TemporaryDirectory() as tmp:
    paths = ss.write_fixtures(synth_config, seed=99, out_dir=Path(tmp))
    store = ss.load_store(*paths.values(), topology)
    print(f"synthesized {store.total_periods} periods, "
          f"{len(store.products)} products, "
          f"{topology.member_count}-member chain")

    config = ss.PsoConfig(
        swarm_size=40,
        max_iterations=150,
        match_radius=100,
        bounds=ss.Bounds(product_lb=1, product_ub=8),
        seed=3,
    )
    result = ss.run(store, topology, config)
    print(f"{result.iterations_run} iterations")
    rounded = ss.round_half_away_from_zero(result.best_position)
    occ, _ = store.match_counts(int(rounded[0]), rounded[None, 1:], config.match_radius)
    print(f"best fitness {result.best_fitness:.6f}, pattern recurs in "
          f"{occ[0]} periods (uniform noise: expected 0)")

# --- part 2: plant a recurring pattern and recover it -----------------------

# A 7-member chain over 40 periods.  Every third period, product 2 repeats
# the same shortage/excess profile give or take 10 units; the rest is noise.
# Zero link times keep the lead-time term flat so the occurrence term alone
# shapes the landscape.
chain = ss.Topology()
members = chain.member_count
periods = 40
planted = np.array([-350, 620, -80, 140, -500, 90, 260])

rng = np.random.default_rng(2024)
history_rows = []
planted_tids = []
for tid in range(1, periods + 1):
    if tid % 3 == 0:
        levels = planted + rng.integers(-10, 11, size=members)
        product = 2
        planted_tids.append(tid)
    else:
        levels = rng.integers(-1000, 1001, size=members)
        product = int(rng.integers(1, 6))
    history_rows.append((tid, product, tuple(int(v) for v in levels)))
lead_rows = [(tid, (0,) * (members - 1)) for tid in range(1, periods + 1)]
raw_rows = [(product, 1, 10) for product in range(1, 6)]

mined = ss.HistoryStore.from_records(chain, history_rows, lead_rows, raw_rows)
print(f"\nplanted the same product-2 pattern in {len(planted_tids)} of "
      f"{periods} periods")

# Multi-start: each seed is one independent, reproducible swarm.  Single
# runs can stall on a lone match, so take the best of eight.
best = min(
    (ss.run(mined, chain, ss.PsoConfig(
        swarm_size=40, max_iterations=150, match_radius=300, seed=seed,
    )) for seed in range(8)),
    key=lambda r: r.best_fitness,
)
rounded = ss.round_half_away_from_zero(best.best_position)
found, _ = mined.match_counts(int(rounded[0]), rounded[None, 1:], 300)
print(f"best of 8 seeds: fitness {best.best_fitness:.4f}, product "
      f"{int(rounded[0])}, pattern found in {found[0]} periods")
assert found[0] == len(planted_tids)

# Any profile within the matching radius of every planted row scores the
# same, so the recovered levels land inside that tolerance band rather than
# on the planted values exactly.
print("\nrecovered profile vs planted profile (tolerance 300):")
for label, mined_level, true_level in zip(
    ss.member_labels(chain), rounded[1:], planted
):
    print(f"  {label:>22}: {mined_level:>5} (planted {true_level})")
