"""Tour of the bundled historical tables and the box-matching query.

The package ships a small reference data set: 20 periods of stock history
for 5 products across a 7-member chain (factory, 2 distribution centres,
4 agents), plus per-period link transport days and per-product raw-material
days.  This script loads it and walks through the queries the fitness
function is built from.
"""

import numpy as np

import stockswarm as ss

history_path, stock_lead_path, raw_lead_path = ss.fixture_paths()
topology = ss.Topology()
store = ss.load_store(history_path, stock_lead_path, raw_lead_path, topology)

print("loaded:", history_path.name, stock_lead_path.name, raw_lead_path.name)
print(f"{store.total_periods} periods, products {store.products}, "
      f"{topology.member_count} chain members")

# Each history row is one period's signed stock snapshot for one product:
# negative = shortage, positive = excess.
tid, product, *levels = store.history[0].tolist()
print(f"\nTID {tid}: product {product}, levels {tuple(levels)}")

# Matching asks: in how many recorded periods did this product show a
# pattern within `radius` units of the query on every member?  match_counts
# answers that count, P(occ), and t_stock, the summed link days of those
# periods, for a matrix of queries at once, as the fitness does.
for radius in (0, 50, 400):
    occ, t_stock = store.match_counts(product, np.array([levels]), radius)
    print(f"radius {radius:>3}: {occ[0]} period(s) matched, "
          f"stock lead time {t_stock[0]} days")

# The other lead-time aggregate behind the fitness formula.
print(f"\nraw-material lead time of product {product}: "
      f"{store.raw_lead_time_total(product)} days")

# Product 3 appears in 7 of the 20 periods; its occurrence ratio is the
# frequency term the fitness weighs with w1.
count = int((store.history[:, 1] == 3).sum())
print(f"\nproduct 3 occurs in {count}/{store.total_periods} periods "
      f"(ratio {count / store.total_periods})")
