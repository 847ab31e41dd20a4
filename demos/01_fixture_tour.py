"""Tour of the bundled historical tables and the box-matching query.

The package ships a small reference data set: 20 periods of stock history
for 5 products across a 7-member chain (factory, 2 distribution centres,
4 agents), plus per-period link transport days and per-product raw-material
days.  This script loads it and walks through the queries the fitness
function is built from.
"""

import stockswarm as ss

history_path, stock_lead_path, raw_lead_path = ss.fixture_paths()
topology = ss.Topology()
store = ss.load_store(history_path, stock_lead_path, raw_lead_path, topology)

print("loaded:", history_path.name, stock_lead_path.name, raw_lead_path.name)
print(f"{store.total_periods} periods, products {store.products}, "
      f"{topology.member_count} chain members")

# Each history row is one period's signed stock snapshot for one product:
# negative = shortage, positive = excess.
first = store.records[0]
print(f"\nTID {first.tid}: product {first.product_id}, levels {first.levels}")

# Matching asks: in how many recorded periods did this product show a
# pattern within `radius` units of the query on every member?
query = list(first.levels)
for radius in (0, 50, 400):
    result = store.match_individual(first.product_id, query, radius)
    print(f"radius {radius:>3}: {result.occurrences} period(s) matched, TIDs {result.tids}")

# The two lead-time aggregates behind the fitness formula.
matched = store.match_individual(first.product_id, query, 0)
print(f"\nstock lead time over matched TIDs: {store.stock_lead_time_total(matched.tids)} days")
print(f"raw-material lead time of product {first.product_id}: "
      f"{store.raw_lead_time_total(first.product_id)} days")

# Product 3 appears in 7 of the 20 periods; its occurrence ratio is the
# frequency term the fitness weighs with w1.
count = sum(1 for r in store.records if r.product_id == 3)
print(f"\nproduct 3 occurs in {count}/{store.total_periods} periods "
      f"(ratio {count / store.total_periods})")
