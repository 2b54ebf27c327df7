"""How long does the chosen plan stay optimal as traffic grows?

Scales the whole traffic volume by k (subgroup proportions fixed). Every plan
is priced once; its cost at k is the line fixed + k * variable. The sweep
picks the best plan at every k, the switch points are read off the lower
envelope of those lines, and polynomial models are fitted to the
with-switching cost curve. The optimal curve is the pointwise minimum of
affine plan costs, so it is concave and kinks exactly where the best plan
changes.

Run from the repository root:  python3 demos/05_growth_sensitivity.py
"""

import csv
from pathlib import Path

from tariffopt import (
    Exponential,
    TrafficCell,
    TrafficProfile,
    fit_report,
    k_grid,
    load_catalog,
    sweep,
    switch_points,
)

DATA = Path(__file__).resolve().parents[1] / "data"

catalog = load_catalog((DATA / "mts_catalog.json").read_bytes())
model = Exponential(mu=0.41)
profile = TrafficProfile(
    cells=(
        TrafficCell("same-network", "workday", 19, model),
        TrafficCell("same-network", "weekend", 4, model),
        TrafficCell("other-mobile", "workday", 6, model),
        TrafficCell("other-mobile", "weekend", 1, model),
        TrafficCell("landline", "workday", 8, model),
        TrafficCell("landline", "weekend", 1, model),
    ),
    observation_months=6.0,
)

# one row per plan, one column per k: costs[i, j] = fixed[i] + ks[j] * variable[i]
swept = sweep(catalog, catalog.context, profile, k_grid(0.5, 10.0, 0.5))
# per k: k, the optimum, its cost, the stay-put cost, then every plan by id
plan_ids, rows = swept.table()

print(f"{'k':>5}{'best':>6}{'best cost':>11}{'stay cost':>11}")
for k, best, best_cost, stay_cost, *_ in rows[::2]:
    print(f"{k:>5.1f}{best:>6}{best_cost:>11.2f}{stay_cost:>11.2f}")
print()

for iv in switch_points(swept):
    print(f"plan {iv.plan_id} is optimal for k in [{iv.k_start:.3f}, {iv.k_end:.3f}]")
print()

# Regression models of cost vs growth: each added term earns its keep in the
# determination coefficient, because the target is piecewise affine, not a
# single line.
fits = fit_report(swept)
for name, fit in fits.items():
    coefs = ", ".join(f"{c:.3f}" for c in fit.coefficients)
    print(f"{name:<24} coefficients ({coefs})  R^2 = {fit.r_squared:.4f}")

# plottable table: the rows above, every k
out = Path(__file__).resolve().parent / "sweep.csv"
with out.open("w", newline="") as fh:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["k", "optimal_plan", "optimal_cost", "stay_cost"] + [f"plan_{pid}" for pid in plan_ids])
    writer.writerows(rows)
# the path relative to the checkout, so that the output is the same from any copy
print(f"\nplottable sweep written to {out.relative_to(DATA.parent).as_posix()}")
