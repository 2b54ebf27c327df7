"""Validate the analytic engine by brute force.

Generates 20,000 random months of traffic (Poisson call counts,
exponential durations), bills every call under every plan, and compares
sample means against the closed-form variable costs.
The percentiles show how much a real month can deviate from the mean.

Run from the repository root:  python3 demos/04_monte_carlo_check.py
"""

from pathlib import Path

from tariffopt import (
    Exponential,
    SimConfig,
    TrafficCell,
    TrafficProfile,
    full_costs,
    load_catalog,
    run,
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

config = SimConfig.from_profile(profile, seed=2026, runs=20_000)
result = run(config, catalog)
analytic = {b.plan_id: b.variable for b in full_costs(catalog, catalog.context, profile)}

print(f"{config.runs} simulated months, seed {config.seed}\n")
print(f"{'plan':<6}{'simulated':>11}{'analytic':>10}{'SE':>8}{'p5':>8}{'p50':>8}{'p95':>8}")
for p in result.plans:
    gap_se = abs(p.mean - analytic[p.plan_id]) / p.stderr if p.stderr else 0.0
    print(
        f"{p.plan_id:<6}{p.mean:>11.3f}{analytic[p.plan_id]:>10.3f}{p.stderr:>8.3f}"
        f"{p.percentiles[0]:>8.1f}{p.percentiles[1]:>8.1f}{p.percentiles[2]:>8.1f}"
        f"   ({gap_se:.1f} SE off)"
    )

print()
print("same seed, same numbers:", run(config, catalog) == result)
