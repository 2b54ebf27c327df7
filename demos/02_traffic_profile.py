"""From a raw call-detail printout to traffic parameters.

Parses six months of CDR rows, routes every call to a (destination, day)
class, and estimates what the cost engine needs: calls/month per class and
a duration distribution.

Run from the repository root:  python3 demos/02_traffic_profile.py
"""

from datetime import date
from pathlib import Path

from tariffopt import (
    PrefixTable,
    WorkdayCalendar,
    build_histogram,
    classify_calls,
    estimate_profile,
    fit_exponential,
    load_catalog,
    observation_months,
    parse_cdr,
)

DATA = Path(__file__).resolve().parents[1] / "data"

catalog = load_catalog((DATA / "mts_catalog.json").read_bytes())
prefixes = PrefixTable.from_csv((DATA / "prefixes.csv").read_bytes())

issues = []
records = parse_cdr((DATA / "sample_cdr.csv").read_bytes(), issues=issues)
print(f"parsed {len(records)} rows ({len(issues)} warnings)")

calls = classify_calls(records, prefixes, WorkdayCalendar())
months = observation_months(date.fromordinal(int(calls.date.min())),
                            date.fromordinal(int(calls.date.max())))
print(f"{len(calls)} outgoing calls over {months:.2f} months")
print()

# Duration sample: when the mean and the spread agree, a one-parameter
# exponential model describes the durations well.
fit = fit_exponential(calls.duration / 60)
print(f"duration mean {fit.sample_mean:.2f} min, rmsd {fit.sample_rmsd:.2f} min "
      f"-> exponential rate mu = {fit.model.mu:.2f} per minute")

hist = build_histogram(calls, truncation=12)
print("billed-minute shares:", " ".join(f"{m:.3f}" for m in hist.masses))
print()

# The same classified calls produce each plan's subgroup rates; every row
# totals the same calls/month no matter how a plan slices the traffic.
profile = estimate_profile(calls, catalog, months)
print(f"calls per month, split per plan (total {profile.total_rate:.1f}):")
for plan in catalog.plans:
    lam = profile.lambda_for(plan)
    parts = ", ".join(f"{name}: {rate:.1f}" for name, rate in zip(plan.subgroup_names(), lam))
    print(f"  plan {plan.id}: {parts}")
