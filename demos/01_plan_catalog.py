"""Walk through the plan catalog: price schedules, routing rules, fixed fees.

Run from the repository root:  python3 demos/01_plan_catalog.py
"""

from pathlib import Path

from tariffopt import load_catalog, serialize_catalog

DATA = Path(__file__).resolve().parents[1] / "data"

catalog = load_catalog((DATA / "mts_catalog.json").read_bytes())

print(f"{len(catalog.plans)} plans from {catalog.plans[0].provider}; "
      f"current plan: {catalog.current_plan.name!r}")
print()

# Each subgroup owns a piecewise-constant price schedule over call minutes.
# Sampling a few minutes shows the free bands some plans carve out.
for plan in catalog.plans:
    status = "" if plan.active else "  [not offered for sale]"
    print(f"plan {plan.id}: {plan.name}{status}")
    for rule, payoff in plan.subgroups:
        samples = ", ".join(
            f"min {m}: {payoff.rate_at(m):g}" for m in (1, 3, 6, 31, 151)
        )
        print(f"  {rule.subgroup_name:<18} ({rule.destination_class}/{rule.day_class})  {samples}")
    fees = plan.fixed
    print(f"  fees: subscription {fees.subscription_fee}, switch {fees.switch_fee}, "
          f"purchase {fees.purchase_cost}")
    print()

# The catalog is a JSON document; loading its own serialization is lossless.
again = load_catalog(serialize_catalog(catalog))
print("serialize/reload round-trip equal:", again == catalog)

# Who can we switch to? Active plans plus the one we already hold.
candidates = [p.id for p in catalog.switch_candidates()]
print("switch candidates:", candidates)
