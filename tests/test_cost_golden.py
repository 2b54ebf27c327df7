"""Every float that `full_costs` and `sweep` return, pinned bit for bit.

The catalog is the bundled six plans plus three more with shared and
distinct breakpoints; the profile mixes exponential and empirical cells
(truncated below and above the breakpoints) with a cell that sees no
traffic. Both billing modes are priced under the catalog's own context and
under another one whose current plan is inactive. Floats are written with
``repr``, so a change in the last bit shows as a diff.

After a deliberate change of the numbers, regenerate the file from the
repository root with:  PYTHONPATH=src python tests/test_cost_golden.py
"""

from __future__ import annotations

import difflib
import json
from pathlib import Path

import pytest

from tariffopt import (
    BILLING_MODES,
    Empirical,
    Exponential,
    SubscriberContext,
    TrafficCell,
    TrafficProfile,
    full_costs,
    k_grid,
    load_catalog,
    sweep,
)

from conftest import CATALOG_PATH

GOLDEN = Path(__file__).resolve().parent / "golden" / "pricing.json"


def _plan(pid, provider, active, fees, subgroups):
    return {
        "id": pid,
        "name": f"Extra {pid}",
        "provider": provider,
        "active": active,
        "fixed": dict(zip(("subscription_fee", "switch_fee", "purchase_cost"), fees)),
        "subgroups": [
            {
                "name": name,
                "destination_class": dest,
                "day_class": day,
                "segments": [{"from": a, "to": b, "rate": r} for a, b, r in segments],
            }
            for name, dest, day, segments in subgroups
        ],
    }


def golden_catalog():
    doc = json.loads(CATALOG_PATH.read_text(encoding="utf-8"))
    doc["plans"] += [
        _plan(7, "Beeline", False, ("35", "60", "120"), [
            ("Landlines", "landline", "any", [(1, 1, "4"), (2, "open", "1.5")]),
            ("Weekends", "any", "weekend", [(1, "open", "0.7")]),
            ("Other", "any", "any", [(1, 3, "1.1"), (4, 12, "0.6"), (13, "open", "0.9")]),
        ]),
        _plan(8, "MegaFon", True, ("80", "45", "150"), [
            ("All Calls", "any", "any", [(1, 5, "2.05"), (6, 40, "0.35"), (41, "open", "1.95")]),
        ]),
        _plan(9, "Tele2", True, ("0", "30", "99.5"), [
            ("Work Days", "any", "workday", [(1, 2, "0"), (3, "open", "1.25")]),
            ("Weekends", "any", "weekend", [(1, "open", "0.45")]),
        ]),
    ]
    return load_catalog(json.dumps(doc))


def _masses(n, total):
    weights = [(t * 37 % 11 + 1) / (t + 2) for t in range(n)]
    return Empirical(tuple(w / sum(weights) * total for w in weights))


def golden_profile():
    models = {
        ("same-network", "workday"): (19.0, Exponential(mu=0.41)),
        ("same-network", "weekend"): (4.0, _masses(10, 1.0)),  # ends below 12, 30, 40
        ("other-mobile", "workday"): (6.0, _masses(60, 0.9995)),  # ends between 40 and 150
        ("other-mobile", "weekend"): (0.0, None),
        ("landline", "workday"): (8.0, Exponential(mu=0.23)),
        ("landline", "weekend"): (1.5, _masses(3, 0.75)),  # ends below 5
    }
    return TrafficProfile(
        cells=tuple(TrafficCell(dest, day, rate, model) for (dest, day), (rate, model) in models.items()),
        observation_months=3.0,
    )


CONTEXTS = {
    "catalog": None,
    "inactive-current": SubscriberContext(7, frozenset({"Beeline", "Tele2"})),
}


def priced() -> dict:
    catalog, profile = golden_catalog(), golden_profile()
    grid = k_grid(0.5, 10.0, 0.5)
    doc = {}
    for mode in BILLING_MODES:
        for name, context in CONTEXTS.items():
            context = context or catalog.context
            doc[f"{mode}/{name}"] = {
                "full_costs": [
                    {**vars(b), "subgroups": [dict(vars(s)) for s in b.subgroups]}
                    for b in full_costs(catalog, context, profile, mode)
                ],
                "sweep": sweep_doc(sweep(catalog, context, profile, grid, mode)),
            }
    return doc


def sweep_doc(swept) -> list[dict]:
    """One entry per multiplier: the optimum, the stay cost and every plan's
    cost, by plan id."""
    ids = swept.plan_ids
    return [
        {
            "k": k,
            "optimal_plan_id": ids[best],
            "optimal_full_cost": best_cost,
            "stay_cost": stay_cost,
            "plan_costs": sorted(zip(ids, at_k)),
            "current_plan_id": ids[swept.stay],
        }
        for k, best, best_cost, stay_cost, at_k in zip(
            swept.ks.tolist(),
            swept.optimal.tolist(),
            swept.optimal_costs.tolist(),
            swept.costs[swept.stay].tolist(),
            swept.costs.T.tolist(),
        )
    ]


def render() -> str:
    return json.dumps(priced(), indent=1) + "\n"


def test_pricing_matches_golden():
    expected = GOLDEN.read_text(encoding="utf-8")
    out = render()
    if out != expected:
        diff = difflib.unified_diff(
            expected.splitlines(keepends=True), out.splitlines(keepends=True),
            fromfile=str(GOLDEN), tofile="priced",
        )
        pytest.fail("pricing differs from the golden file:\n" + "".join(diff), pytrace=False)


if __name__ == "__main__":
    GOLDEN.write_text(render(), encoding="utf-8", newline="")
