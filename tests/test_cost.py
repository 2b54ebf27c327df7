"""Cost-engine tests.

The frozen expected values below are computed independently inside each
test, summing rate * mass over the discretized exponential by brute force,
so the closed-form engine is always checked against a second route.
"""

from __future__ import annotations

import math
from decimal import Decimal

import numpy as np
import pytest

from tariffopt import (
    BILLING_MODES,
    Catalog,
    Empirical,
    Exponential,
    PayoffFunction,
    RateSegment,
    SubscriberContext,
    expected_call_cost,
    fixed_cost,
    full_costs,
    rank,
    variable_cost,
)


MU = 0.41

#: Table-style reference values for the six-plan example (rubles)
PAPER_ONE_CALL = {
    (1, "To MTS Numbers"): 1.16,
    (1, "To Other Numbers"): 1.63,
    (3, "To All Numbers"): 3.13,
    (4, "To Mobiles"): 2.18,
    (4, "To Landlines"): 4.16,
    (6, "On Work Days"): 2.97,
    (6, "On Weekends"): 0.99,
}
PAPER_FULL = {1: 143.0, 2: 315.0, 3: 212.0, 4: 353.0, 5: 2750.0, 6: 104.0}


def flat(rate):
    return PayoffFunction((RateSegment(1, None, Decimal(str(rate))),))


def brute_expected(payoff, mu, horizon=4000, mode="lookup"):
    """Independent oracle: direct sum of rate(t) * mass(t) over minutes, or
    of the charge for minutes 1..t in cumulative mode."""
    total = charge = 0.0
    for t in range(1, horizon + 1):
        mass = math.exp(-mu * (t - 1)) - math.exp(-mu * t)
        charge += payoff.rate_at(t)
        total += (payoff.rate_at(t) if mode == "lookup" else charge) * mass
    return total


def test_flat_rate_expectation_is_the_rate():
    assert expected_call_cost(flat(3.0), Exponential(mu=MU)) == pytest.approx(3.0, abs=1e-12)


def test_one_call_cost_bp1_to_mts(mts_catalog):
    payoff = mts_catalog.plan(1).subgroups[0][1]
    value = expected_call_cost(payoff, Exponential(mu=MU))
    assert value == pytest.approx(brute_expected(payoff, MU), abs=1e-9)
    assert value == pytest.approx(1.1627, abs=1e-4)
    assert value == pytest.approx(1.16, rel=0.05)


def test_one_call_cost_bp1_to_other(mts_catalog):
    payoff = mts_catalog.plan(1).subgroups[1][1]
    value = expected_call_cost(payoff, Exponential(mu=MU))
    assert value == pytest.approx(brute_expected(payoff, MU), abs=1e-9)
    assert value == pytest.approx(1.6278, abs=1e-4)


def test_one_call_cost_matches_brute_force_for_all_plans(mts_catalog):
    model = Exponential(mu=MU)
    for mode in BILLING_MODES:
        for plan in mts_catalog.plans:
            for _, payoff in plan.subgroups:
                assert expected_call_cost(payoff, model, mode) == pytest.approx(
                    brute_expected(payoff, MU, mode=mode), abs=1e-9
                )


def test_empirical_agrees_with_closed_form(mts_catalog):
    model = Exponential(mu=MU, truncation=240)  # tail mass ~ 1e-43
    empirical = Empirical(tuple(model.mass_array()))
    for mode in BILLING_MODES:
        for plan in mts_catalog.plans:
            for _, payoff in plan.subgroups:
                if any(not s.is_open and s.to_minute > 240 for s in payoff.segments):
                    continue  # plan 5 prices only past the truncation horizon
                assert expected_call_cost(payoff, empirical, mode) == pytest.approx(
                    expected_call_cost(payoff, model, mode), abs=1e-9
                )


def test_cumulative_mode_matches_brute_force(mts_catalog):
    payoff = mts_catalog.plan(3).subgroups[0][1]
    mu = MU
    brute = 0.0
    for t in range(1, 4000):
        mass = math.exp(-mu * (t - 1)) - math.exp(-mu * t)
        brute += float(payoff.cumulative(np.array([t]))[0]) * mass
    assert expected_call_cost(payoff, Exponential(mu=mu), mode="cumulative") == pytest.approx(
        brute, abs=1e-6
    )


def test_constant_payoff_identity_with_truncated_masses():
    model = Empirical((0.4, 0.3, 0.1))  # total mass 0.8
    assert expected_call_cost(flat(2.5), model) == pytest.approx(2.5 * 0.8, abs=1e-12)


def test_variable_cost_bp1(mts_catalog, reference_profile):
    total, subgroups = variable_cost(mts_catalog.plan(1), reference_profile)
    s12 = 2.5 * (1 - math.exp(-MU)) + 2.5 * math.exp(-5 * MU)
    s13 = 3.5 * (1 - math.exp(-MU)) + 3.5 * math.exp(-5 * MU)
    assert total == pytest.approx(23 * s12 + 16 * s13, abs=1e-9)
    assert total == pytest.approx(52.787, abs=1e-3)
    assert [s.calls_per_month for s in subgroups] == [23.0, 16.0]
    assert subgroups[0].one_call_cost == pytest.approx(s12, abs=1e-12)


def test_variable_cost_bp2_is_negligible(mts_catalog, reference_profile):
    total, _ = variable_cost(mts_catalog.plan(2), reference_profile)
    assert total < 1e-20


def test_variable_cost_zero_traffic(mts_catalog, reference_profile):
    silent = reference_profile.scaled(1e-300)  # rates effectively zero
    total, _ = variable_cost(mts_catalog.plan(6), silent)
    assert total == pytest.approx(0.0, abs=1e-290)


def test_fixed_cost_switch_with_owned_sim(mts_catalog):
    ctx = mts_catalog.context
    assert fixed_cost(mts_catalog.plan(2), ctx, mts_catalog) == 315.0
    assert fixed_cost(mts_catalog.plan(6), ctx, mts_catalog) == 0.0
    assert fixed_cost(mts_catalog.plan(5), ctx, mts_catalog) == 2750.0


def test_fixed_cost_unowned_provider_pays_purchase(mts_catalog):
    ctx = SubscriberContext(current_plan_id=6, owned_sim_providers=frozenset())
    assert fixed_cost(mts_catalog.plan(1), ctx, mts_catalog) == 90.0 + 195.0


def test_full_costs_reproduce_reference_table(mts_catalog, reference_profile):
    breakdowns = full_costs(mts_catalog, mts_catalog.context, reference_profile)
    fulls = {b.plan_id: b.full for b in breakdowns}
    for plan_id, expected in PAPER_FULL.items():
        assert fulls[plan_id] == pytest.approx(expected, rel=0.05)
    one_call = {
        (b.plan_id, s.name): s.one_call_cost for b in breakdowns for s in b.subgroups
    }
    for key, expected in PAPER_ONE_CALL.items():
        assert one_call[key] == pytest.approx(expected, rel=0.05)


def test_full_cost_decomposition(mts_catalog, reference_profile):
    for b in full_costs(mts_catalog, mts_catalog.context, reference_profile):
        assert b.full == pytest.approx(b.fixed + sum(s.monthly_cost for s in b.subgroups), abs=1e-9)
        assert b.variable >= 0 and b.fixed >= 0


def test_inactive_non_current_plan_excluded(mts_catalog, reference_profile):
    ctx = SubscriberContext(current_plan_id=1, owned_sim_providers=frozenset({"MTS"}))
    moved = Catalog(plans=mts_catalog.plans, context=ctx)
    breakdowns = full_costs(moved, ctx, reference_profile)
    assert [b.plan_id for b in breakdowns] == [1, 2, 3, 4, 5]
    # switch fees now apply relative to plan 1
    by_id = {b.plan_id: b for b in breakdowns}
    assert by_id[1].fixed == 0.0
    assert by_id[2].fixed == 315.0


def test_rank_reference_order(mts_catalog, reference_profile):
    breakdowns = full_costs(mts_catalog, mts_catalog.context, reference_profile)
    ranking = rank(breakdowns)
    assert ranking.order == (6, 1, 3, 2, 4, 5)
    assert ranking.optimal_id == 6


def test_rank_tie_prefers_current(mts_catalog, reference_profile):
    from tariffopt import CostBreakdown

    a = CostBreakdown(1, "a", False, (), variable=10.0, fixed=0.0)
    b = CostBreakdown(2, "b", True, (), variable=10.0, fixed=0.0)
    assert rank([a, b]).optimal_id == 2
    assert rank([a, b]).order == (2, 1)


def test_rank_by_cost_then_id():
    from tariffopt import CostBreakdown

    rows = [
        CostBreakdown(1, "x", False, (), variable=10.0, fixed=0.0),
        CostBreakdown(2, "y", False, (), variable=5.0, fixed=0.0),
        CostBreakdown(3, "z", False, (), variable=7.0, fixed=0.0),
    ]
    assert rank(rows).order == (2, 3, 1)


def test_rank_empty_rejected():
    with pytest.raises(ValueError):
        rank([])


def test_linearity_of_rates(mts_catalog, reference_profile):
    """Scaling every rate by c scales one-call and variable costs by c."""
    import json

    from tariffopt import load_catalog, serialize_catalog

    doc = json.loads(serialize_catalog(mts_catalog))
    for plan in doc["plans"]:
        for sub in plan["subgroups"]:
            for seg in sub["segments"]:
                seg["rate"] = str(Decimal(seg["rate"]) * 3)
    scaled = load_catalog(json.dumps(doc))
    for before, after in zip(
        full_costs(mts_catalog, mts_catalog.context, reference_profile),
        full_costs(scaled, scaled.context, reference_profile),
    ):
        assert after.variable == pytest.approx(3 * before.variable, rel=1e-12)


def test_argmin_invariant_under_constant_fixed_shift(mts_catalog, reference_profile):
    from tariffopt import CostBreakdown

    breakdowns = full_costs(mts_catalog, mts_catalog.context, reference_profile)
    shifted = [
        CostBreakdown(
            b.plan_id, b.plan_name, b.is_current, b.subgroups, b.variable, b.fixed + 500.0
        )
        for b in breakdowns
    ]
    assert rank(shifted).order == rank(breakdowns).order


def test_monotonicity_raising_a_rate_never_lowers_cost(mts_catalog, reference_profile):
    import json

    from tariffopt import load_catalog, serialize_catalog

    doc = json.loads(serialize_catalog(mts_catalog))
    doc["plans"][0]["subgroups"][0]["segments"][1]["rate"] = "1.5"  # was 0
    raised = load_catalog(json.dumps(doc))
    before = variable_cost(mts_catalog.plan(1), reference_profile)[0]
    after = variable_cost(raised.plan(1), reference_profile)[0]
    assert after >= before

