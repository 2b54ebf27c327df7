"""Cost-engine tests.

The frozen expected values below are computed independently inside each
test, summing rate * mass over the discretized exponential by brute force,
so the closed-form engine is always checked against a second route.
"""

from __future__ import annotations

import itertools
import math
from decimal import Decimal

import numpy as np
import pytest

from tariffopt import (
    BILLING_MODES,
    Catalog,
    CatalogError,
    CostBreakdown,
    Empirical,
    Exponential,
    PayoffFunction,
    RateSegment,
    SubscriberContext,
    TrafficCell,
    TrafficProfile,
    expected_call_cost,
    full_costs,
    k_grid,
    load_catalog,
    rank,
    sweep,
)
from tariffopt import cost
from tariffopt.catalog import ALL_CALL_CLASSES
from tariffopt.cost import CUMULATIVE, LOOKUP

from conftest import CATALOG_PATH, charges, make_reference_profile


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


def exponential_masses(mu: float, truncation: int) -> np.ndarray:
    """Masses of minutes 1..truncation of the discretized Exp(mu)."""
    edges = np.exp(-mu * np.arange(truncation + 1))
    return edges[:-1] - edges[1:]


def test_empirical_agrees_with_closed_form(mts_catalog):
    model = Exponential(mu=MU)
    empirical = Empirical(tuple(exponential_masses(MU, 240)))  # tail mass ~ 1e-43
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
        brute += float(charges(payoff, np.array([t]), "cumulative")[0]) * mass
    assert expected_call_cost(payoff, Exponential(mu=mu), mode="cumulative") == pytest.approx(
        brute, abs=1e-6
    )


def test_constant_payoff_identity_with_truncated_masses():
    model = Empirical((0.4, 0.3, 0.1))  # total mass 0.8
    assert expected_call_cost(flat(2.5), model) == pytest.approx(2.5 * 0.8, abs=1e-12)


def breakdown_of(catalog, plan_id, profile, context=None):
    """The breakdown `full_costs` gives plan `plan_id`, under the catalog's
    own context unless `context` is given."""
    breakdowns = full_costs(catalog, context or catalog.context, profile)
    return next(b for b in breakdowns if b.plan_id == plan_id)


def test_variable_cost_bp1(mts_catalog, reference_profile):
    b = breakdown_of(mts_catalog, 1, reference_profile)
    total, subgroups = b.variable, b.subgroups
    s12 = 2.5 * (1 - math.exp(-MU)) + 2.5 * math.exp(-5 * MU)
    s13 = 3.5 * (1 - math.exp(-MU)) + 3.5 * math.exp(-5 * MU)
    assert total == pytest.approx(23 * s12 + 16 * s13, abs=1e-9)
    assert total == pytest.approx(52.787, abs=1e-3)
    assert [s.calls_per_month for s in subgroups] == [23.0, 16.0]
    assert subgroups[0].one_call_cost == pytest.approx(s12, abs=1e-12)


def test_variable_cost_bp2_is_negligible(mts_catalog, reference_profile):
    assert breakdown_of(mts_catalog, 2, reference_profile).variable < 1e-20


def test_variable_cost_zero_traffic(mts_catalog, reference_profile):
    silent = reference_profile.scaled(1e-300)  # rates effectively zero
    total = breakdown_of(mts_catalog, 6, silent).variable
    assert total == pytest.approx(0.0, abs=1e-290)


def test_fixed_cost_switch_with_owned_sim(mts_catalog, reference_profile):
    assert breakdown_of(mts_catalog, 2, reference_profile).fixed == 315.0
    assert breakdown_of(mts_catalog, 6, reference_profile).fixed == 0.0
    assert breakdown_of(mts_catalog, 5, reference_profile).fixed == 2750.0


def test_fixed_cost_unowned_provider_pays_purchase(mts_catalog, reference_profile):
    ctx = SubscriberContext(current_plan_id=6, owned_sim_providers=frozenset())
    assert breakdown_of(mts_catalog, 1, reference_profile, ctx).fixed == 90.0 + 195.0


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


def test_rank_compares_exactly_where_float_full_costs_are_equal():
    """Plan 1's variable cost 2**-60 is lost in its float full cost, 1.0, so
    both plans cost 1.0 in floats and the current plan 1 would come first;
    exactly, plan 2 is cheaper. Plan 3, equal to plan 2 exactly, follows it
    by id, and plan 4, 2**-49 dearer, is never reordered."""
    rows = [
        CostBreakdown(4, "w", False, (), variable=0.0, fixed=1.0 + 2**-49),
        CostBreakdown(1, "x", True, (), variable=2**-60, fixed=1.0),
        CostBreakdown(3, "z", False, (), variable=0.0, fixed=1.0),
        CostBreakdown(2, "y", False, (), variable=0.0, fixed=1.0),
    ]
    assert {b.full for b in rows[1:]} == {1.0}
    assert rank(rows).order == (2, 3, 1, 4)


def test_cheapest_first_reorders_only_near_ties():
    """Only the run of float costs within NEAR of each other is ordered by
    the exact costs, and only its items' exact costs are computed."""
    costs = [3.0, 1.0, 1.0 * cost.NEAR, 2.0, 1.0]
    exact = {0: 3, 1: 1, 2: 0, 3: 2, 4: 1}
    asked = []
    ordered = cost.cheapest_first(list(range(5)), costs, lambda i: asked.append(i) or exact[i], lambda i: (-i,))
    assert ordered == [2, 4, 1, 3, 0]
    assert sorted(asked) == [1, 2, 4]


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
    before = breakdown_of(mts_catalog, 1, reference_profile).variable
    after = breakdown_of(raised, 1, reference_profile).variable
    assert after >= before



def test_unknown_billing_mode_rejected_when_nothing_is_billed(mts_catalog):
    idle = TrafficProfile(
        cells=tuple(TrafficCell(dest, day, 0.0, None) for dest, day in ALL_CALL_CLASSES),
        observation_months=1.0,
    )
    with pytest.raises(ValueError, match="unknown billing mode 'bogus'"):
        full_costs(mts_catalog, mts_catalog.context, idle, "bogus")
    with pytest.raises(ValueError, match="unknown billing mode 'bogus'"):
        expected_call_cost(flat(1.0), Exponential(mu=MU), "bogus")


# --------------------------------------------------------------------------
# the kernel's last product


@pytest.fixture
def kernel_runs(monkeypatch):
    """The billing mode of each pricing-kernel run: a run builds its rows
    once (`cost._rows`), and a call served from the last product builds none."""
    runs = []
    rows = cost._rows

    def counting(table, mode):
        runs.append(mode)
        return rows(table, mode)

    monkeypatch.setattr(cost, "_rows", counting)
    return runs


def test_a_repeated_pricing_does_not_run_the_kernel(mts_catalog, kernel_runs):
    profile = make_reference_profile()
    first = full_costs(mts_catalog, mts_catalog.context, profile)
    assert len(kernel_runs) == 1
    # an equal context built anew is the same input
    same = SubscriberContext(mts_catalog.context.current_plan_id, mts_catalog.context.owned_sim_providers)
    second = full_costs(mts_catalog, same, profile)
    # the kept product is immutable; each call builds its own list of it
    product = cost._last[-1]
    assert len(kernel_runs) == 1
    assert second == first and second is not first
    assert type(product) is tuple
    assert all(type(breakdown) is CostBreakdown for breakdown in product)
    assert all(kept is a is b for kept, a, b in zip(product, first, second, strict=True))


@pytest.mark.parametrize("changed", ["catalog", "context", "profile", "mode"])
def test_changing_one_input_prices_again(mts_catalog, kernel_runs, changed):
    inputs = {"catalog": mts_catalog, "context": mts_catalog.context,
              "profile": make_reference_profile(), "mode": LOOKUP}
    other = {
        # an equal catalog or profile that is another object is another input
        "catalog": load_catalog(CATALOG_PATH.read_bytes()),
        "context": SubscriberContext(mts_catalog.context.current_plan_id),
        "profile": make_reference_profile(),
        "mode": CUMULATIVE,
    }[changed]
    first = full_costs(**inputs)
    changed_inputs = {**inputs, changed: other}
    again = full_costs(**changed_inputs)
    assert kernel_runs == [LOOKUP, changed_inputs["mode"]]
    assert (again == first) == (changed in ("catalog", "profile"))
    # the entry now holds the changed inputs: the first ones price again
    assert full_costs(**inputs) == first
    assert len(kernel_runs) == 3


GRID = k_grid()

PRICINGS = {
    "full_costs": lambda catalog, profile, mode: full_costs(catalog, catalog.context, profile, mode),
    "sweep": lambda catalog, profile, mode: sweep(catalog, catalog.context, profile, GRID, mode),
}


@pytest.mark.parametrize("mode", BILLING_MODES)
@pytest.mark.parametrize("first, then", itertools.permutations(PRICINGS, 2))
def test_results_are_the_same_cold_and_warm(mts_catalog, kernel_runs, first, then, mode):
    cold = {name: repr(price(mts_catalog, make_reference_profile(), mode)) for name, price in PRICINGS.items()}
    assert len(kernel_runs) == len(PRICINGS)
    profile = make_reference_profile()
    assert repr(PRICINGS[first](mts_catalog, profile, mode)) == cold[first]
    assert repr(PRICINGS[then](mts_catalog, profile, mode)) == cold[then]
    assert len(kernel_runs) == len(PRICINGS) + 1


def test_a_bad_context_fails_right_after_a_valid_pricing(mts_catalog):
    profile = make_reference_profile()
    bad = SubscriberContext(current_plan_id=99, owned_sim_providers=mts_catalog.context.owned_sim_providers)
    full_costs(mts_catalog, mts_catalog.context, profile)
    with pytest.raises(CatalogError, match="current_plan_id 99 not in catalog"):
        full_costs(mts_catalog, bad, profile)
    sweep(mts_catalog, mts_catalog.context, profile, GRID)
    with pytest.raises(CatalogError, match="current_plan_id 99 not in catalog"):
        sweep(mts_catalog, bad, profile, GRID)
