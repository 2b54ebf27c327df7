"""Property-based suites over randomized payoffs, catalogs, and profiles."""

from __future__ import annotations

import math
from dataclasses import replace
from decimal import Decimal

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tariffopt import (
    BillingPlan,
    Catalog,
    CostBreakdown,
    Empirical,
    Exponential,
    FixedCostSpec,
    PayoffFunction,
    PrefixTable,
    RateSegment,
    SimCell,
    SimConfig,
    SubgroupRule,
    SubscriberContext,
    TrafficCell,
    TrafficProfile,
    expected_call_cost,
    full_costs,
    k_grid,
    rank,
    run,
    sweep,
    switch_points,
    variable_cost,
)
from tariffopt.catalog import ALL_CALL_CLASSES, DAY_CLASSES, DESTINATION_CLASSES

rates_st = st.decimals(
    min_value=0, max_value=100, places=2, allow_nan=False, allow_infinity=False
)


@st.composite
def payoff_functions(draw):
    cuts = sorted(draw(st.lists(st.integers(2, 500), unique=True, max_size=5)))
    starts = [1] + cuts
    rates = draw(
        st.lists(rates_st, min_size=len(starts), max_size=len(starts))
    )
    segments = []
    for i, start in enumerate(starts):
        if i + 1 < len(starts):
            segments.append(RateSegment(start, starts[i + 1] - 1, rates[i]))
        else:
            segments.append(RateSegment(start, None, rates[i]))
    return PayoffFunction(tuple(segments))


@st.composite
def billing_plans(draw, plan_id=1):
    rules = []
    for i in range(draw(st.integers(0, 4))):
        dest = draw(st.sampled_from(DESTINATION_CLASSES + ("any",)))
        day = draw(st.sampled_from(DAY_CLASSES + ("any",)))
        if dest == "any" and day == "any":
            day = draw(st.sampled_from(DAY_CLASSES))
        rules.append(SubgroupRule(f"group-{i}", dest, day))
    rules.append(SubgroupRule("rest", "any", "any"))  # guarantees total coverage
    subgroups = tuple((rule, draw(payoff_functions())) for rule in rules)
    fees = [Decimal(draw(st.integers(0, 2000))) for _ in range(3)]
    return BillingPlan(
        id=plan_id,
        name=f"plan-{plan_id}",
        provider="ACME",
        active=True,
        fixed=FixedCostSpec(*fees),
        subgroups=subgroups,
    )


@st.composite
def catalogs(draw):
    n = draw(st.integers(1, 4))
    plans = tuple(draw(billing_plans(plan_id=i + 1)) for i in range(n))
    context = SubscriberContext(current_plan_id=1, owned_sim_providers=frozenset({"ACME"}))
    return Catalog(plans=plans, context=context)


@st.composite
def traffic_profiles(draw):
    mu = draw(st.floats(0.05, 3.0))
    model = Exponential(mu=mu)
    cells = tuple(
        TrafficCell(dest, day, draw(st.floats(0.0, 50.0)), model)
        for dest, day in ALL_CALL_CLASSES
    )
    return TrafficProfile(cells=cells, observation_months=1.0)


@settings(max_examples=250, deadline=None)
@given(payoff_functions(), st.integers(1, 2000))
def test_payoff_segments_partition_minutes(payoff, minute):
    """Every minute lies in exactly one segment, and rate_at agrees with it."""
    containing = [
        s
        for s in payoff.segments
        if s.from_minute <= minute and (s.to_minute is None or minute <= s.to_minute)
    ]
    assert len(containing) == 1
    assert payoff.rate_at(minute) == float(containing[0].rate)


@settings(max_examples=200, deadline=None)
@given(billing_plans())
def test_classification_is_a_partition(plan):
    """First-match routing assigns every call class exactly one subgroup."""
    for dest, day in ALL_CALL_CLASSES:
        j = plan.subgroup_index(dest, day)
        assert 0 <= j < len(plan.subgroups)
        matching = [i for i, (rule, _) in enumerate(plan.subgroups) if rule.matches(dest, day)]
        assert matching and matching[0] == j


@settings(max_examples=150, deadline=None)
@given(catalogs(), traffic_profiles())
def test_row_totals_identical_across_plans(catalog, profile):
    """However a plan splits the traffic, the monthly total is the same."""
    total = profile.total_rate
    for plan in catalog.plans:
        assert math.isclose(sum(profile.lambda_for(plan)), total, rel_tol=1e-9, abs_tol=1e-9)


@settings(max_examples=100, deadline=None)
@given(payoff_functions(), st.floats(0.05, 3.0), st.floats(0.01, 50.0))
def test_expected_cost_linear_in_rates(payoff, mu, c):
    """Scaling every rate by c scales the expected one-call cost by c."""
    scaled = PayoffFunction(
        tuple(
            RateSegment(s.from_minute, s.to_minute, s.rate * Decimal(str(round(c, 6))))
            for s in payoff.segments
        )
    )
    c_exact = float(Decimal(str(round(c, 6))))
    model = Exponential(mu=mu)
    base = expected_call_cost(payoff, model)
    assert math.isclose(
        expected_call_cost(scaled, model), c_exact * base, rel_tol=1e-9, abs_tol=1e-12
    )


@settings(max_examples=100, deadline=None)
@given(catalogs(), traffic_profiles(), st.floats(0.0, 5000.0))
def test_ranking_invariant_under_fixed_shift(catalog, profile, shift):
    """Adding one constant to every plan's fixed cost reorders nothing."""
    breakdowns = full_costs(catalog, catalog.context, profile)
    shifted = [
        CostBreakdown(
            b.plan_id, b.plan_name, b.is_current, b.subgroups, b.variable, b.fixed + shift
        )
        for b in breakdowns
    ]
    assert rank(shifted).order == rank(breakdowns).order


@settings(max_examples=100, deadline=None)
@given(catalogs(), traffic_profiles())
def test_full_cost_decomposition(catalog, profile):
    """full = fixed + sum of per-subgroup monthly costs, per plan."""
    for b in full_costs(catalog, catalog.context, profile):
        recomputed = b.fixed + sum(s.monthly_cost for s in b.subgroups)
        assert math.isclose(b.full, recomputed, rel_tol=1e-12, abs_tol=1e-9)
        lam_times_s = sum(
            s.calls_per_month * s.one_call_cost
            for s in b.subgroups
            if s.one_call_cost is not None
        )
        assert math.isclose(b.variable, lam_times_s, rel_tol=1e-9, abs_tol=1e-9)


@settings(max_examples=250, deadline=None)
@given(st.floats(0.01, 5.0), st.integers(1, 300))
def test_discretized_exponential_masses(mu, truncation):
    """Masses are positive, strictly decreasing, and sum to 1 - exp(-mu*T)."""
    assume(mu * truncation < 700)  # stay above float64 underflow
    model = Exponential(mu=mu, truncation=truncation)
    masses = model.mass_array()
    assert (masses > 0).all()
    assert (np.diff(masses) < 0).all() if truncation > 1 else True
    assert math.isclose(float(masses.sum()), 1 - math.exp(-mu * truncation), abs_tol=1e-12)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 40), min_size=1, max_size=200), st.integers(1, 50))
def test_histogram_masses_sum_to_one(minutes, truncation):
    from datetime import date, time

    from tariffopt import CallRecord, ClassifiedCall

    calls = [
        ClassifiedCall(
            CallRecord(date(2010, 1, 4), time(9, 0), "+7", "", "Tel", m * 60, Decimal(0)),
            "landline",
            "workday",
            m,
        )
        for m in minutes
    ]
    from tariffopt import build_histogram

    hist = build_histogram(calls, truncation=truncation)
    assert abs(sum(hist.masses) - 1.0) < 1e-12


@settings(max_examples=50, deadline=None)
@given(
    st.integers(0, 2**32),
    st.floats(0.1, 20.0),
    st.floats(0.1, 3.0),
    st.integers(1, 4),
)
def test_simulation_reruns_bit_identical(seed, lam, mu, runs):
    import json

    from tariffopt import load_catalog

    doc = {
        "plans": [
            {
                "id": 1,
                "name": "Flat",
                "provider": "ACME",
                "active": True,
                "fixed": {"subscription_fee": 0, "switch_fee": 0, "purchase_cost": 0},
                "subgroups": [
                    {
                        "name": "All",
                        "destination_class": "any",
                        "day_class": "any",
                        "segments": [{"from": 1, "to": "open", "rate": "1.7"}],
                    }
                ],
            }
        ],
        "context": {"current_plan_id": 1, "owned_sim_providers": ["ACME"]},
    }
    catalog = load_catalog(json.dumps(doc))
    config = SimConfig(
        seed=seed, runs=runs, cells=(SimCell("landline", "workday", lam, mu),)
    )
    assert run(config, catalog).to_json() == run(config, catalog).to_json()


@settings(max_examples=100, deadline=None)
@given(payoff_functions(), st.floats(0.05, 3.0))
def test_monotonicity_under_pointwise_raise(payoff, mu):
    """Raising one segment's rate never lowers the expected call cost."""
    bumped = PayoffFunction(
        tuple(
            RateSegment(s.from_minute, s.to_minute, s.rate + Decimal("0.75"))
            if i == 0
            else s
            for i, s in enumerate(payoff.segments)
        )
    )
    model = Exponential(mu=mu)
    assert expected_call_cost(bumped, model) >= expected_call_cost(payoff, model)


@settings(max_examples=150, deadline=None)
@given(
    catalogs(),
    traffic_profiles(),
    st.sampled_from([k_grid(), k_grid(0.25, 3.0, 0.25), k_grid(1.0, 40.0, 3.0), [2.0]]),
    st.booleans(),
)
def test_switch_intervals_follow_rank_on_the_cost_lines(catalog, profile, grid, twin):
    """Switch intervals tile the grid's range, and each names the rank optimum
    of the lines fixed + k * variable at its midpoint. A twin of the last plan
    puts identical lines on the envelope, where only the tie-break decides."""
    if twin:
        last = catalog.plans[-1]
        copy = replace(last, id=last.id + 1, name=f"plan-{last.id + 1}")
        catalog = replace(catalog, plans=catalog.plans + (copy,))
    intervals = switch_points(sweep(catalog, catalog.context, profile, grid))
    assert intervals[0].k_start == grid[0] and intervals[-1].k_end == grid[-1]
    for left, right in zip(intervals, intervals[1:]):
        assert left.k_end == right.k_start
    assert all(iv.k_start <= iv.k_end for iv in intervals)
    breakdowns = full_costs(catalog, catalog.context, profile)
    for iv in intervals:
        if iv.k_end > iv.k_start:
            mid = 0.5 * (iv.k_start + iv.k_end)
            at_mid = [replace(b, variable=mid * b.variable) for b in breakdowns]
            assert iv.plan_id == rank(at_mid).optimal_id


def longest_prefix_scan(mapping, number):
    """Reference lookup: scan every prefix and keep the longest non-empty match."""
    best = ""
    for prefix in mapping:
        if number.startswith(prefix) and len(prefix) > len(best):
            best = prefix
    return mapping[best] if best else None


@st.composite
def prefix_tables_and_numbers(draw):
    # three digits and short prefixes, so prefixes nest; digit 3 matches none
    mapping = draw(
        st.dictionaries(st.text("012", max_size=5), st.sampled_from(DESTINATION_CLASSES), max_size=12)
    )
    numbers = []
    for _ in range(draw(st.integers(0, 20))):
        if mapping and draw(st.booleans()):
            prefix = draw(st.sampled_from(sorted(mapping)))
            cut = draw(st.integers(0, len(prefix)))  # shorter than or equal to a prefix
            numbers.append(prefix[:cut] + draw(st.text("0123", max_size=3)))
        else:
            numbers.append(draw(st.text("0123", max_size=7)))
    return mapping, numbers


@settings(max_examples=300, deadline=None)
@given(prefix_tables_and_numbers())
@example(({"": "landline", "1": "same-network"}, ["", "2", "1", "12"]))  # empty prefix, empty number
def test_bucketed_prefix_lookup_matches_a_linear_scan(table_and_numbers):
    mapping, numbers = table_and_numbers
    table = PrefixTable(mapping)
    for number in numbers:
        expected = longest_prefix_scan(mapping, number)
        unmapped = table.unmapped_count
        assert table.destination_class(number) == (expected or "other-mobile")
        assert table.unmapped_count == unmapped + (expected is None)
