"""Property-based suites over randomized payoffs, catalogs, and profiles."""

from __future__ import annotations

import math
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tariffopt import (
    BILLING_MODES,
    BillingPlan,
    Catalog,
    CatalogError,
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
    SweepPoint,
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
@given(billing_plans(), st.randoms(use_true_random=False))
def test_classification_is_a_partition(plan, rnd):
    """First-match routing assigns every call class exactly one subgroup. The
    routing table agrees with a scan of the rules, also for a plan rebuilt
    with its rules in another order, and has no entry for other pairs."""
    rules = list(plan.subgroups)
    rnd.shuffle(rules)
    for routed in (plan, replace(plan, subgroups=tuple(rules))):
        for dest, day in ALL_CALL_CLASSES:
            j = routed.subgroup_index(dest, day)
            assert 0 <= j < len(routed.subgroups)
            matching = [i for i, (rule, _) in enumerate(routed.subgroups) if rule.matches(dest, day)]
            assert matching and matching[0] == j
        with pytest.raises(CatalogError, match="no subgroup for"):
            routed.subgroup_index("any", "any")


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


@st.composite
def payoffs_and_empirical_models(draw):
    """A payoff and masses summing to at most 1, truncated before or after
    the end of the payoff's last finite segment."""
    payoff = draw(payoff_functions())
    last_end = payoff.segments[-2].to_minute if len(payoff.segments) > 1 else 1
    if draw(st.booleans()):
        truncation = max(1, last_end - draw(st.integers(0, 30)))
    else:
        truncation = last_end + draw(st.integers(1, 30))
    unit = st.floats(0.0, 1.0, allow_subnormal=False)
    masses = draw(st.lists(unit, max_size=min(truncation, 40)))
    masses += [0.0] * (truncation - len(masses))
    for t, mass in draw(st.dictionaries(st.integers(0, truncation - 1), unit, max_size=20)).items():
        masses[t] = mass
    if sum(masses) > 1:
        masses = [m / sum(masses) for m in masses]
    return payoff, Empirical(tuple(masses))


def exact_call_cost(payoff, masses, mode):
    """The exact rational one-call cost, and the exact sum of the magnitudes
    the survival kernel subtracts: S(a-1) and S(b) per segment [a, b] in
    lookup mode, the tail sums of S from a-1 and from b in cumulative mode."""
    n = len(masses)
    survival = [Fraction(0)] * (n + 1)
    for t in reversed(range(n)):
        survival[t] = survival[t + 1] + Fraction(masses[t])
    tails = survival[:]
    for t in reversed(range(n)):
        tails[t] += tails[t + 1]
    weights = survival if mode == "lookup" else tails
    value = scale = Fraction(0)
    elapsed = Fraction(0)  # cumulative charge of minutes 1..t
    for from_minute, to_minute, rate in payoff.float_segments:
        rate = Fraction(rate)
        for t in range(from_minute, min(n, to_minute or n) + 1):
            elapsed += rate
            value += (rate if mode == "lookup" else elapsed) * Fraction(masses[t - 1])
        for t in (from_minute - 1, to_minute):
            if t is not None and t < n:
                scale += rate * weights[t]
    return value, scale


@settings(max_examples=200, deadline=None)
@given(payoffs_and_empirical_models(), st.sampled_from(BILLING_MODES))
@example(  # a priced tail far behind a free head: prefix-sum differences lose it
    (
        PayoffFunction((RateSegment(1, 30, Decimal(0)), RateSegment(31, None, Decimal(1)))),
        Empirical(tuple(math.exp(-0.5 * t) * (1 - math.exp(-0.5)) for t in range(60))),
    ),
    "cumulative",
)
def test_empirical_cost_matches_an_exact_sum(payoff_and_model, mode):
    """The survival kernel prices an empirical model as the exact rational sum
    of v(t) m(t) (of the cumulative v in cumulative mode) does, and leaves the
    tail past the truncation unbilled. The error bound is that of summing the
    T survival terms in float: (2T + 8) units of 2**-53 (under 1e-14 for
    T <= 40) of the terms the kernel subtracts. A flat bound relative to the
    result cannot hold: a light segment ahead of a heavy tail cancels."""
    payoff, model = payoff_and_model
    value, scale = exact_call_cost(payoff, model.masses, mode)
    bound = Fraction(2 * model.truncation + 8, 2**53) * scale
    assert abs(Fraction(expected_call_cost(payoff, model, mode)) - value) <= bound


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


@st.composite
def catalogs_with_twins(draw):
    """A catalog, maybe with a twin of the current plan (without a switch fee,
    so that its cost line is the current plan's) and a twin of another plan.
    Each twin takes the next free id and a drawn place in the plan order, so
    identical lines come in any order."""
    catalog = draw(catalogs())
    plans = list(catalog.plans)
    current = catalog.current_plan
    twins = []
    if draw(st.booleans()):
        twins.append(replace(current, fixed=replace(current.fixed, switch_fee=Decimal(0))))
    others = [p for p in plans if p.id != current.id]
    if others and draw(st.booleans()):
        twins.append(draw(st.sampled_from(others)))
    for plan in twins:
        twin_id = max(p.id for p in plans) + 1
        twin = replace(plan, id=twin_id, name=f"plan-{twin_id}")
        plans.insert(draw(st.integers(0, len(plans))), twin)
    return replace(catalog, plans=tuple(plans))


@settings(max_examples=200, deadline=None)
@given(
    catalogs_with_twins(),
    traffic_profiles(),
    st.sampled_from([k_grid(), k_grid(0.25, 3.0, 0.25), k_grid(1.0, 40.0, 3.0), [2.0]]),
    st.sampled_from(BILLING_MODES),
)
def test_sweep_matches_rank_at_each_multiplier(catalog, profile, grid, mode):
    """Each sweep point equals what `rank` makes of the scaled breakdowns at
    its multiplier, bit for bit, with plan costs in breakdown order."""
    breakdowns = full_costs(catalog, catalog.context, profile, mode)
    current = next(b.plan_id for b in breakdowns if b.is_current)
    points = sweep(catalog, catalog.context, profile, grid, mode)
    assert len(points) == len(grid)
    for k, point in zip(grid, points):
        at_k = [replace(b, variable=k * b.variable) for b in breakdowns]
        costs = {b.plan_id: b.full for b in at_k}
        best = rank(at_k).optimal_id
        assert point == SweepPoint(k, best, costs[best], costs[current], costs, current)
        assert list(point.plan_costs) == [b.plan_id for b in breakdowns]


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
