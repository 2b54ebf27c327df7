"""Property-based suites over randomized payoffs, catalogs, and profiles."""

from __future__ import annotations

import math
import re
from datetime import date
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tariffopt import (
    BILLING_MODES,
    BillingPlan,
    CallTable,
    Catalog,
    CdrError,
    CostBreakdown,
    Empirical,
    Exponential,
    FixedCostSpec,
    PayoffFunction,
    PrefixTable,
    RateSegment,
    RegressionFit,
    SimConfig,
    SubgroupCost,
    SubgroupRule,
    SubscriberContext,
    TrafficCell,
    TrafficProfile,
    WorkdayCalendar,
    classify_calls,
    expected_call_cost,
    fit_report,
    full_costs,
    k_grid,
    load_catalog,
    parse_cdr,
    rank,
    replay_trace,
    run,
    sweep,
    switch_points,
)
from tariffopt import cdr, sensitivity, simulate
from tariffopt.cost import LOOKUP, tie_order
from tariffopt.sensitivity import _TOUCH, FIT_FORMS
from tariffopt.catalog import ALL_CALL_CLASSES, CALL_CLASS_INDEX, DAY_CLASSES, DESTINATION_CLASSES

from conftest import (
    CATALOG_PATH,
    CDR_PATH,
    PREFIXES_PATH,
    cdr_text,
    charges,
    classified,
    costs_at,
    first_match,
    optimal_ids,
    rebuilt,
)

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
    for routed in (plan, rebuilt(plan, subgroups=tuple(rules))):
        assert len(routed.routes) == len(ALL_CALL_CLASSES)
        for (dest, day), j in zip(ALL_CALL_CLASSES, routed.routes):
            assert 0 <= j < len(routed.subgroups)
            matching = [i for i, (rule, _) in enumerate(routed.subgroups) if rule.matches(dest, day)]
            assert matching and matching[0] == j
    assert ("any", "any") not in CALL_CLASS_INDEX


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
    """The masses S(t-1) - S(t) that pricing reads off the survival function
    are positive, strictly decreasing, and sum to 1 - exp(-mu*T) over the
    first T minutes."""
    assume(mu * truncation < 700)  # stay above float64 underflow
    masses = -np.diff(Exponential(mu=mu).survivals(range(truncation + 1)))
    assert (masses > 0).all()
    assert (np.diff(masses) < 0).all() if truncation > 1 else True
    assert math.isclose(float(masses.sum()), 1 - math.exp(-mu * truncation), abs_tol=1e-12)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 40), min_size=1, max_size=200), st.integers(1, 50))
def test_histogram_masses_sum_to_one(minutes, truncation):
    from tariffopt import build_histogram

    calls = classified([("landline", "workday", m * 60) for m in minutes])
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
        seed=seed, runs=runs, cells=(TrafficCell("landline", "workday", lam, Exponential(mu)),)
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


def _flat_plan(plan_id, fixed, payoff):
    return BillingPlan(id=plan_id, name=f"plan-{plan_id}", provider="ACME", active=True, fixed=fixed,
                       subgroups=((SubgroupRule("rest", "any", "any"), payoff),))


#: two cost lines 1.7e-17 k apart: plan 1, the current plan, charges 0.01 a
#: minute only past minute 34 of a call drawn from Exponential(mu=1), so its
#: variable cost is too small to move 1.0 + k * variable off 1.0 in floats,
#: where plan 2's line, with no variable cost, is exactly 1
FLOAT_TIE = (
    Catalog(
        plans=(
            _flat_plan(1, FixedCostSpec(Decimal(1), Decimal(0), Decimal(0)), PayoffFunction(
                (RateSegment(1, 34, Decimal(0)), RateSegment(35, None, Decimal("0.01"))))),
            _flat_plan(2, FixedCostSpec(Decimal(0), Decimal(1), Decimal(0)), PayoffFunction(
                (RateSegment(1, None, Decimal(0)),))),
        ),
        context=SubscriberContext(current_plan_id=1, owned_sim_providers=frozenset({"ACME"})),
    ),
    TrafficProfile(
        cells=tuple(
            TrafficCell(dest, day, float((dest, day) == ("landline", "weekend")), Exponential(mu=1.0))
            for dest, day in ALL_CALL_CLASSES
        ),
        observation_months=1.0,
    ),
    k_grid(),
    False,
)


@settings(max_examples=150, deadline=None)
@given(
    catalogs(),
    traffic_profiles(),
    st.sampled_from([k_grid(), k_grid(0.25, 3.0, 0.25), k_grid(1.0, 40.0, 3.0), [2.0]]),
    st.booleans(),
)
@example(*FLOAT_TIE)
def test_switch_intervals_follow_rank_on_the_cost_lines(catalog, profile, grid, twin):
    """Switch intervals tile the grid's range, and each names the optimum of
    the exact lines fixed + k * variable at its midpoint, ties broken by
    rank's keys. The lines are judged in exact arithmetic, as switch_points
    walks them: in floats, two lines closer than an ulp tie. A twin of the
    last plan puts identical lines on the envelope, where only the tie-break
    decides."""
    if twin:
        last = catalog.plans[-1]
        copy = rebuilt(last, id=last.id + 1, name=f"plan-{last.id + 1}")
        catalog = rebuilt(catalog, plans=catalog.plans + (copy,))
    intervals = switch_points(sweep(catalog, catalog.context, profile, grid))
    assert intervals[0].k_start == grid[0] and intervals[-1].k_end == grid[-1]
    for left, right in zip(intervals, intervals[1:]):
        assert left.k_end == right.k_start
    assert all(iv.k_start <= iv.k_end for iv in intervals)
    breakdowns = full_costs(catalog, catalog.context, profile)
    for iv in intervals:
        if iv.k_end > iv.k_start:
            mid = Fraction(0.5 * (iv.k_start + iv.k_end))
            best = min(breakdowns, key=lambda b: (
                Fraction(b.fixed) + mid * Fraction(b.variable), not b.is_current, b.plan_id))
            assert iv.plan_id == best.plan_id


def test_float_tie_has_one_cheapest_plan():
    """On FLOAT_TIE, rank, every point of the sweep's optimum and the switch
    points all name plan 2, the exactly cheaper line."""
    catalog, profile, grid, _ = FLOAT_TIE
    swept = sweep(catalog, catalog.context, profile, grid)
    assert rank(full_costs(catalog, catalog.context, profile)).optimal_id == 2
    assert optimal_ids(swept) == [2] * len(grid)
    assert [(iv.k_start, iv.k_end, iv.plan_id) for iv in switch_points(swept)] == [(0.5, 10.0, 2)]


def test_switch_points_build_no_rational(monkeypatch):
    """The walk starts on the sweep's optimum at the first point, so on
    FLOAT_TIE, where the sweep settles that point in rationals, the walk
    builds none of its own."""
    catalog, profile, grid, _ = FLOAT_TIE
    swept = sweep(catalog, catalog.context, profile, grid)
    built = []
    monkeypatch.setattr(sensitivity, "Fraction", lambda *args: built.append(args) or Fraction(*args))
    assert [iv.plan_id for iv in switch_points(swept)] == [2]
    assert built == []


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
        twins.append(rebuilt(current, fixed=rebuilt(current.fixed, switch_fee=Decimal(0))))
    others = [p for p in plans if p.id != current.id]
    if others and draw(st.booleans()):
        twins.append(draw(st.sampled_from(others)))
    for plan in twins:
        twin_id = max(p.id for p in plans) + 1
        twin = rebuilt(plan, id=twin_id, name=f"plan-{twin_id}")
        plans.insert(draw(st.integers(0, len(plans))), twin)
    return rebuilt(catalog, plans=tuple(plans))


@settings(max_examples=200, deadline=None)
@given(
    catalogs_with_twins(),
    traffic_profiles(),
    st.sampled_from([k_grid(), k_grid(0.25, 3.0, 0.25), k_grid(1.0, 40.0, 3.0), [2.0]]),
    st.sampled_from(BILLING_MODES),
)
def test_sweep_matches_rank_at_each_multiplier(catalog, profile, grid, mode):
    """At each multiplier, the sweep's optimum is the line exactly lowest
    there, ties by row, as the rows are in rank's tie order. Its cost, the
    stay cost and every plan's cost equal the scaled breakdowns' full costs,
    bit for bit, with plan costs in rank's tie order. (`rank` of those
    breakdowns judges the exact sums of the rounded products k * variable,
    so at a near-tie it can name another line.)"""
    breakdowns = full_costs(catalog, catalog.context, profile, mode)
    current = next(b.plan_id for b in breakdowns if b.is_current)
    lines = {b.plan_id: (b.fixed, b.variable) for b in breakdowns}
    swept = sweep(catalog, catalog.context, profile, grid, mode)
    assert len(swept) == len(grid)
    assert swept.ks.tolist() == grid
    assert swept.plan_ids[swept.stay] == current
    assert dict(zip(swept.plan_ids, zip(swept.fixed.tolist(), swept.variable.tolist()))) == lines
    optimal, best_costs = optimal_ids(swept), swept.optimal_costs.tolist()
    stay_costs = swept.costs[swept.stay].tolist()
    ordered = sorted(breakdowns, key=tie_order)
    for j, k in enumerate(grid):
        at_k = [rebuilt(b, variable=k * b.variable) for b in breakdowns]
        costs = {b.plan_id: b.full for b in at_k}
        best = min(ordered, key=lambda b: Fraction(b.fixed) + Fraction(k) * Fraction(b.variable)).plan_id
        assert (optimal[j], best_costs[j], stay_costs[j]) == (best, costs[best], costs[current])
        assert costs_at(swept, j) == costs
        assert list(costs_at(swept, j)) == [b.plan_id for b in ordered]


@settings(max_examples=100, deadline=None)
@given(
    catalogs_with_twins(),
    traffic_profiles(),
    st.sampled_from(BILLING_MODES),
    st.sampled_from([k_grid(), k_grid(0.25, 3.0, 0.25), k_grid(1.0, 40.0, 3.0), [2.0]]),
)
@example(*FLOAT_TIE[:2], LOOKUP, FLOAT_TIE[2])
def test_rank_sweep_and_switch_points_agree_on_the_cheapest_plan(catalog, profile, mode, grid):
    """Each point's optimum is the line exactly lowest there, ties by row; a
    point more than the walk's touch tolerance inside a switch interval
    names that interval's plan or one exactly as cheap there; on a one-point
    grid the one interval names the point's optimum; and at k = 1, rank
    picks the sweep's optimum."""
    swept = sweep(catalog, catalog.context, profile, grid, mode)
    lines = dict(zip(swept.plan_ids, zip(swept.fixed.tolist(), swept.variable.tolist())))
    touch = _TOUCH * max(1.0, grid[0], grid[-1])
    intervals = switch_points(swept)
    for k, best in zip(grid, optimal_ids(swept)):
        exact = {pid: Fraction(fixed) + Fraction(k) * Fraction(variable) for pid, (fixed, variable) in lines.items()}
        assert best == min(swept.plan_ids, key=exact.get)
        for iv in intervals:
            if iv.k_start + touch < k < iv.k_end - touch:
                assert exact[iv.plan_id] == exact[best]
        if k == 1:
            assert rank(full_costs(catalog, catalog.context, profile, mode)).optimal_id == best
    if len(grid) == 1:
        assert [iv.plan_id for iv in intervals] == optimal_ids(swept)


@settings(max_examples=100, deadline=None)
@given(catalogs_with_twins(), traffic_profiles(), st.sampled_from(BILLING_MODES), st.data())
def test_sweep_does_not_depend_on_the_catalog_plan_order(catalog, profile, mode, data):
    """A catalog with its plans shuffled gives the same sweep, array for
    array and byte for byte, and the same switch points and fits."""
    shuffled = rebuilt(catalog, plans=tuple(data.draw(st.permutations(catalog.plans))))
    swept, other = (sweep(c, c.context, profile, k_grid(), mode) for c in (catalog, shuffled))
    assert (other.plan_ids, other.stay) == (swept.plan_ids, swept.stay)
    for name in ("ks", "fixed", "variable", "costs", "optimal"):
        mine, theirs = getattr(swept, name), getattr(other, name)
        assert (theirs.dtype, theirs.tobytes()) == (mine.dtype, mine.tobytes())
    assert switch_points(other) == switch_points(swept)
    assert fit_report(other) == fit_report(swept)


@st.composite
def shared_breakpoint_catalogs(draw):
    """Catalogs whose payoffs cut at minutes drawn from one small pool, so
    breakpoints are shared, plus minutes of their own; a payoff without cuts
    is one open tail from minute 1. Plans may be inactive; the catalog's
    current plan is active, and a second context names any plan as current
    and owns other SIMs."""
    pool = draw(st.lists(st.integers(2, 60), unique=True, min_size=1, max_size=8))
    cut_st = st.lists(st.sampled_from(pool) | st.integers(2, 90), unique=True, max_size=4)
    rate_st = st.sampled_from([Decimal(0), Decimal("0.05"), Decimal("1.3")]) | rates_st
    plans = []
    for pid in range(1, draw(st.integers(1, 5)) + 1):
        plan = draw(billing_plans(plan_id=pid))
        subgroups = []
        for rule, _ in plan.subgroups:
            starts = [1] + [c + 1 for c in sorted(draw(cut_st))]
            ends = [s - 1 for s in starts[1:]] + [None]
            payoff = PayoffFunction(tuple(RateSegment(a, b, draw(rate_st)) for a, b in zip(starts, ends)))
            subgroups.append((rule, payoff))
        provider = draw(st.sampled_from(["ACME", "Other"]))
        active = pid == 1 or draw(st.booleans())
        plans.append(rebuilt(plan, provider=provider, active=active, subgroups=tuple(subgroups)))
    catalog = Catalog(plans=tuple(plans), context=SubscriberContext(1, frozenset({"ACME"})))
    other = SubscriberContext(draw(st.integers(1, len(plans))), frozenset({"Other"}))
    return catalog, other


@st.composite
def mixed_profiles(draw):
    """Cells with no traffic, exponential cells and empirical cells truncated
    below or above the catalogs' breakpoints, some cells sharing one model."""
    shared = Exponential(mu=draw(st.floats(0.05, 3.0)))
    cells = []
    for dest, day in ALL_CALL_CLASSES:
        kind = draw(st.sampled_from(["none", "shared", "exponential", "empirical"]))
        if kind == "none":
            cells.append(TrafficCell(dest, day, 0.0, draw(st.none() | st.just(shared))))
            continue
        if kind == "shared":
            model = shared
        elif kind == "exponential":
            model = Exponential(mu=draw(st.floats(0.05, 3.0)))
        else:
            truncation = draw(st.integers(1, 100))
            masses = draw(st.lists(st.floats(0.0, 1.0), min_size=truncation, max_size=truncation))
            total = max(1.0, sum(masses))
            model = Empirical(tuple(m / total for m in masses))
        cells.append(TrafficCell(dest, day, draw(st.floats(0.0, 50.0)), model))
    return TrafficProfile(cells=tuple(cells), observation_months=1.0)


def one_call_by_segment(payoff, model, mode):
    """Reference one-call cost: each segment through the model's survival
    function, one argument at a time."""
    total = 0.0
    for a, b, rate in payoff.float_segments:
        if mode == "lookup":
            (head,) = model.survivals([a - 1])
            tail = 0.0 if b is None else model.survivals([b])[0]
            total += rate * (head - tail)
        else:
            (span,) = model.survival_sums([(a - 1, b)])
            total += rate * span
    return total


def fee_of(plan, context):
    """Reference fixed cost: the subscription, plus the switch fee when
    leaving the current plan, plus the purchase cost when no SIM of the
    plan's provider is owned."""
    fee = plan.fixed.subscription_fee
    if plan.id != context.current_plan_id:
        fee += plan.fixed.switch_fee
    if plan.provider not in context.owned_sim_providers:
        fee += plan.fixed.purchase_cost
    return float(fee)


def priced_plan_by_plan(catalog, context, profile, mode):
    """Reference breakdowns: every plan and cell priced on its own."""
    breakdowns = []
    for plan in catalog.plans:
        if not (plan.active or plan.id == context.current_plan_id):
            continue
        rates = [0.0] * len(plan.subgroups)
        costs = [0.0] * len(plan.subgroups)
        for cell in profile.cells:
            if cell.rate == 0:
                continue
            j = first_match(plan, cell.destination_class, cell.day_class)
            rates[j] += cell.rate
            costs[j] += cell.rate * one_call_by_segment(plan.subgroups[j][1], cell.durations, mode)
        breakdowns.append(
            CostBreakdown(
                plan_id=plan.id,
                plan_name=plan.name,
                is_current=plan.id == context.current_plan_id,
                subgroups=tuple(
                    SubgroupCost(name, rates[j], costs[j] / rates[j] if rates[j] > 0 else None, costs[j])
                    for j, name in enumerate(plan.subgroup_names())
                ),
                variable=sum(costs),
                fixed=fee_of(plan, context),
            )
        )
    return breakdowns


@settings(max_examples=200, deadline=None)
@given(shared_breakpoint_catalogs(), mixed_profiles(), st.sampled_from(BILLING_MODES), st.booleans())
def test_full_costs_equal_plan_by_plan_pricing(catalog_and_context, profile, mode, own_context):
    """Pricing over the catalog's shared breakpoints gives every breakdown
    field exactly (==) as pricing each plan, cell and segment on its own;
    so does `expected_call_cost` for each payoff."""
    catalog, other = catalog_and_context
    context = catalog.context if own_context else other
    expected = priced_plan_by_plan(catalog, context, profile, mode)
    assert full_costs(catalog, context, profile, mode) == expected
    models = {id(cell.durations): cell.durations for cell in profile.cells if cell.durations}
    for plan in catalog.plans:
        for _, payoff in plan.subgroups:
            for model in models.values():
                assert expected_call_cost(payoff, model, mode) == one_call_by_segment(payoff, model, mode)


@st.composite
def many_rule_plans(draw):
    """A plan with more subgroups than call classes: one rule per class in a
    drawn order, shadowed copies of earlier rules ahead of the last class's
    rule (so it routes at index 6 or later), then a catch-all nothing
    reaches."""
    order = draw(st.permutations(ALL_CALL_CLASSES))
    rules = [SubgroupRule(f"class-{i}", dest, day) for i, (dest, day) in enumerate(order[:-1])]
    for i in range(draw(st.integers(1, 3))):
        dest, day = draw(st.sampled_from(order[:-1]))
        rules.append(SubgroupRule(f"shadowed-{i}", dest, day))
    rules.append(SubgroupRule("last-class", *order[-1]))
    rules.append(SubgroupRule("rest", "any", "any"))
    plan = draw(billing_plans())
    return rebuilt(plan, subgroups=tuple((rule, draw(payoff_functions())) for rule in rules))


@settings(max_examples=100, deadline=None)
@given(many_rule_plans(), mixed_profiles(), st.sampled_from(BILLING_MODES))
def test_full_costs_keep_every_subgroup_of_a_many_rule_plan(plan, profile, mode):
    """A plan with shadowed rules and more subgroups than call classes is
    priced like plan by plan: every subgroup, the unreached ones too, has
    its breakdown, and a class routed past index 5 is counted."""
    catalog = Catalog(plans=(plan,), context=SubscriberContext(plan.id, frozenset({"ACME"})))
    assert max(plan.routes) >= 6
    (priced,) = full_costs(catalog, catalog.context, profile, mode)
    assert len(priced.subgroups) == len(plan.subgroups)
    assert [priced] == priced_plan_by_plan(catalog, catalog.context, profile, mode)


@settings(max_examples=100, deadline=None)
@given(shared_breakpoint_catalogs(), mixed_profiles(), st.sampled_from(BILLING_MODES), st.booleans())
def test_sweep_points_lie_on_the_full_cost_lines(catalog_and_context, profile, mode, own_context):
    """`sweep`'s lines are `full_costs`' lines in rank's tie order, and its
    cost of each plan at every multiplier is still ``variable * k + fixed``
    of `full_costs`, bit for bit."""
    catalog, other = catalog_and_context
    context = catalog.context if own_context else other
    grid = k_grid(0.25, 12.0, 0.25)
    breakdowns = sorted(full_costs(catalog, context, profile, mode), key=tie_order)
    swept = sweep(catalog, context, profile, grid, mode)
    assert swept.plan_ids == tuple(b.plan_id for b in breakdowns)
    assert swept.fixed.tolist() == [b.fixed for b in breakdowns]
    assert swept.variable.tolist() == [b.variable for b in breakdowns]
    for j, k in enumerate(grid):
        assert costs_at(swept, j) == {b.plan_id: b.variable * k + b.fixed for b in breakdowns}
        assert list(costs_at(swept, j)) == [b.plan_id for b in breakdowns]


def reference_polyfit(points, degree, intercept):
    """The fit as `polyfit` computed it before `fit_report` shared one set of
    power columns: lists, then np.column_stack, then lstsq."""
    x = np.array([p[0] for p in points], dtype=float)
    y = np.array([p[1] for p in points], dtype=float)
    n_coef = degree + (1 if intercept else 0)
    if x.size <= n_coef:
        raise ValueError(f"need more than {n_coef} points for a degree-{degree} fit, got {x.size}")
    if np.all(x == x[0]):
        raise ValueError("x values are all identical")
    powers = range(0 if intercept else 1, degree + 1)
    design = np.column_stack([x**p for p in powers])
    coef, _, rank_, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank_ < n_coef:
        raise ValueError("rank-deficient design matrix")
    residuals = y - design @ coef
    ss_res = float(residuals @ residuals)
    if intercept:
        centered = y - y.mean()
        ss_tot = float(centered @ centered)
    else:
        ss_tot = float(y @ y)
    if ss_tot <= 1e-12 * max(1.0, float(y @ y)):
        r_squared = 0.0
    else:
        r_squared = 1.0 - ss_res / ss_tot
    return RegressionFit(degree, intercept, tuple(float(c) for c in coef), r_squared)


def reference_fit_report(swept):
    ks = swept.ks.tolist()
    series = {
        "stay": list(zip(ks, swept.costs[swept.stay].tolist())),
        "optimal": list(zip(ks, swept.optimal_costs.tolist())),
    }
    return {name: reference_polyfit(series[which], degree, intercept) for name, which, degree, intercept in FIT_FORMS}


@st.composite
def fit_grids(draw):
    """Sorted grids of 5-60 multipliers: evenly stepped as `k_grid` builds
    them, or drawn one by one, repeats allowed."""
    count = draw(st.integers(5, 60))
    if draw(st.booleans()):
        start, step = draw(st.floats(0.01, 5.0)), draw(st.floats(0.001, 2.0))
        return k_grid(start, start + (count - 1) * step, step)
    return sorted(draw(st.lists(st.floats(0.01, 100.0), min_size=count, max_size=count)))


@settings(max_examples=200, deadline=None)
@given(shared_breakpoint_catalogs(), mixed_profiles(), fit_grids(), st.sampled_from(BILLING_MODES))
def test_fit_report_matches_the_reference_fit(catalog_and_context, profile, grid, mode):
    """Every fit of `fit_report` equals the reference fit of its series by
    repr, bit for bit, or both raise the same error."""
    catalog, _ = catalog_and_context
    swept = sweep(catalog, catalog.context, profile, grid, mode)
    try:
        expected = repr(reference_fit_report(swept))
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            fit_report(swept)
    else:
        assert repr(fit_report(swept)) == expected


@settings(max_examples=200, deadline=None)
@given(
    shared_breakpoint_catalogs(),
    st.lists(
        st.tuples(st.integers(0, len(ALL_CALL_CLASSES) - 1), st.lists(st.integers(1, 100) | st.integers(1, 10**6))),
        max_size=len(ALL_CALL_CLASSES),
    ),
    st.sampled_from(BILLING_MODES),
)
def test_oracle_billing_matches_each_payoff(catalog_and_context, classes, mode):
    """Billing through the catalog's shared breakpoints charges every call
    exactly (array_equal) what its subgroup's own payoff charges: the drawn
    minutes, and in every class each breakpoint and the minute after it."""
    catalog, _ = catalog_and_context
    plans = catalog.switch_candidates()
    edges = sorted({max(1, p + d) for p in catalog.pricing.points for d in (0, 1)})
    classes = [(k, np.array(minutes, dtype=np.int64)) for k, minutes in classes]
    classes += [(k, np.array(edges, dtype=np.int64)) for k in range(len(ALL_CALL_CLASSES))]
    for k, minutes in classes:
        billed = list(simulate._bill(catalog, plans, k, minutes, mode))
        assert len(billed) == len(plans)
        for plan, costs in zip(plans, billed):
            own = charges(plan.subgroups[plan.routes[k]][1], minutes, mode)
            assert costs.dtype == own.dtype and np.array_equal(costs, own)


#: the bundled catalog, whose current plan (6) is inactive, and the bundled
#: printout's calls, observed over 6 months
BUNDLED_CATALOG = load_catalog(CATALOG_PATH.read_bytes())
BUNDLED_CALLS = classify_calls(
    parse_cdr(CDR_PATH.read_bytes()), PrefixTable.from_csv(PREFIXES_PATH.read_bytes()), WorkdayCalendar()
)

#: a light head ahead of a heavy tail: one plan charging minute 1 alone, and
#: 100,000 calls of which one lasts a minute. Pricing cancels in S(0) - S(1),
#: 4.6e-12 away from the replay. A table of classes and minutes alone, as the
#: replay and the profile read nothing else.
LIGHT_HEAD_CATALOG = Catalog(
    plans=(
        BillingPlan(1, "minute one", "ACME", True, FixedCostSpec(Decimal(0), Decimal(0), Decimal(0)), (
            (SubgroupRule("all", "any", "any"),
             PayoffFunction((RateSegment(1, 1, Decimal(1)), RateSegment(2, None, Decimal(0))))),
        )),
    ),
    context=SubscriberContext(1),
)
LIGHT_HEAD_CALLS = CallTable(
    np.zeros(10**5, dtype=np.int64), np.array([1] + [2] * (10**5 - 1), dtype=np.int64), None, None
)

#: printouts of up to 40 calls, zero-length ones (which classification drops)
#: among them, up to two hours long
printout_calls = st.lists(
    st.tuples(st.sampled_from(DESTINATION_CLASSES), st.sampled_from(DAY_CLASSES), st.integers(0, 7200)),
    max_size=40,
).map(classified)


def printout_profile(calls, months):
    """The printout as its own model: each call class's own `Empirical`, its
    masses the class's billed-minute counts over its call count, its rate
    that count over the `months` of the window."""
    cells = []
    for k, (dest, day) in enumerate(ALL_CALL_CLASSES):
        minutes = calls.minute[calls.call_class == k]
        model = Empirical(tuple(np.bincount(minutes)[1:] / len(minutes))) if len(minutes) else None
        cells.append(TrafficCell(dest, day, len(minutes) / months, model))
    return TrafficProfile(cells=tuple(cells), observation_months=months)


@settings(max_examples=100, deadline=None)
@given(
    shared_breakpoint_catalogs().map(lambda pair: pair[0]),
    printout_calls,
    st.floats(0.25, 24.0),
    st.sampled_from(BILLING_MODES),
)
@example(BUNDLED_CATALOG, BUNDLED_CALLS, 6.0, "lookup")
@example(BUNDLED_CATALOG, BUNDLED_CALLS, 6.0, "cumulative")
@example(LIGHT_HEAD_CATALOG, LIGHT_HEAD_CALLS, 1.0, "lookup")
def test_full_costs_of_the_printouts_own_profile_replay_it(catalog, calls, months, mode):
    """Priced under the printout's own profile (:func:`printout_profile`),
    each candidate's variable cost is the printout's own bill per month,
    `replay_trace`'s: within 1e-12 of it, relative. Where a light head sits
    ahead of a heavy tail, `S(a-1) - S(b)` cancels, and the gap may also
    take the kernel's float summation bound, (2T + 8) units of 2**-53 of the
    terms it subtracts, for each class's cell (as in
    `test_empirical_cost_matches_an_exact_sum`)."""
    profile = printout_profile(calls, months)
    priced = {b.plan_id: b.variable for b in full_costs(catalog, catalog.context, profile, mode)}
    replayed = replay_trace(catalog, calls, months, mode)
    assert priced.keys() == replayed.keys()
    for plan in catalog.switch_candidates():
        gap = Fraction(abs(priced[plan.id] - replayed[plan.id]))
        bound = Fraction(1e-12) * Fraction(replayed[plan.id])
        if gap > bound:  # the cancellation bound of each cell
            for cell in profile.cells:
                if cell.rate:
                    payoff = plan.subgroups[first_match(plan, cell.destination_class, cell.day_class)][1]
                    _, scale = exact_call_cost(payoff, cell.durations.masses, mode)
                    bound += Fraction(cell.rate) * Fraction(2 * cell.durations.truncation + 8, 2**53) * scale
        assert gap <= bound


def per_call_bill(catalog, calls, months, mode):
    """Reference replay: every call billed on its own under the subgroup its
    class routes to, found by scanning the rules, through `rate_at` in
    lookup mode and the tests' cumulative reference (`charges`) otherwise,
    summed with `math.fsum`; rubles per month by plan id."""
    bills = {}
    for plan in catalog.switch_candidates():
        billed = []
        for k, minute in zip(calls.call_class.tolist(), calls.minute.tolist()):
            payoff = plan.subgroups[first_match(plan, *ALL_CALL_CLASSES[k])][1]
            billed.append(payoff.rate_at(minute) if mode == LOOKUP else float(charges(payoff, [minute], mode)[0]))
        bills[plan.id] = math.fsum(billed) / months
    return bills


@settings(max_examples=100, deadline=None)
@given(
    shared_breakpoint_catalogs(),
    st.booleans(),
    printout_calls,
    st.floats(0.25, 24.0),
    st.sampled_from(BILLING_MODES),
)
@example((BUNDLED_CATALOG, BUNDLED_CATALOG.context), True, BUNDLED_CALLS, 6.0, "lookup")
@example((BUNDLED_CATALOG, BUNDLED_CATALOG.context), True, BUNDLED_CALLS, 6.0, "cumulative")
@example((BUNDLED_CATALOG, BUNDLED_CATALOG.context), True, classified([]), 6.0, "cumulative")  # an empty trace
def test_oracle_and_replay_bill_through_one_table(catalog_and_context, own_context, calls, months, mode):
    """The oracle's one class given once is charged exactly (array_equal) as
    that class given per call, as the replay gives it, and `replay_trace` is
    the per-call reference bill within 1e-12, relative, whether or not the
    current plan is active."""
    catalog, other = catalog_and_context
    if not own_context:
        catalog = rebuilt(catalog, context=other)
    plans = catalog.switch_candidates()
    for k in range(len(ALL_CALL_CLASSES)):
        once = simulate._bill(catalog, plans, k, calls.minute, mode)
        per_call = simulate._bill(catalog, plans, np.full(len(calls), k), calls.minute, mode)
        for by_class, by_call in zip(once, per_call, strict=True):
            assert by_class.dtype == by_call.dtype and np.array_equal(by_class, by_call)
    expected = per_call_bill(catalog, calls, months, mode)
    replayed = replay_trace(catalog, calls, months, mode)
    assert replayed.keys() == expected.keys()
    for plan_id, bill in expected.items():
        assert math.isclose(replayed[plan_id], bill, rel_tol=1e-12)


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
# nested prefixes that share a stem, listed shortest first
@example(({"01": "landline", "012": "same-network", "0123": "other-mobile"}, ["01239", "0129", "0199", "0"]))
@example(({"0123": "landline"}, ["012", "", "0123", "01234"]))  # the one prefix longer than a number
@example(({}, ["", "0", "012"]))  # an empty table
def test_bucketed_prefix_lookup_matches_a_linear_scan(table_and_numbers):
    mapping, numbers = table_and_numbers
    table = PrefixTable(mapping)
    expected = [longest_prefix_scan(mapping, number) for number in numbers]
    assert [table._lookup(number) for number in numbers] == [
        -1 if dest is None else DESTINATION_CLASSES.index(dest) for dest in expected
    ]
    calls = classify_calls(
        parse_cdr(cdr_text([(number, "20.08.2010", 57) for number in numbers])), table, WorkdayCalendar()
    )
    assert [ALL_CALL_CLASSES[k][0] for k in calls.call_class.tolist()] == [
        dest or "other-mobile" for dest in expected
    ]
    assert table.unmapped_count == expected.count(None)


#: one leap day near each end of the calendar and one in a century leap year
LEAP_DAYS = (date(4, 2, 29), date(2000, 2, 29), date(9996, 2, 29))


@st.composite
def call_dates_and_holidays(draw):
    days = draw(st.lists(st.dates() | st.sampled_from(LEAP_DAYS), min_size=1, max_size=30))
    holidays = draw(st.frozensets(st.sampled_from(days) | st.dates(), max_size=8))
    return days, holidays


@settings(max_examples=300, deadline=None)
@given(call_dates_and_holidays())
@example(([date(1, 1, 1), date(1, 1, 5), date(1, 1, 7), date(9999, 12, 31)], frozenset({date(1, 1, 1)})))
@example(([date(2010, 3, 6), date(2010, 3, 8)], frozenset()))  # no holidays
# holidays all before, or all after, every call date
@example(([date(2010, 3, 8), date(9999, 12, 31)], frozenset({date(1, 1, 1), date(2010, 3, 7)})))
@example(([date(1, 1, 1), date(2010, 3, 8)], frozenset({date(2010, 3, 9), date(9999, 12, 31)})))
def test_day_column_is_the_weekday_and_holiday_rule(days_and_holidays):
    days, holidays = days_and_holidays
    text = cdr_text([("+79161234567", f"{d.day:02d}.{d.month:02d}.{d.year:04d}", 57) for d in days])
    calls = classify_calls(parse_cdr(text), PrefixTable({}), WorkdayCalendar(holidays))
    assert calls.call_class.dtype == np.int64
    assert [ALL_CALL_CLASSES[k][1] for k in calls.call_class.tolist()] == [
        "weekend" if d.weekday() >= 5 or d in holidays else "workday" for d in days
    ]


# --------------------------------------------------------------------------
# the block reader of parse_cdr against the per-row reader

CDR_HEADER_LINE = "date;time;number;zone;service;duration;cost"
GOOD_ROW = "20.08.2010;12:01:27;+79161234567;Moscow;Tel;0:57;2.542"
ARABIC_INDIC = dict(zip("0123456789", "٠١٢٣٤٥٦٧٨٩"))
PADDING = (" ", "\t", " ", "　")
#: field values that only the per-row reader handles: a malformed value, or
#: one that csv + strip() reads into a valid row by another spelling
NEAR_MISS_FIELDS = {
    0: ("1.3.2010", "31.02.2010", "29.02.2011", "01.01.0000", "2010-08-20"),
    1: ("24:00:00", "9:05:03", "23:59:60", "12:01"),
    4: ("GPRS", "tel"),
    5: ("1:75", "44640:01", "57", "+1", "1:5", "-0:30", "+1_0:30"),
    6: ("3.0.0", "3,000", "1e5", "abc", " 1", "NaN", "Infinity", "1_000", "+3"),
}


@st.composite
def plain_rows(draw):
    """A row in the plain form that the block pattern takes."""
    day = draw(st.dates())
    at = draw(st.times())
    number = draw(st.sampled_from(["+79161234567", "+7916", "", "8 800 2000", "٣٣"]))
    zone = draw(st.sampled_from(["Moscow", "", "Moscow region", "Москва"]))
    service = draw(st.sampled_from(["Tel", "SMS"]))
    if service == "SMS" and draw(st.booleans()):
        duration = str(draw(st.integers(0, 999)))
    else:
        duration = f"{draw(st.integers(0, 44640))}:{draw(st.integers(0, 59)):02d}"
    cost = draw(st.from_regex(r"-?[0-9]{1,4}([.,][0-9]{1,3})?", fullmatch=True))
    return (
        f"{day.day:02d}.{day.month:02d}.{day.year:04d};{at.hour:02d}:{at.minute:02d}:{at.second:02d};"
        f"{number};{zone};{service};{duration};{cost}"
    )


@st.composite
def printout_lines(draw):
    """A plain row, or a near miss of one."""
    row = draw(plain_rows())
    fields = row.split(";")
    kind = draw(st.sampled_from(
        ["plain", "padded", "arabic", "field", "columns", "quoted", "crlf", "bare cr", "blank"]
    ))
    if kind == "padded":
        i = draw(st.integers(0, 6))
        fields[i] = draw(st.sampled_from(PADDING)) * draw(st.integers(0, 1)) + fields[i]
        fields[i] += draw(st.sampled_from(PADDING))
    elif kind == "arabic":
        spots = [i for i, c in enumerate(row) if c.isdigit()]
        i = draw(st.sampled_from(spots))
        return row[:i] + ARABIC_INDIC.get(row[i], row[i]) + row[i + 1:]
    elif kind == "field":
        i = draw(st.sampled_from(sorted(NEAR_MISS_FIELDS)))
        fields[i] = draw(st.sampled_from(NEAR_MISS_FIELDS[i]))
    elif kind == "columns":
        if draw(st.booleans()):
            del fields[draw(st.integers(0, 6))]
        else:
            fields.insert(draw(st.integers(0, 7)), "x")
    elif kind == "quoted":
        i = draw(st.integers(0, 6))
        fields[i] = f'"{fields[i]}"'
    elif kind == "crlf":
        return row + "\r"
    elif kind == "bare cr":
        i = draw(st.integers(1, len(row) - 1))
        return row[:i] + "\r" + row[i:]
    elif kind == "blank":
        return draw(st.sampled_from(["", ";;;;;;", "  "]))
    return ";".join(fields)


def per_row_reader(text, strict, issues):
    """The per-row reader applied to every line after the header, each row's
    five column values read into a record as a log's view reads its own,
    with the cost text it keeps."""
    records = []
    for lineno, line in enumerate(text.split("\n")[1:], start=2):
        row = cdr._read_row(line, lineno, strict, issues)
        if row is not None:
            day, number, service, duration, cost = row
            records.append((cdr.CallRecord(
                date.fromordinal(day), number, service, duration, Decimal(cost.replace(",", ".")),
            ), cost))
    return records


def block_reader(text, strict, issues):
    log = parse_cdr(text, strict=strict, issues=issues)
    return [(record, log.strings[cost]) for record, cost in zip(log, log.cost.tolist())]


def reading(reader, text, strict):
    """Every field of every row, the cost as a Decimal, as printed by it and
    as the log keeps it, and the issues; or the message of the first fatal
    line."""
    issues = []
    try:
        records = reader(text, strict, issues)
    except CdrError as exc:
        return str(exc)
    return [(*vars(r).values(), str(r.cost), cost) for r, cost in records], issues


def printout(*lines, final_newline=True):
    return "\n".join([CDR_HEADER_LINE, *lines]) + "\n" * final_newline


@settings(max_examples=200, deadline=None)
@given(st.lists(printout_lines(), max_size=12), st.booleans(), st.sampled_from([1, 40, 1 << 16]))
@example([GOOD_ROW, " 20.08.2010;12:01:27;+7916;Moscow;Tel;0:57;2.542"], True, 1 << 16)  # padded
@example([GOOD_ROW.replace("Moscow", "Moscow ")], True, 1 << 16)  # NBSP pad
@example([GOOD_ROW.replace("12:01:27", "1٢:01:27")], True, 1 << 16)  # Arabic-Indic digit
@example([GOOD_ROW.replace("2010", "٢٠١٠")], False, 1 << 16)
@example([GOOD_ROW.replace("20.08.2010", "1.3.2010")], True, 1 << 16)
@example([GOOD_ROW.replace("20.08.2010", "31.02.2010"), GOOD_ROW], True, 1 << 16)
@example([GOOD_ROW.replace("12:01:27", "24:00:00")], True, 1 << 16)
@example([GOOD_ROW.replace("0:57", "1:75")], True, 1 << 16)
@example([GOOD_ROW.replace("0:57", "44640:01"), GOOD_ROW.replace("0:57", "44640:00")], True, 1 << 16)
@example([GOOD_ROW.replace("0:57", "57")], True, 1 << 16)  # a Tel row with a bare count
@example([GOOD_ROW.replace("Tel;0:57", "SMS;1"), GOOD_ROW.replace("Tel;0:57", "SMS;0012")], True, 1 << 16)
@example([GOOD_ROW.replace("2.542", "2,542"), GOOD_ROW.replace("2.542", "3.0.0")], True, 1 << 16)
@example([GOOD_ROW.rsplit(";", 1)[0], GOOD_ROW + ";x"], True, 1 << 16)  # six and eight columns
@example([GOOD_ROW.replace("Moscow", '"Moscow"'), GOOD_ROW.replace("Moscow", '"Mos;cow"')], True, 1 << 16)
@example([GOOD_ROW + "\r", GOOD_ROW + "\r"], False, 1 << 16)  # CRLF line ends
@example([GOOD_ROW.replace(";Tel", "\r;Tel"), GOOD_ROW], True, 1 << 16)  # a bare CR
@example(["", ";;;;;;", GOOD_ROW, "  "], False, 1 << 16)  # blank lines
@example([GOOD_ROW, "bad", GOOD_ROW, GOOD_ROW.replace("Tel", "GPRS"), GOOD_ROW], True, 40)  # blocks
@example([GOOD_ROW.replace("+79161234567", "7" * 256), GOOD_ROW.replace("+79161234567", "7" * 257)], True, 1 << 16)
@example([GOOD_ROW.replace("Moscow", "Moscow\t")], True, 1 << 16)  # a field ending in a tab
def test_block_reader_matches_the_per_row_reader(lines, final_newline, block_chars):
    """parse_cdr gives the rows and issues of the per-row reader run on every
    line, and under strict fails on the same line, whatever the block size."""
    text = printout(*lines, final_newline=final_newline)
    saved = cdr._BLOCK_CHARS
    cdr._BLOCK_CHARS = block_chars
    try:
        for strict in (False, True):
            assert reading(block_reader, text, strict) == reading(per_row_reader, text, strict)
    finally:
        cdr._BLOCK_CHARS = saved
