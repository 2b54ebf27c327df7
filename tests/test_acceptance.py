"""Acceptance suite for the plan-switching optimizer.

Each test prints one PASS/FAIL line (visible with ``pytest -s``) and enforces
a runtime budget. Reference values come from the six-plan worked example:
one-call costs and full monthly costs reproduced within 5%, the exact plan
ranking, Monte-Carlo agreement within three standard errors, the traffic-
growth switch structure, the regression-quality progression, and randomized
property suites (>= 1000 cases).
"""

from __future__ import annotations

import math
from decimal import Decimal
from time import perf_counter

import numpy as np

from tariffopt import (
    BillingPlan,
    Catalog,
    CostBreakdown,
    Exponential,
    FixedCostSpec,
    PayoffFunction,
    RateSegment,
    SimConfig,
    SubgroupRule,
    SubscriberContext,
    TrafficCell,
    TrafficProfile,
    expected_call_cost,
    fit_report,
    full_costs,
    k_grid,
    rank,
    run,
    sweep,
    switch_points,
)
from tariffopt.catalog import ALL_CALL_CLASSES, DAY_CLASSES, DESTINATION_CLASSES
from tariffopt.sensitivity import _fit, _powers, _Series

from conftest import costs_at


REFERENCE_ONE_CALL = {
    (1, "To MTS Numbers"): 1.16,
    (1, "To Other Numbers"): 1.63,
    (3, "To All Numbers"): 3.13,
    (4, "To Mobiles"): 2.18,
    (4, "To Landlines"): 4.16,
    (6, "On Work Days"): 2.97,
    (6, "On Weekends"): 0.99,
}
REFERENCE_FULL = {1: 143.0, 2: 315.0, 3: 212.0, 4: 353.0, 5: 2750.0, 6: 104.0}
REFERENCE_RANKING = (6, 1, 3, 2, 4, 5)


def _finish(label: str, t0: float, limit: float, failures: list[str]):
    elapsed = perf_counter() - t0
    over = elapsed >= limit
    status = "FAIL" if failures or over else "PASS"
    print(f"ACCEPTANCE {label}: {status} ({elapsed:.2f}s, limit {limit:.0f}s)")
    assert not failures, "; ".join(failures)
    assert not over, f"runtime {elapsed:.2f}s exceeds {limit}s"


def test_criterion_1_expected_cost_table(mts_catalog, reference_profile):
    """One-call and full monthly costs within 5% of the reference table."""
    t0 = perf_counter()
    failures = []
    breakdowns = full_costs(mts_catalog, mts_catalog.context, reference_profile)
    one_call = {(b.plan_id, s.name): s.one_call_cost for b in breakdowns for s in b.subgroups}
    for key, expected in REFERENCE_ONE_CALL.items():
        got = one_call[key]
        if got is None or abs(got - expected) > 0.05 * expected:
            failures.append(f"s{key} = {got} not within 5% of {expected}")
    fulls = {b.plan_id: b.full for b in breakdowns}
    for plan_id, expected in REFERENCE_FULL.items():
        if abs(fulls[plan_id] - expected) > 0.05 * expected:
            failures.append(f"full[{plan_id}] = {fulls[plan_id]:.2f} not within 5% of {expected}")
    _finish("1 cost table", t0, 1.0, failures)


def test_criterion_2_ranking(mts_catalog, reference_profile):
    """Full-cost ordering is exactly (6, 1, 3, 2, 4, 5) with plan 6 optimal."""
    t0 = perf_counter()
    failures = []
    ranking = rank(full_costs(mts_catalog, mts_catalog.context, reference_profile))
    if ranking.order != REFERENCE_RANKING:
        failures.append(f"ranking {ranking.order} != {REFERENCE_RANKING}")
    if ranking.optimal_id != 6:
        failures.append(f"optimal {ranking.optimal_id} != 6")
    _finish("2 ranking", t0, 1.0, failures)


def test_criterion_3_oracle_equivalence(mts_catalog, reference_profile):
    """Monte-Carlo means (1e5 seeded runs, lookup billing) within 3 SE of the
    analytic variable costs for all six plans."""
    t0 = perf_counter()
    failures = []
    config = SimConfig.from_profile(reference_profile, seed=2026, runs=100_000)
    result = run(config, mts_catalog)
    analytic = {
        b.plan_id: b.variable
        for b in full_costs(mts_catalog, mts_catalog.context, reference_profile)
    }
    for p in result.plans:
        gap = abs(p.mean - analytic[p.plan_id])
        if gap > 3 * p.stderr + 1e-9:
            failures.append(
                f"plan {p.plan_id}: |{p.mean:.4f} - {analytic[p.plan_id]:.4f}| "
                f"> 3*{p.stderr:.4f}"
            )
    _finish("3 oracle equivalence", t0, 30.0, failures)


def test_criterion_4_sensitivity_structure(mts_catalog, reference_profile):
    """Optimal-plan sequence (6, 1, 2) over k in [0.5, 10] with crossings at
    the hand-derived affine intersections; optimal curve concave and never
    above the stay-put curve."""
    t0 = perf_counter()
    failures = []
    swept = sweep(mts_catalog, mts_catalog.context, reference_profile, k_grid(0.5, 10.0, 0.5))
    intervals = switch_points(swept)

    sequence = [iv.plan_id for iv in intervals]
    if sequence != [6, 1, 2]:
        failures.append(f"optimal sequence {sequence} != [6, 1, 2]")

    # independent oracle: affine costs on a fine grid, argmin changes located
    at_one = {b.plan_id: (b.fixed, b.variable) for b in
              full_costs(mts_catalog, mts_catalog.context, reference_profile)}
    fine = np.arange(0.5, 10.0 + 1e-9, 0.001)
    plan_ids = sorted(at_one)
    cost_matrix = np.array([[at_one[p][0] + k * at_one[p][1] for k in fine] for p in plan_ids])
    argmin = np.argmin(cost_matrix, axis=0)
    changes = [fine[i] for i in range(1, len(fine)) if argmin[i] != argmin[i - 1]]

    expected_first = 90.0 / (105.0 - 52.79)
    expected_second = (315.0 - 90.0) / 52.79
    if len(intervals) == 3:
        first, second = intervals[0].k_end, intervals[1].k_end
        if abs(first - expected_first) > 0.02:
            failures.append(f"first crossing {first:.4f} not within 0.02 of {expected_first:.4f}")
        if abs(second - expected_second) > 0.02:
            failures.append(f"second crossing {second:.4f} not within 0.02 of {expected_second:.4f}")
        if len(changes) != 2 or abs(changes[0] - first) > 0.002 or abs(changes[1] - second) > 0.002:
            failures.append(f"fine-grid oracle crossings {changes} disagree")

    optimal = swept.optimal_costs
    if not (np.diff(optimal, n=2) <= 1e-9).all():
        failures.append("optimal cost curve is not concave")
    stay = swept.costs[swept.stay].tolist()
    for j, (k, best_cost, stay_cost) in enumerate(zip(swept.ks.tolist(), optimal.tolist(), stay)):
        if best_cost > stay_cost + 1e-9:
            failures.append(f"optimal above stay cost at k={k}")
        for plan_id, cost in costs_at(swept, j).items():
            fixed, var = at_one[plan_id]
            if abs(cost - (fixed + k * var)) > 1e-9 * max(1.0, cost):
                failures.append(f"plan {plan_id} not affine in k at k={k}")
    _finish("4 sensitivity structure", t0, 5.0, failures)


def test_criterion_5_regression_quality(mts_catalog, reference_profile):
    """R^2 grows strictly from linear to quadratic to cubic on the engine's
    own sweep; `fit_report`'s least-squares fit (`_fit`) recovers noiseless
    polynomials of degrees 1-3."""
    t0 = perf_counter()
    failures = []
    points = sweep(mts_catalog, mts_catalog.context, reference_profile, k_grid(0.5, 10.0, 0.5))
    fits = fit_report(points)
    r2 = (
        fits["optimal_linear"].r_squared,
        fits["optimal_quadratic"].r_squared,
        fits["optimal_cubic"].r_squared,
    )
    if not (r2[0] < r2[1] < r2[2]):
        failures.append(f"R^2 progression broken: {r2}")

    polynomials = {
        1: (4.0, -2.5),
        2: (13.5, 81.60, -5.28),
        3: (24.83, 115.60, -12.65, 0.45),
    }
    xs = np.linspace(0.5, 10.0, 15)
    for degree, coefs in polynomials.items():
        ys = np.array([sum(c * x**p for p, c in enumerate(coefs)) for x in xs])
        fit = _fit(f"degree-{degree}", _powers(xs, degree), _Series(ys), degree, intercept=True)
        if any(abs(a - b) > 1e-6 for a, b in zip(fit.coefficients, coefs)):
            failures.append(f"degree-{degree} coefficients {fit.coefficients} != {coefs}")
        if abs(fit.r_squared - 1.0) > 1e-9:
            failures.append(f"degree-{degree} R^2 {fit.r_squared} != 1")
    _finish("5 regression quality", t0, 1.0, failures)


# --------------------------------------------------------------------------
# criterion 6: randomized property suites


def _random_payoff(rng) -> PayoffFunction:
    n_cuts = rng.integers(0, 5)
    cuts = sorted(set(rng.integers(2, 400, size=n_cuts).tolist()))
    starts = [1] + cuts
    segments = []
    for i, start in enumerate(starts):
        rate = Decimal(str(round(float(rng.uniform(0, 50)), 2)))
        if i + 1 < len(starts):
            segments.append(RateSegment(start, starts[i + 1] - 1, rate))
        else:
            segments.append(RateSegment(start, None, rate))
    return PayoffFunction(tuple(segments))


def _random_plan(rng, plan_id) -> BillingPlan:
    rules = []
    for i in range(rng.integers(0, 4)):
        dest = str(rng.choice(DESTINATION_CLASSES + ("any",)))
        day = str(rng.choice(DAY_CLASSES + ("any",)))
        if dest == "any" and day == "any":
            day = str(rng.choice(DAY_CLASSES))
        rules.append(SubgroupRule(f"group-{i}", dest, day))
    rules.append(SubgroupRule("rest", "any", "any"))
    fees = [Decimal(int(rng.integers(0, 2000))) for _ in range(3)]
    return BillingPlan(
        id=plan_id,
        name=f"plan-{plan_id}",
        provider="ACME",
        active=True,
        fixed=FixedCostSpec(*fees),
        subgroups=tuple((rule, _random_payoff(rng)) for rule in rules),
    )


def _random_catalog(rng) -> Catalog:
    plans = tuple(_random_plan(rng, i + 1) for i in range(rng.integers(1, 5)))
    return Catalog(
        plans=plans,
        context=SubscriberContext(current_plan_id=1, owned_sim_providers=frozenset({"ACME"})),
    )


def _random_profile(rng) -> TrafficProfile:
    model = Exponential(mu=float(rng.uniform(0.05, 3.0)))
    cells = tuple(
        TrafficCell(dest, day, float(rng.uniform(0, 50)), model)
        for dest, day in ALL_CALL_CLASSES
    )
    return TrafficProfile(cells=cells, observation_months=1.0)


def test_criterion_6_property_suites(mts_catalog):
    """Randomized invariants (>= 1000 cases): payoff partition, classification
    partition, identical row totals, cost-engine linearity and ranking shift
    invariance, simulation reproducibility, exponential mass monotonicity."""
    t0 = perf_counter()
    failures = []
    rng = np.random.default_rng(20260808)
    cases = 0

    # payoff segments partition the minute axis
    for _ in range(300):
        payoff = _random_payoff(rng)
        minute = int(rng.integers(1, 1000))
        containing = [
            s for s in payoff.segments
            if s.from_minute <= minute and (s.to_minute is None or minute <= s.to_minute)
        ]
        if len(containing) != 1 or payoff.rate_at(minute) != float(containing[0].rate):
            failures.append(f"payoff partition broken at minute {minute}")
            break
        cases += 1

    # classification partition + identical row totals
    for _ in range(250):
        plan = _random_plan(rng, 1)
        profile = _random_profile(rng)
        for (dest, day), j in zip(ALL_CALL_CLASSES, plan.routes):
            matching = [i for i, (r, _) in enumerate(plan.subgroups) if r.matches(dest, day)]
            if matching[0] != j:
                failures.append("first-match classification broken")
        if abs(sum(profile.lambda_for(plan)) - profile.total_rate) > 1e-9:
            failures.append("row total differs from profile total")
            break
        cases += 1

    # linearity of the cost engine and ranking invariance under fixed shifts
    for _ in range(150):
        catalog = _random_catalog(rng)
        profile = _random_profile(rng)
        breakdowns = full_costs(catalog, catalog.context, profile)
        for b in breakdowns:
            recomputed = b.fixed + sum(s.monthly_cost for s in b.subgroups)
            if not math.isclose(b.full, recomputed, rel_tol=1e-12, abs_tol=1e-9):
                failures.append("full != fixed + sum of subgroup costs")
        shift = float(rng.uniform(0, 1000))
        shifted = [
            CostBreakdown(b.plan_id, b.plan_name, b.is_current, b.subgroups, b.variable,
                          b.fixed + shift)
            for b in breakdowns
        ]
        if rank(shifted).order != rank(breakdowns).order:
            failures.append("ranking changed under constant fixed-cost shift")
            break
        scaled_profile = profile.scaled(3.0)
        for before, after in zip(breakdowns, full_costs(catalog, catalog.context, scaled_profile)):
            if not math.isclose(after.variable, 3.0 * before.variable, rel_tol=1e-9, abs_tol=1e-9):
                failures.append("variable cost not linear in traffic volume")
                break
        cases += 1

    # simulation reproducibility: bit-identical reruns
    for _ in range(30):
        config = SimConfig(
            seed=int(rng.integers(0, 2**32)),
            runs=int(rng.integers(1, 4)),
            cells=(
                TrafficCell(
                    "landline", "workday", float(rng.uniform(0.5, 10)), Exponential(float(rng.uniform(0.2, 2)))
                ),
            ),
        )
        if run(config, mts_catalog).to_json() != run(config, mts_catalog).to_json():
            failures.append("simulation rerun not bit-identical")
            break
        cases += 1

    # discretized exponential mass monotonicity: S(t-1) - S(t) as priced
    for _ in range(300):
        mu = float(rng.uniform(0.01, 4.0))
        truncation = int(rng.integers(1, 300))
        if mu * truncation >= 700:  # float64 underflow region
            truncation = max(1, int(650 / mu))
        masses = -np.diff(Exponential(mu=mu).survivals(range(truncation + 1)))
        ok = (masses > 0).all() and (np.diff(masses) < 0).all() and abs(
            masses.sum() - (1 - math.exp(-mu * truncation))
        ) < 1e-12
        if not ok:
            failures.append(f"exponential masses broken for mu={mu}, T={truncation}")
            break
        cases += 1

    if cases < 1000:
        failures.append(f"only {cases} randomized cases executed")
    _finish("6 property suites", t0, 60.0, failures)
