"""Traffic-growth sweep, switch-point, and regression tests."""

from __future__ import annotations

import math
from decimal import Decimal

import numpy as np
import pytest

from tariffopt import (
    Catalog,
    ProfileError,
    SubscriberContext,
    TrafficCell,
    TrafficProfile,
    fit_report,
    full_costs,
    k_grid,
    rank,
    sweep,
    switch_points,
)

from tariffopt.catalog import ALL_CALL_CLASSES
from tariffopt.sensitivity import MAX_GRID_POINTS, Sweep, _fit, _powers, _Series

from conftest import costs_at, make_reference_profile, optimal_ids

GRID = k_grid(0.5, 10.0, 0.5)


@pytest.fixture(scope="module")
def reference_sweep(mts_catalog):
    return sweep(
        mts_catalog, mts_catalog.context, make_reference_profile(), GRID
    )


def test_k_grid_endpoints():
    grid = k_grid(0.5, 10.0, 0.5)
    assert grid[0] == 0.5 and grid[-1] == 10.0 and len(grid) == 20
    with pytest.raises(ValueError):
        k_grid(0, 1, 0.5)


def test_k_grid_rejects_coinciding_points():
    # rounded to 12 decimals, every point of this grid is 1.0
    with pytest.raises(ProfileError, match="coincide"):
        k_grid(1.0, 1.0000000000001, 1e-14)
    assert len(k_grid(1.0, 1.00000000001, 1e-12)) == 11


def test_k_grid_point_limit():
    limit = MAX_GRID_POINTS
    with pytest.raises(ProfileError, match=f"more than {limit} points"):
        k_grid(1.0, 1.0 + limit, 1.0)
    # a step so small that the point count overflows to inf
    with pytest.raises(ProfileError, match=f"more than {limit} points"):
        k_grid(0.5, 10.0, 1e-320)
    grid = k_grid(1.0, float(limit), 1.0)
    assert len(grid) == limit and grid[-1] == limit


def test_scale_traffic_identity_and_linearity(mts_catalog):
    profile = make_reference_profile()
    assert profile.scaled(1.0).cells == profile.cells
    doubled = profile.scaled(2.0)
    assert doubled.lambda_for(mts_catalog.plan(6)) == pytest.approx((66.0, 12.0))
    halved = profile.scaled(0.5)
    assert halved.total_rate == pytest.approx(19.5)


def test_sweep_at_unit_multiplier_reproduces_rank(mts_catalog, reference_sweep):
    profile = make_reference_profile()
    j = reference_sweep.ks.tolist().index(1.0)
    assert optimal_ids(reference_sweep)[j] == 6
    assert reference_sweep.optimal_costs[j] == pytest.approx(105.0, abs=1e-9)
    single = sweep(mts_catalog, mts_catalog.context, profile, [1.0])
    ranking = rank(full_costs(mts_catalog, mts_catalog.context, profile))
    assert optimal_ids(single) == [ranking.optimal_id]
    assert costs_at(single, 0) == {
        b.plan_id: b.full for b in full_costs(mts_catalog, mts_catalog.context, profile)
    }


def test_sweep_at_k10_plan2_wins_by_brute_force(mts_catalog, reference_sweep):
    j = reference_sweep.ks.tolist().index(10.0)
    # brute force: recompute every plan's cost at k=10 independently
    scaled = make_reference_profile().scaled(10.0)
    costs = {b.plan_id: b.full for b in full_costs(mts_catalog, mts_catalog.context, scaled)}
    best = min(costs, key=costs.get)
    assert best == 2
    assert optimal_ids(reference_sweep)[j] == 2
    assert costs_at(reference_sweep, j) == pytest.approx(costs)


def test_sweep_requires_sorted_nonempty_grid(mts_catalog):
    profile = make_reference_profile()
    with pytest.raises(ValueError):
        sweep(mts_catalog, mts_catalog.context, profile, [])
    with pytest.raises(ValueError):
        sweep(mts_catalog, mts_catalog.context, profile, [2.0, 1.0])
    with pytest.raises(ProfileError):
        sweep(mts_catalog, mts_catalog.context, profile, [0.0, 1.0])
    for grid in ([math.nan], [1.0, math.inf], [0.5, math.nan, 2.0], [-math.inf, 1.0]):
        with pytest.raises(ProfileError, match="traffic multiplier must be finite"):
            sweep(mts_catalog, mts_catalog.context, profile, grid)


def test_sweep_takes_an_array_grid(mts_catalog):
    profile = make_reference_profile()
    listed = sweep(mts_catalog, mts_catalog.context, profile, GRID)
    swept = sweep(mts_catalog, mts_catalog.context, profile, np.array(GRID))
    assert swept.plan_ids == listed.plan_ids and swept.stay == listed.stay
    for name in ("ks", "fixed", "variable", "costs", "optimal"):
        got, want = getattr(swept, name), getattr(listed, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    for grid, message in (
        (np.array([]), "empty multiplier grid"),
        (np.ones((2, 2)), "multiplier grid must be one-dimensional"),
        (np.array([1.0, math.nan]), "traffic multiplier must be finite, got nan"),
        (np.array([2.0, 1.0]), "multiplier grid must be sorted"),
        (np.array([0.0, 1.0]), "traffic multiplier must be positive, got 0.0"),
    ):
        with pytest.raises(ProfileError, match=message):
            sweep(mts_catalog, mts_catalog.context, profile, grid)


def test_full_cost_affine_in_k(mts_catalog, reference_sweep):
    """full(k) = fixed + k * (full(1) - fixed), checked across the grid."""
    at_one = {
        b.plan_id: (b.fixed, b.full)
        for b in full_costs(mts_catalog, mts_catalog.context, make_reference_profile())
    }
    for j, k in enumerate(reference_sweep.ks.tolist()):
        for plan_id, cost in costs_at(reference_sweep, j).items():
            fixed, full_at_one = at_one[plan_id]
            expected = fixed + k * (full_at_one - fixed)
            assert cost == pytest.approx(expected, abs=1e-9)


def test_optimal_never_above_stay(reference_sweep):
    stay = reference_sweep.costs[reference_sweep.stay].tolist()
    for best_cost, stay_cost in zip(reference_sweep.optimal_costs.tolist(), stay):
        assert best_cost <= stay_cost + 1e-9


def test_a_sweep_cannot_be_changed_after_it_is_checked(mts_catalog):
    swept = sweep(mts_catalog, mts_catalog.context, make_reference_profile(), GRID)
    before = switch_points(swept), fit_report(swept)
    with pytest.raises(ValueError, match="read-only"):
        swept.costs[:, 0] = 1e9
    for name in ("ks", "fixed", "variable", "costs", "optimal"):
        array = getattr(swept, name)
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[-1]
    assert (switch_points(swept), fit_report(swept)) == before


def test_optimal_curve_concave(reference_sweep):
    """Pointwise minimum of affine functions: second differences <= 0."""
    values = reference_sweep.optimal_costs.tolist()
    second = np.diff(values, n=2)
    assert (second <= 1e-9).all()


def test_switch_sequence_and_crossings(mts_catalog, reference_sweep):
    intervals = switch_points(reference_sweep)
    assert [iv.plan_id for iv in intervals] == [6, 1, 2]
    # affine crossings solved by hand: 105k = var1*k + 90 and var1*k + 90 = 315
    var1 = next(
        b.variable
        for b in full_costs(mts_catalog, mts_catalog.context, make_reference_profile())
        if b.plan_id == 1
    )
    first = 90.0 / (105.0 - var1)
    second = (315.0 - 90.0) / var1
    assert intervals[0].k_end == pytest.approx(first, abs=1e-6)
    assert intervals[1].k_start == pytest.approx(first, abs=1e-6)
    assert intervals[1].k_end == pytest.approx(second, abs=1e-6)
    assert intervals[0].k_start == 0.5 and intervals[-1].k_end == 10.0


def test_switch_points_single_plan():
    import json

    from tariffopt import Exponential, TrafficCell, TrafficProfile, load_catalog

    doc = {
        "plans": [
            {
                "id": 1,
                "name": "Only",
                "provider": "ACME",
                "active": True,
                "fixed": {"subscription_fee": 10, "switch_fee": 0, "purchase_cost": 0},
                "subgroups": [
                    {
                        "name": "All",
                        "destination_class": "any",
                        "day_class": "any",
                        "segments": [{"from": 1, "to": "open", "rate": "2"}],
                    }
                ],
            }
        ],
        "context": {"current_plan_id": 1, "owned_sim_providers": ["ACME"]},
    }
    catalog = load_catalog(json.dumps(doc))
    profile = TrafficProfile(
        cells=(TrafficCell("landline", "workday", 5.0, Exponential(mu=0.5)),),
        observation_months=1.0,
    )
    points = sweep(catalog, catalog.context, profile, k_grid(1, 5, 1))
    intervals = switch_points(points)
    assert len(intervals) == 1
    assert (intervals[0].k_start, intervals[0].k_end, intervals[0].plan_id) == (1.0, 5.0, 1)


def test_switch_points_tied_identical_plans():
    import json

    from tariffopt import Exponential, TrafficCell, TrafficProfile, load_catalog

    plan = {
        "name": "Twin",
        "provider": "ACME",
        "active": True,
        "fixed": {"subscription_fee": 10, "switch_fee": 0, "purchase_cost": 0},
        "subgroups": [
            {
                "name": "All",
                "destination_class": "any",
                "day_class": "any",
                "segments": [{"from": 1, "to": "open", "rate": "2"}],
            }
        ],
    }
    doc = {
        "plans": [dict(plan, id=1), dict(plan, id=2)],
        "context": {"current_plan_id": 2, "owned_sim_providers": ["ACME"]},
    }
    catalog = load_catalog(json.dumps(doc))
    profile = TrafficProfile(
        cells=(TrafficCell("landline", "workday", 5.0, Exponential(mu=0.5)),),
        observation_months=1.0,
    )
    points = sweep(catalog, catalog.context, profile, k_grid(1, 5, 1))
    intervals = switch_points(points)
    assert len(intervals) == 1
    assert intervals[0].plan_id == 2  # tie resolved toward the current plan


def flat_plans_sweep(plans, current_plan_id, grid=None):
    """Sweep single-subgroup flat-rate plans, given as (id, fee, rate), at one
    call a month, whose cost is the rate, over `grid` or the default grid."""
    import json

    from tariffopt import Exponential, TrafficCell, TrafficProfile, load_catalog

    doc = {
        "plans": [
            {
                "id": plan_id,
                "name": f"Flat {plan_id}",
                "provider": "ACME",
                "active": True,
                "fixed": {"subscription_fee": fee, "switch_fee": 0, "purchase_cost": 0},
                "subgroups": [
                    {
                        "name": "All",
                        "destination_class": "any",
                        "day_class": "any",
                        "segments": [{"from": 1, "to": "open", "rate": rate}],
                    }
                ],
            }
            for plan_id, fee, rate in plans
        ],
        "context": {"current_plan_id": current_plan_id, "owned_sim_providers": ["ACME"]},
    }
    catalog = load_catalog(json.dumps(doc))
    profile = TrafficProfile(
        cells=(TrafficCell("landline", "workday", 1.0, Exponential(mu=0.5)),),
        observation_months=1.0,
    )
    return sweep(catalog, catalog.context, profile, grid or k_grid())


def test_switch_points_find_plan_optimal_between_grid_points():
    """Plan 3 wins only for k in [16/4.95, 16.5/5.05], inside one 0.5 grid step."""
    points = flat_plans_sweep([(1, "0", "10"), (2, "32.5", "0"), (3, "16", "5.05")], 1)
    intervals = switch_points(points)
    assert [iv.plan_id for iv in intervals] == [1, 3, 2]
    assert intervals[0].k_end == pytest.approx(16 / 4.95, abs=1e-9)
    assert intervals[1].k_start == intervals[0].k_end
    assert intervals[1].k_end == pytest.approx(16.5 / 5.05, abs=1e-9)
    assert intervals[2].k_start == intervals[1].k_end


def test_switch_points_enter_tied_plans_at_the_current_one():
    """Identical plans 1 and 2 take over from plan 3 at k = 1.25; the current
    plan 2 wins the tie there, as rank picks it at every later grid point."""
    points = flat_plans_sweep([(1, "10", "2"), (2, "10", "2"), (3, "0", "10")], 2)
    assert {pid for k, pid in zip(points.ks.tolist(), optimal_ids(points)) if k > 1.25} == {2}
    intervals = switch_points(points)
    assert [iv.plan_id for iv in intervals] == [3, 2]
    assert intervals[0].k_end == pytest.approx(1.25, abs=1e-9)


def test_switch_points_name_the_current_plan_among_identical_lines():
    """Identical plans 3 and 4 are optimal only between two grid points; the
    current plan 4 must be named, as rank would name it there."""
    points = flat_plans_sweep(
        [(1, "0", "10"), (2, "32.5", "0"), (3, "16", "5.05"), (4, "16", "5.05")], 4
    )
    assert [iv.plan_id for iv in switch_points(points)] == [1, 4, 2]


def test_switch_points_take_the_cheaper_of_near_parallel_lines():
    """Plans 2 and 3 differ only by 1e-8 in the fee; once they undercut plan 1,
    the cheaper plan 2 is optimal, as on every later grid point, though plan 3
    is current."""
    points = flat_plans_sweep([(1, "0", "8.90"), (2, "31.98", "3.65"), (3, "31.98000001", "3.65")], 3)
    intervals = switch_points(points)
    assert [iv.plan_id for iv in intervals] == [1, 2]
    assert {pid for k, pid in zip(points.ks.tolist(), optimal_ids(points)) if k > intervals[0].k_end} == {2}


@pytest.mark.parametrize("steep, flat", [(1, 2), (2, 1)])
def test_switch_points_start_on_the_exactly_lowest_line(steep, flat):
    """The steep plan's line 1 + 1.5 ulp(1) k crosses the current flat plan's
    line 1 + ulp(1) at k = 2/3. At k = 0.5 both costs round to 1 + ulp(1);
    exactly, the steep plan is cheaper. The walk starts on the exactly lowest
    line at the first point, whichever order the plans come in, and the
    sweep names that line there too."""
    points = flat_plans_sweep(
        sorted([(steep, "1", str(Decimal(1.5 * 2**-52))), (flat, str(Decimal(1 + 2**-52)), "0")]), flat
    )
    assert optimal_ids(points)[0] == steep
    intervals = switch_points(points)
    assert [(iv.k_start, iv.k_end, iv.plan_id) for iv in intervals] == [
        (0.5, 0.6666666666666666, steep), (0.6666666666666666, 10.0, flat)
    ]


def test_switch_points_name_the_sweeps_optimum_on_a_one_point_tie():
    """Plans 1 and 2 both cost 11 at k = 0.5. The sweep names the current
    plan 1 there, and so does the one interval, though plan 2, the flatter
    line, is cheaper just past it."""
    points = flat_plans_sweep([(1, "10", "2"), (2, "10.5", "1")], 1, [0.5])
    assert costs_at(points, 0) == {1: 11.0, 2: 11.0}
    intervals = switch_points(points)
    assert [(iv.k_start, iv.k_end, iv.plan_id) for iv in intervals] == [(0.5, 0.5, 1)]
    assert optimal_ids(points) == [1]


def test_switch_points_do_not_walk_the_crossings_below_the_grid():
    """Plans 2 and 3 cross plan 1 about 1e-10 and 2e-10 past k = 0, far
    closer together than the walk's touch tolerance, yet plan 2 stays
    lowest until it meets plan 3 near k = 3.3: a walk from k = 0 that took
    those crossings as one point would jump straight to plan 3."""
    points = flat_plans_sweep([(1, "1", "1"), (2, "1.0000000001", "3e-11"), (3, "1.0000000002", "0")], 1)
    crossing = (points.fixed[2] - points.fixed[1]) / points.variable[1]
    intervals = switch_points(points)
    assert [(iv.k_start, iv.k_end, iv.plan_id) for iv in intervals] == [(0.5, crossing, 2), (crossing, 10.0, 3)]
    assert 3.3 < crossing < 3.4


def test_switch_points_leave_no_slivers_where_lines_meet():
    """Four lines through one point: the ones that only touch the envelope
    there get no interval, and the intervals still tile the grid."""
    rng = np.random.default_rng(5)
    for _ in range(300):
        k_star = int(rng.integers(6, 95)) / 10  # a crossing between grid points
        rates = rng.choice(np.arange(1, 2001), size=4, replace=False) / 100
        cost = int(rng.integers(0, 5000)) / 100 + k_star * rates.max()
        plans = [
            (pid, f"{cost - k_star * rate:.4f}", f"{rate:.2f}")
            for pid, rate in enumerate(rates, start=1)
        ]
        intervals = switch_points(flat_plans_sweep(plans, 1))
        assert intervals[0].k_start == 0.5 and intervals[-1].k_end == 10.0
        for left, right in zip(intervals, intervals[1:]):
            assert left.k_end == right.k_start
        assert all(iv.k_end - iv.k_start >= 1e-9 for iv in intervals), intervals


# --------------------------------------------------------------------------
# regression


def fit_points(points, degree, intercept):
    """`fit_report`'s least-squares fit of one degree on (x, y) points."""
    x, y = np.array(points, dtype=float).T
    design = np.ascontiguousarray(_powers(x, degree)[:, (0 if intercept else 1) :])
    return _fit(f"degree-{degree}", design, _Series(y), degree, intercept)


def test_polyfit_exact_line_through_origin_data():
    points = [(x, 2.0 * x) for x in (1.0, 2.0, 3.0, 4.0)]
    fit = fit_points(points, degree=1, intercept=True)
    assert fit.coefficients == pytest.approx((0.0, 2.0), abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0)


def test_polyfit_recovers_quadratic():
    def f(x):
        return 13.5 + 81.60 * x - 5.28 * x * x

    points = [(x, f(x)) for x in np.linspace(0.5, 10.0, 12)]
    fit = fit_points(points, degree=2, intercept=True)
    assert fit.coefficients == pytest.approx((13.5, 81.60, -5.28), abs=1e-6)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_polyfit_constant_response_degenerate():
    points = [(x, 4.0) for x in (1.0, 2.0, 3.0)]
    fit = fit_points(points, degree=1, intercept=True)
    assert fit.coefficients[1] == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared == 0.0


def test_polyfit_no_intercept_uncentered_r2():
    # hand-checked: x = (1, 2), y = (1, 3); slope = (1+6)/(1+4) = 1.4
    fit = fit_points([(1.0, 1.0), (2.0, 3.0)], degree=1, intercept=False)
    assert fit.coefficients == pytest.approx((1.4,), abs=1e-12)
    ss_res = (1 - 1.4) ** 2 + (3 - 2.8) ** 2
    ss_tot = 1.0 + 9.0
    assert fit.r_squared == pytest.approx(1 - ss_res / ss_tot, abs=1e-12)


def test_polyfit_predict_roundtrip():
    points = [(x, 1.0 + 2.0 * x + 0.5 * x**2) for x in (0.0, 1.0, 2.0, 3.0)]
    fit = fit_points(points, degree=2, intercept=True)
    for x, y in points:
        assert np.polyval(fit.coefficients[::-1], x) == pytest.approx(y, abs=1e-9)


def test_fit_report_model_forms(reference_sweep):
    fits = fit_report(reference_sweep)
    assert set(fits) == {
        "stay_linear_origin",
        "optimal_linear_origin",
        "optimal_linear",
        "optimal_quadratic",
        "optimal_cubic",
    }
    assert fits["stay_linear_origin"].coefficients == pytest.approx((105.0,), abs=1e-9)
    assert fits["stay_linear_origin"].r_squared == pytest.approx(1.0)
    # nested models with intercept: more degrees never fit worse
    r2 = [
        fits["optimal_linear"].r_squared,
        fits["optimal_quadratic"].r_squared,
        fits["optimal_cubic"].r_squared,
    ]
    assert r2[0] < r2[1] < r2[2]
    # a concave target pushes the quadratic term negative
    assert fits["optimal_quadratic"].coefficients[2] <= 0.0


def test_fit_report_needs_five_points(mts_catalog):
    points = sweep(mts_catalog, mts_catalog.context, make_reference_profile(), GRID[:4])
    with pytest.raises(ValueError, match="at least 5"):
        fit_report(points)


def test_fit_report_rejects_points_at_one_multiplier(mts_catalog):
    points = sweep(mts_catalog, mts_catalog.context, make_reference_profile(), [2.0] * 5)
    with pytest.raises(ProfileError, match="x values are all identical"):
        fit_report(points)


def hand_built_sweep(ks, fixed=1.0, variable=2.0):
    """One plan's `Sweep` over `ks` as given, which `sweep` would not check:
    they need not be sorted."""
    ks = np.array(ks, dtype=float)
    costs = (variable * ks + fixed)[None, :]
    return Sweep(ks, (1,), np.array([fixed]), np.array([variable]), costs, np.zeros(ks.size, dtype=np.intp))


def test_fit_report_rejects_a_grid_whose_cube_alone_overflows():
    swept = hand_built_sweep([1.0, 2.0, 3.0, 4.0, 1e103])
    assert math.isfinite(1e103**2) and np.isfinite(swept.costs).all()
    with pytest.raises(ProfileError, match=r"grid from k=1\.0 to k=1e\+103 is too wide to fit"):
        fit_report(swept)


def test_fit_report_fits_an_unsorted_grid_with_equal_ends():
    """Equal first and last multipliers do not make every multiplier equal."""
    fits = fit_report(hand_built_sweep([1.0, 2.0, 5.0, 3.0, 1.0]))
    assert fits["optimal_linear"].coefficients == pytest.approx((1.0, 2.0))
    assert fits["optimal_linear"].r_squared == pytest.approx(1.0)


def test_sweep_rejects_costs_that_overflow_at_the_last_multiplier(mts_catalog):
    profile = make_reference_profile()
    with pytest.raises(ProfileError, match=r"plan costs overflow at traffic multiplier 1e\+308"):
        sweep(mts_catalog, mts_catalog.context, profile, [1.0, 1e300, 1e308])
    points = sweep(mts_catalog, mts_catalog.context, profile, [1.0, 1e300])
    assert all(math.isfinite(cost) for cost in costs_at(points, -1).values())


def test_fit_report_single_flat_plan_affine():
    import json

    from tariffopt import Exponential, TrafficCell, TrafficProfile, load_catalog

    doc = {
        "plans": [
            {
                "id": 1,
                "name": "Flat",
                "provider": "ACME",
                "active": True,
                "fixed": {"subscription_fee": 7, "switch_fee": 0, "purchase_cost": 0},
                "subgroups": [
                    {
                        "name": "All",
                        "destination_class": "any",
                        "day_class": "any",
                        "segments": [{"from": 1, "to": "open", "rate": "3"}],
                    }
                ],
            }
        ],
        "context": {"current_plan_id": 1, "owned_sim_providers": ["ACME"]},
    }
    catalog = load_catalog(json.dumps(doc))
    profile = TrafficProfile(
        cells=(TrafficCell("landline", "workday", 10.0, Exponential(mu=0.5)),),
        observation_months=1.0,
    )
    points = sweep(catalog, catalog.context, profile, k_grid(1, 6, 1))
    fits = fit_report(points)
    assert fits["optimal_linear"].r_squared == pytest.approx(1.0)
    assert fits["optimal_linear"].coefficients[0] == pytest.approx(7.0, abs=1e-9)


def test_distinct_optimal_plans_bounded_by_candidates(mts_catalog, reference_sweep):
    distinct = set(optimal_ids(reference_sweep))
    assert len(distinct) <= len(mts_catalog.switch_candidates())


def test_sweep_rejects_an_unknown_billing_mode_when_nothing_is_billed(mts_catalog):
    idle = TrafficProfile(
        cells=tuple(TrafficCell(dest, day, 0.0, None) for dest, day in ALL_CALL_CLASSES),
        observation_months=1.0,
    )
    with pytest.raises(ValueError, match="unknown billing mode 'bogus'"):
        sweep(mts_catalog, mts_catalog.context, idle, GRID, "bogus")
