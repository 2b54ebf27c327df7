"""Monte-Carlo oracle tests: generator statistics, billing semantics,
reproducibility, and agreement with the analytic engine."""

from __future__ import annotations

import math

import numpy as np
import pytest

from tariffopt import (
    Exponential,
    SimCell,
    SimConfig,
    SimulationError,
    bill_call,
    full_costs,
    generate_months,
    replay_trace,
    run,
    substream,
)
from tariffopt import simulate


def one_cell_config(lam, mu, runs, seed=7, mode="lookup"):
    return SimConfig(
        seed=seed,
        runs=runs,
        cells=(SimCell("same-network", "workday", lam, mu),),
        billing_mode=mode,
    )


def one_cell(lam, mu=0.41):
    return SimCell("same-network", "workday", lam, mu)


def test_zero_rate_generates_nothing():
    counts, durations = generate_months(one_cell(0.0), 5, substream(7, 0, 0))
    assert counts.tolist() == [0] * 5
    assert durations.size == 0


def test_poisson_count_mean():
    """lambda=33: the mean monthly count over 1e4 runs sits within 3 SE."""
    counts, _ = generate_months(one_cell(33.0), 10_000, substream(11, 0, 0))
    tolerance = 3 * math.sqrt(33.0 / 10_000)
    assert abs(np.mean(counts) - 33.0) <= tolerance


def test_poisson_count_variance():
    """lambda=33: the sample variance of the monthly count sits within 3 SE
    of lambda; for a Poisson count Var(s^2) ~ (lambda + 2 lambda^2) / n."""
    counts, _ = generate_months(one_cell(33.0), 10_000, substream(12, 0, 0))
    tolerance = 3 * math.sqrt((33.0 + 2 * 33.0**2) / 10_000)
    assert abs(np.var(counts, ddof=1) - 33.0) <= tolerance


def test_exponential_duration_mean():
    _, durations = generate_months(one_cell(33.0), 3_000, substream(13, 0, 0))
    se = durations.std(ddof=1) / math.sqrt(durations.size)
    assert abs(durations.mean() - 1 / 0.41) <= 3 * se


def test_generate_months_deterministic_per_chunk_and_cell():
    cell = one_cell(10.0, 0.5)
    a = generate_months(cell, 64, substream(99, 2, 0))
    b = generate_months(cell, 64, substream(99, 2, 0))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    for other in (substream(99, 3, 0), substream(99, 2, 1), substream(98, 2, 0)):
        assert not np.array_equal(a[1], generate_months(cell, 64, other)[1])


class _FixedGaps:
    """Stub stream: every inter-arrival gap is exactly 1/64 of a month."""

    def __init__(self):
        self.rng = np.random.default_rng(0)

    def exponential(self, scale, size):
        if scale == 1.0 / 10.0:  # gaps
            return np.full(size, 1.0 / 64)
        return self.rng.exponential(scale, size)


def test_generate_months_extends_rows_that_end_before_the_month():
    """lambda=10 draws 46 gaps per row, so 1/64 gaps overflow every row; the
    extension must still count exactly the 63 arrivals below 1."""
    counts, durations = generate_months(one_cell(10.0), 5, _FixedGaps())
    assert counts.tolist() == [63] * 5
    assert durations.size == 5 * 63


def test_bill_call_lookup(mts_catalog):
    payoff = mts_catalog.plan(1).subgroups[0][1]  # 2.5 / free minutes 2-5 / 2.5
    assert bill_call(payoff, 3.2) == 0.0  # billed minute 4 is free
    assert bill_call(payoff, 0.5) == 2.5
    assert bill_call(payoff, 5.5) == 2.5  # billed minute 6


def test_bill_call_flat_rate():
    from decimal import Decimal

    from tariffopt import PayoffFunction, RateSegment

    payoff = PayoffFunction((RateSegment(1, None, Decimal("3.0")),))
    for duration in (0.1, 1.0, 2.7, 100.0):
        assert bill_call(payoff, duration) == 3.0


def test_bill_call_cumulative(mts_catalog):
    payoff = mts_catalog.plan(1).subgroups[0][1]
    # minutes 1..4 priced 2.5 + 0 + 0 + 0
    assert bill_call(payoff, 3.2, mode="cumulative") == 2.5
    # minutes 1..6: 2.5 + 0*4 + 2.5
    assert bill_call(payoff, 5.5, mode="cumulative") == 5.0


def test_bill_call_rejects_bad_input(mts_catalog):
    payoff = mts_catalog.plan(1).subgroups[0][1]
    with pytest.raises(ValueError):
        bill_call(payoff, 0.0)
    with pytest.raises(ValueError):
        bill_call(payoff, 1.0, mode="nonsense")


def test_cumulative_dominates_lookup(mts_catalog, reference_profile):
    """With non-negative rates, per-minute accumulation never bills less."""
    config = SimConfig.from_profile(reference_profile, seed=3, runs=200)
    lookup = {p.plan_id: p.mean for p in run(config, mts_catalog).plans}
    cumulative_config = SimConfig.from_profile(
        reference_profile, seed=3, runs=200, billing_mode="cumulative"
    )
    cumulative = {p.plan_id: p.mean for p in run(cumulative_config, mts_catalog).plans}
    for plan_id in lookup:
        assert cumulative[plan_id] >= lookup[plan_id] - 1e-12


def test_run_flat_plan_matches_analytic():
    """Flat 3-ruble plan at lambda=39: mean monthly cost ~ 117 within 3 SE."""
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
                        "segments": [{"from": 1, "to": "open", "rate": "3.0"}],
                    }
                ],
            }
        ],
        "context": {"current_plan_id": 1, "owned_sim_providers": ["ACME"]},
    }
    catalog = load_catalog(json.dumps(doc))
    config = one_cell_config(39.0, 0.41, runs=100_000, seed=123)
    sample = run(config, catalog).plans[0]
    assert abs(sample.mean - 117.0) <= 3 * sample.stderr


def test_run_zero_traffic_costs_nothing(mts_catalog):
    config = SimConfig(seed=5, runs=50, cells=(SimCell("landline", "weekend", 0.0, 1.0),))
    result = run(config, mts_catalog)
    for p in result.plans:
        assert p.mean == 0.0 and p.stddev == 0.0
        assert p.percentiles == (0.0, 0.0, 0.0)


def test_run_reproducible_bit_identical(mts_catalog, reference_profile):
    config = SimConfig.from_profile(reference_profile, seed=77, runs=300)
    first = run(config, mts_catalog)
    second = run(config, mts_catalog)
    assert first == second
    assert first.to_json() == second.to_json()


def test_run_percentiles_ordered(mts_catalog, reference_profile):
    config = SimConfig.from_profile(reference_profile, seed=9, runs=500)
    for p in run(config, mts_catalog).plans:
        p5, p50, p95 = p.percentiles
        assert p5 <= p50 <= p95
        assert p.stderr == pytest.approx(p.stddev / math.sqrt(500))


def test_oracle_equivalence_small(mts_catalog, reference_profile):
    """Sample means track the analytic variable costs (5 SE at 20k runs)."""
    config = SimConfig.from_profile(reference_profile, seed=21, runs=20_000)
    result = run(config, mts_catalog)
    analytic = {
        b.plan_id: b.variable
        for b in full_costs(mts_catalog, mts_catalog.context, reference_profile)
    }
    for p in result.plans:
        assert abs(p.mean - analytic[p.plan_id]) <= 5 * p.stderr + 1e-9


def test_from_profile_requires_exponential_durations(mts_catalog):
    from tariffopt import Empirical, TrafficCell, TrafficProfile

    profile = TrafficProfile(
        cells=(TrafficCell("landline", "workday", 2.0, Empirical((1.0,))),),
        observation_months=1.0,
    )
    with pytest.raises(SimulationError, match="exponential"):
        SimConfig.from_profile(profile, seed=1, runs=1)


def test_config_validation():
    with pytest.raises(SimulationError):
        SimConfig(seed=-1, runs=1, cells=())
    with pytest.raises(SimulationError):
        SimConfig(seed=1, runs=0, cells=())
    with pytest.raises(SimulationError):
        SimCell("landline", "workday", 1.0, 0.0)


def test_replay_trace_matches_direct_billing(mts_catalog):
    from datetime import date, time
    from decimal import Decimal

    from tariffopt import CallRecord, ClassifiedCall

    def call(dest, day, minute):
        rec = CallRecord(date(2010, 8, 20), time(9, 0), "+7", "", "Tel", minute * 60, Decimal("0"))
        return ClassifiedCall(rec, dest, day, minute)

    calls = [
        call("same-network", "workday", 1),
        call("same-network", "workday", 4),
        call("landline", "weekend", 2),
    ]
    per_plan = replay_trace(mts_catalog, calls, months=1.0)
    # plan 1: 2.5 (minute 1) + 0 (minute 4) + 3.5 (landline minute 2 -> free band) = 2.5
    assert per_plan[1] == pytest.approx(2.5 + 0.0 + 0.0)
    # plan 6: workdays 3 + 3, weekend 1
    assert per_plan[6] == pytest.approx(7.0)
    for months in (0.0, math.nan, math.inf):
        with pytest.raises(SimulationError, match="months must be positive and finite"):
            replay_trace(mts_catalog, calls, months=months)


def test_run_across_a_chunk_boundary_is_bit_identical(mts_catalog, reference_profile):
    config = SimConfig.from_profile(reference_profile, seed=5, runs=simulate.CHUNK_RUNS + 1)
    assert run(config, mts_catalog).to_json() == run(config, mts_catalog).to_json()


@pytest.mark.parametrize("mode", ["lookup", "cumulative"])
def test_run_mean_matches_call_by_call_billing(mts_catalog, reference_profile, monkeypatch, mode):
    """Redraw every chunk's months from its (seed, chunk, cell) stream and bill
    them one call at a time; small chunks put the runs in three chunks."""
    monkeypatch.setattr(simulate, "CHUNK_RUNS", 16)
    config = SimConfig.from_profile(reference_profile, seed=31, runs=40, billing_mode=mode)
    totals = dict.fromkeys((p.id for p in mts_catalog.plans), 0.0)
    for chunk, n in enumerate((16, 16, 8)):
        for ci, cell in enumerate(config.cells):
            _, durations = generate_months(cell, n, substream(31, chunk, ci))
            for plan in mts_catalog.plans:
                payoff = plan.subgroups[plan.subgroup_index(cell.destination_class, cell.day_class)][1]
                totals[plan.id] += sum(bill_call(payoff, d, mode) for d in durations)
    for p in run(config, mts_catalog).plans:
        assert abs(p.mean - totals[p.plan_id] / 40) <= 1e-9


def test_inactive_non_current_plan_is_billed_nowhere(mts_catalog, reference_profile):
    from datetime import date, time
    from decimal import Decimal

    from tariffopt import CallRecord, Catalog, ClassifiedCall, SubscriberContext

    ctx = SubscriberContext(current_plan_id=1, owned_sim_providers=frozenset({"MTS"}))
    moved = Catalog(plans=mts_catalog.plans, context=ctx)  # plan 6 is inactive
    expected = [1, 2, 3, 4, 5]
    assert [b.plan_id for b in full_costs(moved, ctx, reference_profile)] == expected
    config = SimConfig.from_profile(reference_profile, seed=1, runs=10)
    assert [p.plan_id for p in run(config, moved).plans] == expected
    record = CallRecord(date(2010, 8, 20), time(9, 0), "+7", "", "Tel", 60, Decimal("0"))
    calls = [ClassifiedCall(record, "landline", "workday", 1)]
    assert sorted(replay_trace(moved, calls, months=1.0)) == expected
