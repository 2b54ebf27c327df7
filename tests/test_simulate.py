"""Monte-Carlo oracle tests: generator statistics, billing semantics,
reproducibility, and agreement with the analytic engine."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tariffopt import (
    Empirical,
    Exponential,
    SimConfig,
    SimulationError,
    TrafficCell,
    TrafficProfile,
    full_costs,
    replay_trace,
    run,
)
from tariffopt import simulate
from tariffopt.simulate import generate_months, substream

from conftest import CATALOG_PATH, CDR_PATH, PREFIXES_PATH, charges, classified, first_match

SRC = Path(__file__).resolve().parents[1] / "src"


def one_cell_config(lam, mu, runs, seed=7, mode="lookup"):
    return SimConfig(
        seed=seed,
        runs=runs,
        cells=(TrafficCell("same-network", "workday", lam, Exponential(mu)),),
        billing_mode=mode,
    )


def one_cell(lam, mu=0.41):
    return TrafficCell("same-network", "workday", lam, Exponential(mu))


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


class _RecordingStream:
    """Stub stream: records every draw it is asked for and returns fixed
    counts and unit durations."""

    def __init__(self, counts):
        self.counts = np.array(counts)
        self.calls = []

    def poisson(self, lam, size):
        self.calls.append(("poisson", lam, size))
        return self.counts

    def exponential(self, scale, size):
        self.calls.append(("exponential", scale, size))
        return np.ones(size)


def test_generate_months_draws_one_poisson_count_per_month():
    """One Poisson draw gives every month's count and one exponential draw
    every duration; the counts come back as drawn."""
    stream = _RecordingStream([3, 0, 7, 1, 2])
    counts, durations = generate_months(one_cell(10.0, 0.5), 5, stream)
    assert stream.calls == [("poisson", 10.0, 5), ("exponential", 2.0, 13)]
    assert counts is stream.counts
    assert durations.size == 13


def bill_call(payoff, duration_minutes, mode="lookup"):
    """One call's charge: the rate of its billed minute ``max(1, ceil(d))``
    in `lookup` mode, the sum of every minute's rate up to it in `cumulative`."""
    minute = max(1, math.ceil(duration_minutes))
    if mode == "lookup":
        return payoff.rate_at(minute)
    return float(charges(payoff, [minute], "cumulative")[0])


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
    config = SimConfig(seed=5, runs=50, cells=(TrafficCell("landline", "weekend", 0.0, Exponential(1.0)),))
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


def test_from_profile_keeps_the_profile_cells_with_traffic():
    cells = (
        TrafficCell("same-network", "workday", 19.0, Exponential(0.41)),
        TrafficCell("same-network", "weekend", 0.0, None),
        TrafficCell("landline", "workday", 8.0, Exponential(0.5)),
        TrafficCell("landline", "weekend", 0.0, Empirical((1.0,))),
    )
    profile = TrafficProfile(cells=cells, observation_months=6.0)
    config = SimConfig.from_profile(profile, seed=3, runs=10, billing_mode="cumulative")
    assert config.cells == tuple(c for c in profile.cells if c.rate)
    assert config.cells == (cells[0], cells[2])
    assert (config.seed, config.runs, config.billing_mode) == (3, 10, "cumulative")
    # the constructor keeps the same cells, in the same order
    assert SimConfig(seed=3, runs=10, cells=cells, billing_mode="cumulative") == config


def test_a_config_draws_the_same_traffic_however_it_was_built(mts_catalog):
    """A cell without traffic takes no stream: stream `i` is the i-th cell
    with traffic, whether the cells came through the constructor or from a
    profile."""
    zero = TrafficCell("same-network", "workday", 0.0, None)
    a = TrafficCell("same-network", "weekend", 4.0, Exponential(0.41))
    b = TrafficCell("landline", "workday", 8.0, Exponential(0.41))
    profile = TrafficProfile(cells=(zero, a, b), observation_months=1.0)
    built = run(SimConfig(seed=3, runs=500, cells=profile.cells), mts_catalog)
    assert built == run(SimConfig.from_profile(profile, seed=3, runs=500), mts_catalog)
    assert SimConfig(seed=3, runs=500, cells=(zero, a)) == SimConfig(seed=3, runs=500, cells=(a,))


def test_from_profile_requires_exponential_durations(mts_catalog):
    cell = TrafficCell("landline", "workday", 2.0, Empirical((1.0,)))
    profile = TrafficProfile(cells=(cell,), observation_months=1.0)
    with pytest.raises(SimulationError, match="exponential"):
        SimConfig.from_profile(profile, seed=1, runs=1)
    with pytest.raises(SimulationError, match=r"cell \(landline, workday\) has no exponential"):
        SimConfig(seed=1, runs=1, cells=(cell,))


def test_config_validation():
    with pytest.raises(SimulationError):
        SimConfig(seed=-1, runs=1, cells=())
    with pytest.raises(SimulationError):
        SimConfig(seed=1, runs=0, cells=())
    # built, never run: at the cap the totals alone would be 80 MB per plan
    assert SimConfig(seed=1, runs=simulate.MAX_RUNS, cells=()).runs == simulate.MAX_RUNS
    with pytest.raises(SimulationError, match=f"between 1 and {simulate.MAX_RUNS}, got 10000000000000"):
        SimConfig(seed=1, runs=10**13, cells=())
    for field, value in (("runs", 10.5), ("runs", True), ("runs", "10"), ("seed", 1.5), ("seed", False)):
        with pytest.raises(SimulationError, match=f"{field} must be an integer, got {value!r}"):
            SimConfig(**{"seed": 1, "runs": 1, field: value}, cells=())
    # NumPy integers are integers, and the config keeps them as Python ints
    config = SimConfig(seed=np.uint64(2**64 - 1), runs=np.int32(3), cells=())
    assert (config.seed, config.runs) == (2**64 - 1, 3) and type(config.seed) is type(config.runs) is int


def test_replay_trace_matches_direct_billing(mts_catalog):
    calls = classified(
        [
            ("same-network", "workday", 1 * 60),
            ("same-network", "workday", 4 * 60),
            ("landline", "weekend", 2 * 60),
        ]
    )
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
                payoff = plan.subgroups[first_match(plan, cell.destination_class, cell.day_class)][1]
                totals[plan.id] += sum(bill_call(payoff, d, mode) for d in durations)
    for p in run(config, mts_catalog).plans:
        assert abs(p.mean - totals[p.plan_id] / 40) <= 1e-9


def test_a_gap_budget_chunks_runs_as_a_run_count_does(mts_catalog, reference_profile, monkeypatch):
    """A budget of 16 months of the profile's 209 calls, plus less than one
    month more, draws the same chunks as 16 runs per chunk."""
    config = SimConfig.from_profile(reference_profile, seed=31, runs=40)
    whole = run(config, mts_catalog).to_json()
    monkeypatch.setattr(simulate, "CHUNK_RUNS", 16)
    by_runs = run(config, mts_catalog).to_json()
    assert by_runs != whole
    monkeypatch.undo()
    monkeypatch.setattr(simulate, "CHUNK_CALLS", 16 * 209 + 208)
    assert run(config, mts_catalog).to_json() == by_runs


def test_chunk_runs_follow_the_gap_budget(reference_profile):
    bundled = SimConfig.from_profile(reference_profile, seed=1, runs=10)
    assert simulate.chunk_runs(bundled) == simulate.CHUNK_RUNS
    # 5000 + 9 * sqrt(5000) + 8 -> 5644 calls per month
    assert simulate.chunk_runs(one_cell_config(5000.0, 0.41, runs=10)) == simulate.CHUNK_CALLS // 5644 == 151
    # 8e5 -> 808,057 calls: one month per chunk; 1e6 -> 1,009,008, over the budget
    assert simulate.chunk_runs(one_cell_config(8e5, 0.41, runs=10)) == 1
    with pytest.raises(SimulationError, match="a month is bounded at 1009008 calls, over the chunk budget of 856064"):
        one_cell_config(1e6, 0.41, runs=10)
    with pytest.raises(SimulationError):
        one_cell_config(1e9, 0.41, runs=10)
    idle = SimConfig(seed=1, runs=10, cells=(one_cell(0.0),))
    assert simulate.chunk_runs(idle) == simulate.CHUNK_RUNS


MEMORY_PROBE = """
import sys
from tariffopt import Exponential, SimConfig, TrafficCell, load_catalog, run
catalog = load_catalog(open(sys.argv[1], "rb").read())
cell = TrafficCell("same-network", "workday", 5000.0, Exponential(0.41))
run(SimConfig(seed=1, runs=1024, cells=(cell,)), catalog)
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


def test_oracle_memory_at_a_high_call_rate():
    """One cell at 5000 calls/month over 1024 runs: a chunk of all 1024
    months held a 1024 x 5644 gap matrix and peaked near 270 MB.

    The peak is the probe's own VmHWM: Linux carries the spawning process's
    peak into the child's ``ru_maxrss`` across exec, so under pytest that
    reads the pytest process's peak, not the probe's.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", MEMORY_PROBE, str(CATALOG_PATH)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    peak_kib = int(result.stdout)
    assert peak_kib < 150 * 1024


@pytest.mark.parametrize("mode", ["lookup", "cumulative"])
def test_run_statistics_are_those_of_the_totals(mts_catalog, reference_profile, monkeypatch, mode):
    """Rebuild the (plans x runs) totals as `run` adds them up, chunk by chunk
    and cell by cell, and take each statistic with one call along axis 1:
    `run`'s row-by-row deviations and in-place percentiles give the same bits."""
    monkeypatch.setattr(simulate, "CHUNK_RUNS", 16)
    config = SimConfig.from_profile(reference_profile, seed=31, runs=40, billing_mode=mode)
    plans = mts_catalog.switch_candidates()
    totals = np.zeros((len(plans), 40))
    for chunk, (lo, n) in enumerate(((0, 16), (16, 16), (32, 8))):
        for ci, cell in enumerate(config.cells):
            counts, durations = generate_months(cell, n, substream(31, chunk, ci))
            minutes = np.maximum(1, np.ceil(durations)).astype(np.int64)
            run_ids = np.repeat(np.arange(n), counts)
            for pi, plan in enumerate(plans):
                payoff = plan.subgroups[first_match(plan, cell.destination_class, cell.day_class)][1]
                costs = charges(payoff, minutes, mode)
                totals[pi, lo : lo + n] += np.bincount(run_ids, weights=costs, minlength=n)
    result = run(config, mts_catalog)
    assert [p.plan_id for p in result.plans] == [plan.id for plan in plans]
    assert [p.mean for p in result.plans] == totals.mean(axis=1).tolist()
    assert [p.stddev for p in result.plans] == totals.std(axis=1, ddof=1).tolist()
    percentiles = np.percentile(totals, [5, 50, 95], axis=1).T.tolist()
    assert [p.percentiles for p in result.plans] == [tuple(row) for row in percentiles]


RUN_COUNT_PROBE = """
import sys
from tariffopt import (PrefixTable, SimConfig, WorkdayCalendar, classify_calls, estimate_profile,
                       load_catalog, parse_cdr, run)
catalog_path, cdr_path, prefixes_path = sys.argv[1:]
catalog = load_catalog(open(catalog_path, "rb").read())
calls = classify_calls(parse_cdr(open(cdr_path, "rb").read()),
                       PrefixTable.from_csv(open(prefixes_path, "rb").read()), WorkdayCalendar())
config = SimConfig.from_profile(estimate_profile(calls, catalog, 6.0), seed=1, runs=300_000)

def peak_kib():
    with open("/proc/self/status") as status:
        return int(next(line.split()[1] for line in status if line.startswith("VmHWM:")))

before = peak_kib()
run(config, catalog)
print(len(catalog.switch_candidates()), peak_kib() - before)
"""


def test_oracle_memory_at_a_high_run_count():
    """The bundled catalog and profile over 300,000 runs: `run` holds one
    (plans x runs) float64 totals array plus one cell's arrays of one chunk.
    It held every cell of a chunk at once, and its statistics copied the
    totals twice more, raising the peak by about 2.1 times the totals.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", RUN_COUNT_PROBE, str(CATALOG_PATH), str(CDR_PATH), str(PREFIXES_PATH)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    plans, added_kib = map(int, result.stdout.split())
    totals_bytes = plans * 300_000 * 8
    assert added_kib * 1024 < totals_bytes + 12e6


def test_inactive_non_current_plan_is_billed_nowhere(mts_catalog, reference_profile):
    from tariffopt import Catalog, SubscriberContext

    ctx = SubscriberContext(current_plan_id=1, owned_sim_providers=frozenset({"MTS"}))
    moved = Catalog(plans=mts_catalog.plans, context=ctx)  # plan 6 is inactive
    expected = [1, 2, 3, 4, 5]
    assert [b.plan_id for b in full_costs(moved, ctx, reference_profile)] == expected
    config = SimConfig.from_profile(reference_profile, seed=1, runs=10)
    assert [p.plan_id for p in run(config, moved).plans] == expected
    calls = classified([("landline", "workday", 60)])
    assert sorted(replay_trace(moved, calls, months=1.0)) == expected


def test_replay_rejects_an_unknown_billing_mode_on_an_empty_trace(mts_catalog):
    with pytest.raises(ValueError, match="unknown billing mode 'bogus'"):
        replay_trace(mts_catalog, classified([]), months=1.0, mode="bogus")
