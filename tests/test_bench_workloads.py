"""The benchmark's workloads still run against the package: each one loads
its inputs and makes one untraced pass with no failed operation, and its
set-up probe runs in a fresh interpreter. A second pass runs the pricing
kernel once per profile it prices, no more and no fewer, and bills each
candidate once per oracle cell and once per replayed printout; a pass builds
an exact rational cost only where two float costs are a near-tie.

The benchmark under bench/ calls the package's public API as it stands; a
change that breaks one of those calls fails here, not first in a benchmark
run. The probe is the one benchmark path that starts from a bare
`import tariffopt`, so a public name the package fails to resolve lazily
fails there.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans
    import workloads

    return spans, workloads


@pytest.mark.parametrize("name", ["paper-oracle", "bulk-ingest", "growth-scan"])
def test_workload_pass_has_no_failures(bench_modules, name, tmp_path):
    spans, workloads = bench_modules
    assert sorted(workloads.WORKLOADS) == sorted(["paper-oracle", "bulk-ingest", "growth-scan"])
    workload = workloads.WORKLOADS[name](BENCH.parent, 111, work=tmp_path)
    workload.load()
    result = workload.run_pass(spans.Tracer(False))
    assert result.attempted > 0
    assert result.failed == result.unexpected == 0


#: pricing-kernel runs in a pass after the first: growth-scan prices each of its
#: 12 profiles once for `full_costs` and its two sweeps; paper-oracle's `sweep`
#: reuses its `full_costs` pricing, while each `cli.main` loads a fresh catalog;
#: bulk-ingest prices each of its 40 profiles once
KERNEL_RUNS = {"paper-oracle": 4, "bulk-ingest": 40, "growth-scan": 12}


@pytest.mark.parametrize("name", sorted(KERNEL_RUNS))
def test_a_second_pass_prices_each_profile_once(bench_modules, name, monkeypatch, tmp_path):
    from tariffopt import cost

    spans, workloads = bench_modules
    workload = workloads.WORKLOADS[name](BENCH.parent, 111, work=tmp_path)
    workload.load()
    workload.run_pass(spans.Tracer(False))
    runs = []
    rows = cost._rows
    monkeypatch.setattr(cost, "_rows", lambda table, mode: runs.append(mode) or rows(table, mode))
    result = workload.run_pass(spans.Tracer(False))
    assert result.unexpected == 0
    assert len(runs) == KERNEL_RUNS[name]


#: rationals built in a pass: `rank`, `sweep` and `switch_points` compare exact
#: costs only where floats cannot tell them apart. One bulk-ingest profile
#: prices plan 2 at 315 + 1.7e-23 and plan 4 at 250 + 65, both 315.0 in
#: floats, so `rank` builds their two exact sums
RATIONALS = {"paper-oracle": 0, "bulk-ingest": 4, "growth-scan": 0}


@pytest.mark.parametrize("name", sorted(RATIONALS))
def test_a_pass_builds_rationals_only_at_near_ties(bench_modules, name, monkeypatch, tmp_path):
    from tariffopt import cost, sensitivity

    spans, workloads = bench_modules
    workload = workloads.WORKLOADS[name](BENCH.parent, 111, work=tmp_path)
    workload.load()
    built = []
    for module in (cost, sensitivity):
        monkeypatch.setattr(module, "Fraction", lambda *args, make=module.Fraction: built.append(args) or make(*args))
    result = workload.run_pass(spans.Tracer(False))
    assert result.unexpected == 0
    assert len(built) == RATIONALS[name]


#: charge arrays `simulate._bill` yields in a pass after the first: bulk-ingest
#: replays each of its 40 printouts under its 6 candidates, one array per plan;
#: paper-oracle's 1,000-run oracle is one chunk of 6 cells under 6 plans, and its
#: replay 6 more; growth-scan neither simulates nor replays
BILLED = {"paper-oracle": 36 + 6, "bulk-ingest": 40 * 6, "growth-scan": 0}


@pytest.mark.parametrize("name", sorted(BILLED))
def test_a_second_pass_bills_each_plan_once_per_printout(bench_modules, name, monkeypatch, tmp_path):
    from tariffopt import simulate

    spans, workloads = bench_modules
    workload = workloads.WORKLOADS[name](BENCH.parent, 111, work=tmp_path)
    workload.load()
    workload.run_pass(spans.Tracer(False))
    billed = []
    bill = simulate._bill

    def counted(*args):
        for costs in bill(*args):
            billed.append(len(costs))
            yield costs

    monkeypatch.setattr(simulate, "_bill", counted)
    result = workload.run_pass(spans.Tracer(False))
    assert result.unexpected == 0
    assert len(billed) == BILLED[name]


def test_call_table_counts_the_unmapped_calls_of_every_bulk_printout(bench_modules):
    from tariffopt import PrefixTable, WorkdayCalendar, classify_calls, parse_cdr

    _, workloads = bench_modules
    inputs = workloads.gen.bulk_ingest(111)
    prefixes = PrefixTable.from_csv(inputs.prefixes_csv)
    calendar = WorkdayCalendar.from_file(inputs.holidays_txt)
    total = 0
    for sub in inputs.subscribers:
        before = prefixes.unmapped_count
        calls = classify_calls(parse_cdr(sub.cdr), prefixes, calendar)
        assert calls.unmapped == prefixes.unmapped_count - before == sub.unmapped
        assert calls.zero_length == sub.zero_length
        total += calls.unmapped
    assert total > 0


@pytest.mark.parametrize("name, memory", [("paper-oracle", False), ("paper-oracle", True),
                                          ("bulk-ingest", False), ("growth-scan", False)])
def test_workload_probe_runs_in_a_fresh_interpreter(bench_modules, name, memory, tmp_path):
    _, workloads = bench_modules
    workload = workloads.WORKLOADS[name](BENCH.parent, 111, work=tmp_path)
    args = workload.memory_probe_args if memory else workload.probe_args
    done = subprocess.run([sys.executable, str(BENCH / "probe.py"), *args], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    keys = {"setup_s", "load_catalog_s", *(["peak_rss_mb"] if memory else [])}
    assert json.loads(done.stdout.splitlines()[-1]).keys() == keys
