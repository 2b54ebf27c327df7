"""The benchmark's workloads still run against the package: each one loads
its inputs and makes one untraced pass with no failed operation.

The benchmark under bench/ calls the package's public API as it stands; a
change that breaks one of those calls fails here, not first in a benchmark
run.
"""

from __future__ import annotations

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
