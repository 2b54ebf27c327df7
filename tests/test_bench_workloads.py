"""The benchmark's workloads still run against the package: each one loads
its inputs and makes one untraced pass with no failed operation, and its
set-up probe runs in a fresh interpreter.

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
