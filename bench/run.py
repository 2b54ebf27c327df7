"""tariffopt benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload {paper-oracle,bulk-ingest,growth-scan} \
        --seed N --seconds S --trace {0,1}

Run from any directory; the package is imported from this checkout's `src/`
(the run fails with exit code 2 when it is missing). Inputs come from the
seed only. The run

1. makes a fixed number of passes over the workload, as many as fill
   `--seconds` at the baseline's speed (`PASS_SECONDS`, at least two), and
   checks the outputs of every pass,
2. times set-up in fresh interpreters (`probe.py`) started between the passes,
   so that the median of these samples covers the whole run,
3. prints each metric with its unit and sample count, then, as the last line,
   one JSON object: `correct`, `attempted`, `failed` and `metrics`.

Every pass handles every subscriber once, making the same calls into the
package in the same order, and each call is timed. A call's time is the
fastest of its passes; a subscriber's time is the sum of its calls' times and
`pass_s` the sum over all calls: a pass as it runs when no other load on the
shared host gets in the way. Other tenants' load slows calls by up to 1.8x, in
spells from milliseconds to minutes, so the fastest of many samples of a short
call is far steadier than any one pass, though no statistic undoes a spell that
lasts the whole run. The pass count does not depend on the program's speed, so a
faster program does not take its minima over more samples; only a run whose
passes overrun `--seconds` by `OVERRUN` times stops early. `attempted` and `failed`
are the counts of one pass; a pass that counts differently makes the run
incorrect.

`peak_rss_mb` is the peak resident memory of the workload process. On
paper-oracle it is that of a fresh process that runs the oracle once at
`MEMORY_ORACLE_RUNS` runs, where the oracle's arrays are about 24 of its 62 MB
rather than a few MB next to the interpreter and numpy.

With `--trace 0` the metrics are the end-to-end ones, measured with tracing
off. With `--trace 1`, untraced and traced passes alternate; the traced ones
record a span around every call into a tariffopt module, and the metrics are
the per-layer ones: time and throughput per function, self time per module,
the share of a pass the spans cover, and the tracing overhead against the
untraced passes. Spans and results are written under `.bench_out/`.

Only the paper-oracle checks abort a run (exit 1, no result line). On
growth-scan, (subscriber, grid) scans whose switch intervals differ from the
exact lower envelope count as failed operations: that is the known defect of
grid-based switch detection, kept visible rather than hidden.

Load is one process with no worker threads; BLAS/OpenMP pools are pinned to
one thread before numpy is imported.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402
from time import perf_counter  # noqa: E402

from spans import LAYERS, Tracer, self_times, spans_json  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH = ROOT / "bench"
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 21
MIN_PASSES = 2
#: wall time of one untraced pass at the baseline, on a shared 2-core x86-64
#: host under load from other tenants; a run makes round(seconds /
#: PASS_SECONDS) passes, at least MIN_PASSES
PASS_SECONDS = {"paper-oracle": 0.4, "bulk-ingest": 1.3, "growth-scan": 1.2}
#: a run stops making passes once they have taken this many times `--seconds`,
#: which bounds the time of all runs together on a host slower than that
OVERRUN = 1.25

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "subscriber_p50_ms": "ms",
    "subscriber_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "catalog.load_catalog_s": "s",
    "traffic.parse_cdr_s": "s",
    "traffic.parse_rows_per_s": "1/s",
    "traffic.classify_calls_s": "s",
    "traffic.classify_calls_per_s": "1/s",
    "traffic.estimate_profile_s": "s",
    "traffic.rows_skipped": "count",
    "traffic.unmapped": "count",
    "traffic.zero_length_dropped": "count",
    "cost.full_costs_us": "us",
    "cost.plans_priced_per_s": "1/s",
    "sensitivity.sweep_s": "s",
    "sensitivity.sweep_points_per_s": "1/s",
    "sensitivity.switch_points_s": "s",
    "sensitivity.fit_report_s": "s",
    "sensitivity.switch_mismatches": "count",
    "simulate.run_s": "s",
    "simulate.run_months_per_s": "1/s",
    "simulate.max_abs_z": "z",
    "simulate.replay_s": "s",
    "simulate.replay_bills_per_s": "1/s",
    "cli.main_rank_s": "s",
    "cli.main_sweep_s": "s",
    "cli.main_fit_s": "s",
    # catalog works only in set-up, where catalog.load_catalog_s is its self time
    **{f"{layer}.self_s": "s" for layer in LAYERS if layer != "catalog"},
    "bench.self_s": "s",
    "trace.span_share": "frac",
    "trace.overhead_frac": "frac",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-oracle", "bulk-ingest", "growth-scan"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tariffopt" / "__init__.py").is_file():
        print(f"error: tariffopt sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tariffopt

    if not Path(tariffopt.__file__).resolve().is_relative_to(SRC):
        print(f"error: tariffopt imported from {tariffopt.__file__}", file=sys.stderr)
        return 2
    from workloads import CheckError

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        return measure(args, work)
    except CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def probe(args: list[str]) -> dict:
    done = subprocess.run([sys.executable, str(BENCH / "probe.py"), *args], capture_output=True,
                          text=True, timeout=60, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def measure(args, work: Path) -> int:
    import numpy

    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](ROOT, args.seed, work)
    wl.load()
    n_passes = max(MIN_PASSES, round(args.seconds / ((1 + args.trace) * PASS_SECONDS[args.workload])))
    probe(wl.probe_args)  # fills the file cache; not a sample
    probes_due = Counter(j * n_passes // SETUP_SAMPLES for j in range(SETUP_SAMPLES))
    probes = []

    plain, traced = [], []  # (pass seconds, PassResult, Tracer)
    started = perf_counter()
    for i in range(n_passes):
        probes += [probe(wl.probe_args) for _ in range(probes_due[i])]
        if sum(t for t, _, _ in plain + traced) > OVERRUN * args.seconds:
            break
        for tracer in (Tracer(False), Tracer(True))[: 1 + args.trace]:
            span = tracer.open("pass")
            t0 = perf_counter()
            res = wl.run_pass(tracer)
            elapsed = perf_counter() - t0
            tracer.close(span)
            (traced if tracer.enabled else plain).append((elapsed, res, tracer))
    probes += [probe(wl.probe_args) for _ in range(SETUP_SAMPLES - len(probes))]
    measured = plain + traced
    first = plain[0][1]
    attempted, failed = first.attempted, first.failed
    sequence = [(name, sub) for name, sub, _ in plain[0][2].calls]
    correct = not any(r.unexpected for _, r, _ in measured) and all(
        (r.attempted, r.failed, r.counts) == (attempted, failed, first.counts)
        and [(name, sub) for name, sub, _ in t.calls] == sequence
        for _, r, t in measured)

    fastest = fastest_calls(plain)
    pass_s = sum(fastest)
    by_subscriber = defaultdict(float)
    for (_, sub), seconds in zip(sequence, fastest):
        by_subscriber[sub] += seconds
    subscriber_ms = sorted(1e3 * t for t in by_subscriber.values())
    n = len(subscriber_ms)
    # the highest percentile with ten samples beyond it; below 20 samples that
    # would not lie above the median, so the tail is the maximum
    tail_at, tail_name = (n - 11, f"p{100 * (n - 10) / n:.1f}") if n >= 20 else (n - 1, "max")
    if args.trace:
        metrics = per_layer(traced, plain, probes)
        units = PER_LAYER
        samples = {name: len(traced) for name in PER_LAYER}
        samples["catalog.load_catalog_s"] = len(probes)
    else:
        samples = {"setup_s": len(probes), "pass_s": len(plain), "subscriber_p50_ms": n,
                   "subscriber_tail_ms": n, "peak_rss_mb": 1}
        if wl.memory_probe_args:
            peak_rss_mb = probe(wl.memory_probe_args)["peak_rss_mb"]
        else:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": median(p["setup_s"] for p in probes),
            "pass_s": pass_s,
            "subscriber_p50_ms": median(subscriber_ms),
            "subscriber_tail_ms": subscriber_ms[tail_at],
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    # items per second at pass_s: a fixed count over pass_s, so
    # printed for reading, not reported as a metric of its own
    throughput = {name: first.counts[item] / pass_s for name, item in wl.throughput.items()}
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__,
        "sizes": wl.sizes, "passes": {"untraced": len(plain), "traced": len(traced)},
        "pass_wall_s": [t for t, _, _ in plain], "setup_samples_s": [p["setup_s"] for p in probes],
        "subscriber_tail": tail_name, "failed_frac": failed / attempted, "throughput": throughput,
        "all_passes": {"attempted": sum(r.attempted for _, r, _ in measured),
                       "failed": sum(r.failed for _, r, _ in measured)},
        "samples": samples,
    }

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(plain)} untraced and "
          f"{len(traced)} traced passes in {perf_counter() - started:.1f} s, sizes {wl.sizes}")
    for name, value in metrics.items():
        note = f" ({tail_name})" if name == "subscriber_tail_ms" else ""
        print(f"  {name:32s} {value:14.6g} {units[name]:6s} n={samples[name]}{note}")
    for name, value in throughput.items():
        print(f"  {name:32s} {value:14.6g} {'1/s':6s} n={len(plain)} (count / pass_s)")
    print(f"  {'failed_frac':32s} {failed / attempted:14.6g} {'frac':6s} n={attempted} (one pass)")
    print("info " + json.dumps(info))

    doc = {"info": info, "correct": correct, "attempted": attempted, "failed": failed,
           "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    if args.trace:
        doc["spans"] = [spans_json(t.spans) for _, _, t in traced]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(doc))
    print(json.dumps({key: doc[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def fastest_calls(passes) -> list[float]:
    """Each call's fastest time over the passes, in call order."""
    return [min(col) for col in zip(*([s for _, _, s in t.calls] for _, _, t in passes))]


def per_layer(traced, plain, probes) -> dict[str, float]:
    """Layer metrics of the traced passes.

    A function's time is the sum of its calls' fastest times, as for `pass_s`;
    self times and span share are those of the fastest traced pass. Each traced
    pass follows an untraced one, so the overhead is the median ratio of the two.
    """
    total, calls = defaultdict(float), defaultdict(int)
    for (name, _, _), seconds in zip(traced[0][2].calls, fastest_calls(traced)):
        total[name] += seconds
        calls[name] += 1
    elapsed, res, tracer = min(traced, key=lambda p: p[0])
    metrics = pass_layers(elapsed, res, tracer.spans, total, calls)
    metrics["catalog.load_catalog_s"] = median(p["load_catalog_s"] for p in probes)
    metrics["trace.overhead_frac"] = median(t / u for (t, _, _), (u, _, _) in zip(traced, plain)) - 1
    return {name: metrics[name] for name in PER_LAYER}


def pass_layers(elapsed, res, spans, total, calls) -> dict[str, float]:
    own = self_times(spans)
    self_s = defaultdict(float)
    for s in spans:
        self_s[s.layer if s.layer in LAYERS else "bench"] += own[s.sid]
    c = res.counts

    def rate(count, seconds):
        return count / seconds if seconds else 0.0

    return {
        "traffic.parse_cdr_s": total["traffic.parse_cdr"],
        "traffic.parse_rows_per_s": rate(c["rows"], total["traffic.parse_cdr"]),
        "traffic.classify_calls_s": total["traffic.classify_calls"],
        "traffic.classify_calls_per_s": rate(c["calls"], total["traffic.classify_calls"]),
        "traffic.estimate_profile_s": total["traffic.estimate_profile"],
        "traffic.rows_skipped": c["rows_skipped"],
        "traffic.unmapped": c["unmapped"],
        "traffic.zero_length_dropped": c["zero_length"],
        "cost.full_costs_us": 1e6 * rate(total["cost.full_costs"], calls["cost.full_costs"]),
        "cost.plans_priced_per_s": rate(c["plans_priced"], total["cost.full_costs"]),
        "sensitivity.sweep_s": total["sensitivity.sweep"],
        "sensitivity.sweep_points_per_s": rate(c["sweep_points"], total["sensitivity.sweep"]),
        "sensitivity.switch_points_s": total["sensitivity.switch_points"],
        "sensitivity.fit_report_s": total["sensitivity.fit_report"],
        "sensitivity.switch_mismatches": c["switch_mismatches"],
        "simulate.run_s": total["simulate.run"],
        "simulate.run_months_per_s": rate(c["sim_months"], total["simulate.run"]),
        "simulate.max_abs_z": res.max_abs_z,
        "simulate.replay_s": total["simulate.replay_trace"],
        "simulate.replay_bills_per_s": rate(c["replay_bills"], total["simulate.replay_trace"]),
        **{f"cli.main_{cmd}_s": total[f"cli.main_{cmd}"] for cmd in ("rank", "sweep", "fit")},
        **{f"{layer}.self_s": self_s[layer] for layer in LAYERS if layer != "catalog"},
        "bench.self_s": self_s["bench"],
        "trace.span_share": sum(own[s.sid] for s in spans if s.layer in LAYERS) / elapsed,
    }


if __name__ == "__main__":
    sys.exit(main())
