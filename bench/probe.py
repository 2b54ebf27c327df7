"""Set-up and memory probe, run in a fresh interpreter by run.py.

Times importing tariffopt and loading one workload's catalog, prefix table
and holiday calendar, then prints the timings as one JSON line.
Usage: python3 bench/probe.py --catalog FILE [--prefixes FILE] [--holidays FILE]

With `--oracle-runs N --cdr FILE --months M` it then estimates a profile from
the printout, runs the Monte-Carlo oracle once with N runs, and adds the
process's peak resident memory (`peak_rss_mb`) to the line.
"""

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import tariffopt  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--catalog", required=True)
    parser.add_argument("--prefixes")
    parser.add_argument("--holidays")
    parser.add_argument("--oracle-runs", type=int)
    parser.add_argument("--oracle-seed", type=int, default=0)
    parser.add_argument("--cdr")
    parser.add_argument("--months", type=float)
    args = parser.parse_args()
    if not Path(tariffopt.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"tariffopt imported from {tariffopt.__file__}, not from {SRC}")
    t_load = perf_counter()
    catalog = tariffopt.load_catalog(Path(args.catalog).read_bytes())
    load_catalog_s = perf_counter() - t_load
    prefixes = tariffopt.PrefixTable.from_csv(Path(args.prefixes).read_bytes()) if args.prefixes else None
    if args.holidays:
        calendar = tariffopt.WorkdayCalendar.from_file(Path(args.holidays).read_bytes())
    else:
        calendar = tariffopt.WorkdayCalendar()
    out = {"setup_s": perf_counter() - T0, "load_catalog_s": load_catalog_s}
    if args.oracle_runs:
        records = tariffopt.parse_cdr(Path(args.cdr).read_bytes())
        calls = tariffopt.classify_calls(records, prefixes, calendar)
        profile = tariffopt.estimate_profile(calls, catalog, args.months)
        config = tariffopt.SimConfig.from_profile(profile, args.oracle_seed, args.oracle_runs)
        tariffopt.run(config, catalog)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))


if __name__ == "__main__":
    main()
