"""Command-line front end: validate inputs, analyze traffic, rank plans,
sweep traffic growth, fit cost regressions, and run the Monte-Carlo check.

Exit codes: 0 success, 1 validation error (one of the package's input
errors), 2 I/O error, 3 internal error (anything else, a bare ValueError
included).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .catalog import Catalog, CatalogError, load_catalog
from .cost import BILLING_MODES, LOOKUP, _subgroup_columns, full_costs, rank, report_csv, report_json
from .sensitivity import fit_report, fits_json, k_grid, sweep, sweep_csv, switch_points
from .simulate import SimConfig, SimulationError, run
from .traffic import (
    CdrError,
    ClassifiedCall,
    PrefixTable,
    ProfileError,
    TrafficProfile,
    WorkdayCalendar,
    build_histogram,
    classify_calls,
    estimate_profile,
    fit_exponential,
    observation_months,
    parse_cdr,
)

FORMATS = ("table", "json", "csv")


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _render_table(header: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


@dataclass
class Inputs:
    catalog: Catalog
    calls: list[ClassifiedCall]
    profile: TrafficProfile
    months: float
    issues: list[str]


def _load_catalog(path: str) -> Catalog:
    with open(path, "rb") as fh:
        return load_catalog(fh)


def _load_inputs(args) -> Inputs:
    catalog = _load_catalog(args.catalog)
    with open(args.prefixes, "rb") as fh:
        prefixes = PrefixTable.from_csv(fh)
    if args.holidays:
        with open(args.holidays, "rb") as fh:
            calendar = WorkdayCalendar.from_file(fh)
    else:
        calendar = WorkdayCalendar()
    issues: list[str] = []
    with open(args.cdr, "rb") as fh:
        records = parse_cdr(fh, strict=args.strict, issues=issues)
    calls = classify_calls(records, prefixes, calendar, issues)
    if not calls:
        raise CdrError("no Tel traffic in the CDR")
    if args.months is not None:
        months = args.months
    else:
        dates = [c.record.date for c in calls]
        months = observation_months(min(dates), max(dates))
    profile = estimate_profile(calls, catalog, months)
    return Inputs(catalog=catalog, calls=calls, profile=profile, months=months, issues=issues)


# --------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> tuple[str, int]:
    lines = []
    try:
        catalog = _load_catalog(args.catalog)
    except FileNotFoundError as exc:
        return f"error: {exc}\n", 2
    except CatalogError as exc:
        return f"catalog error: {exc}\n", 1
    inactive = sum(not p.active for p in catalog.plans)
    lines.append(f"catalog: {len(catalog.plans)} plans, {inactive} inactive")
    lines.append(
        f"context: current plan {catalog.context.current_plan_id}, "
        f"owned SIMs: {', '.join(sorted(catalog.context.owned_sim_providers)) or 'none'}"
    )
    if args.cdr:
        issues: list[str] = []
        try:
            with open(args.cdr, "rb") as fh:
                records = parse_cdr(fh, strict=args.strict, issues=issues)
        except FileNotFoundError as exc:
            return "\n".join(lines) + f"\nerror: {exc}\n", 2
        except CdrError as exc:
            return "\n".join(lines) + f"\ncdr error: {exc}\n", 1
        lines.append(f"cdr: {len(records)} records parsed, {len(issues)} warnings")
        for issue in issues:
            lines.append(f"  warning: {issue}")
    lines.append("ok")
    return "\n".join(lines) + "\n", 0


def cmd_analyze(args) -> tuple[str, int]:
    inputs = _load_inputs(args)
    catalog, calls, profile = inputs.catalog, inputs.calls, inputs.profile
    minutes = [c.record.duration_seconds / 60.0 for c in calls]
    duration_fit = fit_exponential(minutes)
    histogram = build_histogram(calls, truncation=max(c.minute_index for c in calls))

    lambda_rows = {
        plan.id: dict(zip(plan.subgroup_names(), profile.lambda_for(plan)))
        for plan in catalog.plans
    }
    columns: list[str] = []
    for plan in catalog.plans:
        for name in plan.subgroup_names():
            if name not in columns:
                columns.append(name)

    if args.format == "json":
        doc = {
            "months": inputs.months,
            "total_calls": len(calls),
            "calls_per_month": profile.total_rate,
            "lambda": {str(pid): row for pid, row in lambda_rows.items()},
            "duration": {
                "mean_minutes": duration_fit.sample_mean,
                "rmsd_minutes": duration_fit.sample_rmsd,
                "mu": duration_fit.model.mu,
                "sample_size": duration_fit.sample_size,
            },
            "histogram": list(histogram.masses),
        }
        return json.dumps(doc, indent=2) + "\n", 0

    header = ["plan"] + columns + ["total"]
    rows = []
    for plan in catalog.plans:
        row = [str(plan.id)]
        for name in columns:
            value = lambda_rows[plan.id].get(name)
            row.append("" if value is None else _fmt(value))
        row.append(_fmt(sum(lambda_rows[plan.id].values())))
        rows.append(row)
    if args.format == "csv":
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(row))
        return "\n".join(lines) + "\n", 0

    out = [
        f"traffic: {len(calls)} calls over {inputs.months:.2f} months "
        f"({profile.total_rate:.2f} calls/month)",
        "",
        "calls per month by plan subgroup:",
        _render_table(header, rows),
        f"durations: mean {duration_fit.sample_mean:.2f} min, "
        f"rmsd {duration_fit.sample_rmsd:.2f} min, n={duration_fit.sample_size}",
        f"fitted exponential: mu = {duration_fit.model.mu:.2f} (1/minutes)",
        "",
        "billed-minute histogram:",
    ]
    shown = min(len(histogram.masses), 20)
    for minute in range(1, shown + 1):
        out.append(f"  minute {minute:>3}: {histogram.masses[minute - 1]:.4f}")
    if shown < len(histogram.masses):
        rest = sum(histogram.masses[shown:])
        out.append(f"  beyond minute {shown}: {rest:.4f}")
    return "\n".join(out) + "\n", 0


def cmd_rank(args) -> tuple[str, int]:
    inputs = _load_inputs(args)
    catalog = inputs.catalog
    breakdowns = full_costs(catalog, catalog.context, inputs.profile, args.billing_mode)
    ranking = rank(breakdowns)

    if args.format == "json":
        return report_json(breakdowns, ranking) + "\n", 0
    if args.format == "csv":
        return report_csv(breakdowns, ranking), 0

    columns = _subgroup_columns(breakdowns)
    header = ["plan", "name"] + columns + ["variable", "fixed", "full", "rank"]
    rows = []
    for b in breakdowns:
        by_name = {s.name: s for s in b.subgroups}
        row = [str(b.plan_id), b.plan_name]
        for name in columns:
            sub = by_name.get(name)
            row.append("" if sub is None or sub.one_call_cost is None else _fmt(sub.one_call_cost))
        row += [_fmt(b.variable), _fmt(b.fixed), _fmt(b.full), str(ranking.order.index(b.plan_id) + 1)]
        rows.append(row)
    out = [
        "expected monthly costs (rubles):",
        _render_table(header, rows),
        "ranking: " + ", ".join(str(pid) for pid in ranking.order),
    ]
    if ranking.optimal_id == catalog.context.current_plan_id:
        out.append(f"optimal: plan {ranking.optimal_id} (stay)")
    else:
        out.append(
            f"optimal: plan {ranking.optimal_id} "
            f"(switch from plan {catalog.context.current_plan_id})"
        )
    return "\n".join(out) + "\n", 0


def _sweep_points(args):
    inputs = _load_inputs(args)
    grid = k_grid(args.k_from, args.k_to, args.k_step)
    points = sweep(inputs.catalog, inputs.catalog.context, inputs.profile, grid, args.billing_mode)
    return inputs, points


def cmd_sweep(args) -> tuple[str, int]:
    _, points = _sweep_points(args)
    intervals = switch_points(points)
    if args.format == "csv":
        return sweep_csv(points), 0
    if args.format == "json":
        doc = {
            "points": [
                {
                    "k": p.k,
                    "optimal_plan": p.optimal_plan_id,
                    "optimal_cost": p.optimal_full_cost,
                    "stay_cost": p.stay_cost,
                    "plan_costs": {str(pid): c for pid, c in sorted(p.plan_costs.items())},
                }
                for p in points
            ],
            "intervals": [
                {"k_start": iv.k_start, "k_end": iv.k_end, "plan_id": iv.plan_id}
                for iv in intervals
            ],
        }
        return json.dumps(doc, indent=2) + "\n", 0
    plan_ids = sorted(points[0].plan_costs)
    header = ["k", "optimal", "optimal_cost", "stay_cost"] + [f"plan_{pid}" for pid in plan_ids]
    rows = [
        [f"{p.k:.2f}", str(p.optimal_plan_id), _fmt(p.optimal_full_cost), _fmt(p.stay_cost)]
        + [_fmt(p.plan_costs[pid]) for pid in plan_ids]
        for p in points
    ]
    out = [_render_table(header, rows), "switch points:"]
    for iv in intervals:
        out.append(f"  plan {iv.plan_id} optimal for k in [{iv.k_start:.2f}, {iv.k_end:.2f}]")
    return "\n".join(out) + "\n", 0


def cmd_fit(args) -> tuple[str, int]:
    _, points = _sweep_points(args)
    fits = fit_report(points)
    if args.format == "json":
        return fits_json(fits) + "\n", 0
    if args.format == "csv":
        lines = ["model,degree,intercept,coefficients,r_squared"]
        for name, fit in fits.items():
            coefs = ";".join(repr(c) for c in fit.coefficients)
            lines.append(f"{name},{fit.degree},{int(fit.intercept)},{coefs},{fit.r_squared!r}")
        return "\n".join(lines) + "\n", 0
    header = ["model", "equation", "R^2"]
    rows = []
    for name, fit in fits.items():
        terms = []
        powers = range(0 if fit.intercept else 1, fit.degree + 1)
        for coef, power in zip(fit.coefficients, powers):
            if power == 0:
                terms.append(f"{coef:.3f}")
            elif power == 1:
                terms.append(f"{coef:.3f}k")
            else:
                terms.append(f"{coef:.3f}k^{power}")
        rows.append([name, " + ".join(terms), f"{fit.r_squared:.4f}"])
    return _render_table(header, rows), 0


def cmd_simulate(args) -> tuple[str, int]:
    inputs = _load_inputs(args)
    config = SimConfig.from_profile(
        inputs.profile, seed=args.seed, runs=args.runs, billing_mode=args.billing_mode
    )
    result = run(config, inputs.catalog)
    if args.format == "json":
        return result.to_json() + "\n", 0
    if args.format == "csv":
        lines = ["plan_id,mean,stddev,stderr,p5,p50,p95"]
        for p in result.plans:
            lines.append(
                f"{p.plan_id},{p.mean!r},{p.stddev!r},{p.stderr!r},"
                f"{p.percentiles[0]!r},{p.percentiles[1]!r},{p.percentiles[2]!r}"
            )
        return "\n".join(lines) + "\n", 0
    header = ["plan", "mean", "stddev", "stderr", "p5", "p50", "p95"]
    rows = [
        [str(p.plan_id), _fmt(p.mean), _fmt(p.stddev), f"{p.stderr:.4f}",
         _fmt(p.percentiles[0]), _fmt(p.percentiles[1]), _fmt(p.percentiles[2])]
        for p in result.plans
    ]
    out = [
        f"monthly variable cost over {result.runs} simulated months "
        f"(seed {result.seed}, {result.billing_mode} billing):",
        _render_table(header, rows),
    ]
    return "\n".join(out), 0


# --------------------------------------------------------------------------
# parser


def _add_common(sub, cdr: bool = True, grid: bool = False, sim: bool = False):
    sub.add_argument("--catalog", required=True, help="plan-catalog JSON document")
    if cdr:
        sub.add_argument("--cdr", required=True, help="call-detail CSV printout")
        sub.add_argument("--prefixes", required=True, help="prefix;destination_class CSV")
        sub.add_argument("--holidays", help="holiday list, one ISO date per line")
        sub.add_argument("--months", type=float, help="observation window length (default: derived from the CDR)")
    sub.add_argument("--strict", action="store_true", help="malformed CDR rows are fatal")
    if grid:
        sub.add_argument("--k-from", type=float, default=0.5)
        sub.add_argument("--k-to", type=float, default=10.0)
        sub.add_argument("--k-step", type=float, default=0.5)
    if sim:
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--runs", type=int, default=10000)
    sub.add_argument("--billing-mode", choices=BILLING_MODES, default=LOOKUP)
    sub.add_argument("--format", choices=FORMATS, default="table")
    sub.add_argument("--out", help="write output to a file instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tariffopt",
        description="Pick the cheapest billing plan for the observed call traffic.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("validate", help="check catalog and CDR inputs")
    p.add_argument("--catalog", required=True)
    p.add_argument("--cdr")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_validate)

    p = commands.add_parser("analyze", help="estimate traffic parameters from a CDR")
    _add_common(p)
    p.set_defaults(handler=cmd_analyze)

    p = commands.add_parser("rank", help="expected full costs and plan ranking")
    _add_common(p)
    p.set_defaults(handler=cmd_rank)

    p = commands.add_parser("sweep", help="optimal plan under scaled traffic")
    _add_common(p, grid=True)
    p.set_defaults(handler=cmd_sweep)

    p = commands.add_parser("fit", help="polynomial regressions of the cost curves")
    _add_common(p, grid=True)
    p.set_defaults(handler=cmd_fit)

    p = commands.add_parser("simulate", help="Monte-Carlo check of the cost engine")
    _add_common(p, sim=True)
    p.set_defaults(handler=cmd_simulate)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text, code = args.handler(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CatalogError, CdrError, ProfileError, SimulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # engine invariant breach: should never happen
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
