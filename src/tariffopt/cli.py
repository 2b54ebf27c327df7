"""Command-line front end: validate inputs, analyze traffic, rank plans,
sweep traffic growth, fit cost regressions, and run the Monte-Carlo check.

Exit codes: 0 success, 1 validation error (one of the package's input
errors), 2 I/O error, 3 internal error (anything else, a bare ValueError
included).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict, dataclass, field
from typing import Any, Callable

from .catalog import Catalog, CatalogError, load_catalog
from .cost import BILLING_MODES, LOOKUP, full_costs, rank
from .sensitivity import RegressionFit, fit_report, k_grid, sweep, switch_points
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


def _fmt4(value: float) -> str:
    return f"{value:.4f}"


@dataclass(frozen=True)
class Column:
    """One report column. A column with no CSV header, or no table header,
    appears only in the other format."""

    csv: str | None
    table: str | None
    fmt: Callable[[Any], str] = _fmt  # table cell format


@dataclass(frozen=True)
class Report:
    """What a report command builds: one document, rendered by :func:`render`."""

    doc: Any  # the JSON document
    columns: list[Column]
    rows: list[list]  # raw values, one per column; None is a blank cell
    before: list[str] = field(default_factory=list)  # table lines above the grid
    after: list[str] = field(default_factory=list)  # table lines below it, after a blank line


def _render_table(header: list[str], rows: list[list[str]]) -> list[str]:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return lines


def render(report: Report, fmt: str) -> str:
    """The report as a table, JSON or CSV; JSON and CSV carry full precision."""
    if fmt == "json":
        return json.dumps(report.doc, indent=2) + "\n"
    if fmt == "csv":
        keep = [i for i, c in enumerate(report.columns) if c.csv is not None]
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow([report.columns[i].csv for i in keep])
        writer.writerows([row[i] for i in keep] for row in report.rows)
        return out.getvalue()
    keep = [i for i, c in enumerate(report.columns) if c.table is not None]
    cells = [
        ["" if row[i] is None else report.columns[i].fmt(row[i]) for i in keep]
        for row in report.rows
    ]
    lines = report.before + _render_table([report.columns[i].table for i in keep], cells)
    if report.after:
        lines += ["", *report.after]
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


def cmd_analyze(args) -> Report:
    inputs = _load_inputs(args)
    catalog, calls, profile = inputs.catalog, inputs.calls, inputs.profile
    minutes = [c.record.duration_seconds / 60.0 for c in calls]
    duration_fit = fit_exponential(minutes)
    histogram = build_histogram(calls, truncation=max(c.minute_index for c in calls))

    lambda_rows = {
        plan.id: dict(zip(plan.subgroup_names(), profile.lambda_for(plan)))
        for plan in catalog.plans
    }
    names = list(dict.fromkeys(name for row in lambda_rows.values() for name in row))
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
    shown = min(len(histogram.masses), 20)
    bins = [f"  minute {m:>3}: {histogram.masses[m - 1]:.4f}" for m in range(1, shown + 1)]
    if shown < len(histogram.masses):
        bins.append(f"  beyond minute {shown}: {sum(histogram.masses[shown:]):.4f}")
    return Report(
        doc=doc,
        columns=[Column("plan", "plan", str), *(Column(n, n) for n in names), Column("total", "total")],
        rows=[
            [pid, *(row.get(n) for n in names), sum(row.values())]
            for pid, row in lambda_rows.items()
        ],
        before=[
            f"traffic: {len(calls)} calls over {inputs.months:.2f} months "
            f"({profile.total_rate:.2f} calls/month)",
            "",
            "calls per month by plan subgroup:",
        ],
        after=[
            f"durations: mean {duration_fit.sample_mean:.2f} min, "
            f"rmsd {duration_fit.sample_rmsd:.2f} min, n={duration_fit.sample_size}",
            f"fitted exponential: mu = {duration_fit.model.mu:.2f} (1/minutes)",
            "",
            "billed-minute histogram:",
            *bins,
        ],
    )


def cmd_rank(args) -> Report:
    inputs = _load_inputs(args)
    catalog = inputs.catalog
    breakdowns = full_costs(catalog, catalog.context, inputs.profile, args.billing_mode)
    ranking = rank(breakdowns)
    ranks = {pid: i + 1 for i, pid in enumerate(ranking.order)}
    names = list(dict.fromkeys(s.name for b in breakdowns for s in b.subgroups))
    rows = []
    for b in breakdowns:
        one_call = {s.name: s.one_call_cost for s in b.subgroups}
        rows.append(
            [b.plan_id, b.plan_name, *(one_call.get(n) for n in names)]
            + [b.variable, b.fixed, b.full, ranks[b.plan_id]]
        )
    current = catalog.context.current_plan_id
    if ranking.optimal_id == current:
        verdict = f"optimal: plan {ranking.optimal_id} (stay)"
    else:
        verdict = f"optimal: plan {ranking.optimal_id} (switch from plan {current})"
    return Report(
        doc={
            # shallow copies: asdict would deep-copy every field
            "plans": [
                {
                    **vars(b),
                    "subgroups": [dict(vars(s)) for s in b.subgroups],
                    "full": b.full,
                    "rank": ranks[b.plan_id],
                }
                for b in breakdowns
            ],
            "ranking": asdict(ranking),
        },
        columns=[
            Column("plan_id", "plan", str),
            Column("plan_name", "name", str),
            *(Column(n, n) for n in names),
            Column("variable", "variable"),
            Column("fixed", "fixed"),
            Column("full", "full"),
            Column("rank", "rank", str),
        ],
        rows=rows,
        before=["expected monthly costs (rubles):"],
        after=["ranking: " + ", ".join(str(pid) for pid in ranking.order), verdict],
    )


def _sweep_points(args):
    inputs = _load_inputs(args)
    grid = k_grid(args.k_from, args.k_to, args.k_step)
    return sweep(inputs.catalog, inputs.catalog.context, inputs.profile, grid, args.billing_mode)


def cmd_sweep(args) -> Report:
    points = _sweep_points(args)
    intervals = switch_points(points)
    plan_ids = sorted(points[0].plan_costs)
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
        "intervals": [asdict(iv) for iv in intervals],
    }
    return Report(
        doc=doc,
        columns=[
            Column("k", "k"),
            Column("optimal_plan", "optimal", str),
            Column("optimal_cost", "optimal_cost"),
            Column("stay_cost", "stay_cost"),
            *(Column(f"plan_{pid}", f"plan_{pid}") for pid in plan_ids),
        ],
        rows=[
            [p.k, p.optimal_plan_id, p.optimal_full_cost, p.stay_cost]
            + [p.plan_costs[pid] for pid in plan_ids]
            for p in points
        ],
        after=[
            "switch points:",
            *(
                f"  plan {iv.plan_id} optimal for k in [{iv.k_start:.2f}, {iv.k_end:.2f}]"
                for iv in intervals
            ),
        ],
    )


def _equation(fit: RegressionFit) -> str:
    terms = []
    powers = range(0 if fit.intercept else 1, fit.degree + 1)
    for coef, power in zip(fit.coefficients, powers):
        if power == 0:
            terms.append(f"{coef:.3f}")
        elif power == 1:
            terms.append(f"{coef:.3f}k")
        else:
            terms.append(f"{coef:.3f}k^{power}")
    return " + ".join(terms)


def cmd_fit(args) -> Report:
    points = _sweep_points(args)
    fits = fit_report(points)
    # the CSV spells out the coefficients; the table shows the equation
    return Report(
        doc={name: asdict(fit) for name, fit in fits.items()},
        columns=[
            Column("model", "model", str),
            Column("degree", None),
            Column("intercept", None),
            Column("coefficients", None),
            Column(None, "equation", str),
            Column("r_squared", "R^2", _fmt4),
        ],
        rows=[
            [
                name,
                fit.degree,
                int(fit.intercept),
                ";".join(repr(c) for c in fit.coefficients),
                _equation(fit),
                fit.r_squared,
            ]
            for name, fit in fits.items()
        ],
    )


def cmd_simulate(args) -> Report:
    inputs = _load_inputs(args)
    config = SimConfig.from_profile(
        inputs.profile, seed=args.seed, runs=args.runs, billing_mode=args.billing_mode
    )
    result = run(config, inputs.catalog)
    return Report(
        doc=result.document(),
        columns=[
            Column("plan_id", "plan", str),
            Column("mean", "mean"),
            Column("stddev", "stddev"),
            Column("stderr", "stderr", _fmt4),
            Column("p5", "p5"),
            Column("p50", "p50"),
            Column("p95", "p95"),
        ],
        rows=[[p.plan_id, p.mean, p.stddev, p.stderr, *p.percentiles] for p in result.plans],
        before=[
            f"monthly variable cost over {result.runs} simulated months "
            f"(seed {result.seed}, {result.billing_mode} billing):"
        ],
    )


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
        if args.command == "validate":
            text, code = cmd_validate(args)
        else:
            text, code = render(args.handler(args), args.format), 0
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
