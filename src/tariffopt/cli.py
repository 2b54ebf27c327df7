"""Command-line front end: validate inputs, analyze traffic, rank plans,
sweep traffic growth, fit cost regressions, and run the Monte-Carlo check.

Exit codes: 0 success, 1 validation error (one of the package's input
errors), 2 I/O error or usage error (argparse prints the usage on stderr),
3 internal error (anything else, a bare ValueError included).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from datetime import date
from typing import IO, TYPE_CHECKING, Any, Callable, Sequence

from .catalog import Catalog, CdrError, InputError, _Record, _shown, load_catalog
from .cost import BILLING_MODES, LOOKUP, full_costs, rank

# Each command imports the other engine modules it runs, so that a process
# loads only those: `validate` loads neither classification nor profile
# estimation, and only `sweep`, `fit` and `simulate` load sensitivity or the
# oracle. The parser needs `cost` for its billing modes.
if TYPE_CHECKING:
    from .classify import CallTable
    from .sensitivity import RegressionFit
    from .traffic import TrafficProfile

FORMATS = ("table", "json", "csv")


def _fmt(value: float) -> str:
    return _shown(value, ".2f")


def _fmt4(value: float) -> str:
    return _shown(value, ".4f")


class Column(_Record):
    """One report column. A column with no CSV header, or no table header,
    appears only in the other format. `fmt` formats its table cells."""

    def __init__(self, csv: str | None, table: str | None, fmt: Callable[[Any], str] = _fmt):
        vars(self).update(csv=csv, table=table, fmt=fmt)


class Report(_Record):
    """What a report command builds: one document, rendered by :func:`render`.

    `doc` is the JSON document and `rows` the raw values, one per column,
    None a blank cell. The table shows the lines `before` above its grid and
    the lines `after` below it, after a blank line.
    """

    def __init__(self, doc: Any, columns: list[Column], rows: list[list], before: Sequence[str] = (),
                 after: Sequence[str] = ()):
        vars(self).update(doc=doc, columns=columns, rows=rows, before=before, after=after)


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
    lines = [*report.before, *_render_table([report.columns[i].table for i in keep], cells)]
    if report.after:
        lines += ["", *report.after]
    return "\n".join(lines) + "\n"


class Inputs(_Record):
    """A report command's inputs, loaded once by :func:`main` for its handler: the
    catalog, the printout's classified calls, their profile over `months`, the reader's warnings."""

    def __init__(self, catalog: Catalog, calls: CallTable, profile: TrafficProfile, months: float, issues: list[str]):
        vars(self).update(catalog=catalog, calls=calls, profile=profile, months=months, issues=issues)


def _read(path: str, reader: Callable[[IO[bytes]], Any]) -> Any:
    """What `reader` makes of the file at `path`, opened in binary."""
    with open(path, "rb") as fh:
        return reader(fh)


def _load_inputs(args) -> Inputs:
    from .cdr import parse_cdr
    from .classify import PrefixTable, WorkdayCalendar, classify_calls
    from .traffic import estimate_profile, observation_months

    catalog = _read(args.catalog, load_catalog)
    prefixes = _read(args.prefixes, PrefixTable.from_csv)
    calendar = _read(args.holidays, WorkdayCalendar.from_file) if args.holidays else WorkdayCalendar()
    issues: list[str] = []
    records = _read(args.cdr, lambda fh: parse_cdr(fh, strict=args.strict, issues=issues))
    calls = classify_calls(records, prefixes, calendar)
    if not calls:
        dropped = f" (zero-length Tel rows dropped: {calls.zero_length})" if calls.zero_length else ""
        raise CdrError(f"no Tel traffic in the CDR{dropped}")
    if args.months is not None:
        months = args.months
    else:
        dates = calls.date
        months = observation_months(date.fromordinal(int(dates.min())), date.fromordinal(int(dates.max())))
    profile = estimate_profile(calls, catalog, months)
    return Inputs(catalog=catalog, calls=calls, profile=profile, months=months, issues=issues)


# --------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> str:
    lines = []
    catalog = _read(args.catalog, load_catalog)
    inactive = sum(not p.active for p in catalog.plans)
    lines.append(f"catalog: {len(catalog.plans)} plans, {inactive} inactive")
    lines.append(
        f"context: current plan {catalog.context.current_plan_id}, "
        f"owned SIMs: {', '.join(sorted(catalog.context.owned_sim_providers)) or 'none'}"
    )
    if args.cdr:
        from .cdr import parse_cdr

        issues: list[str] = []
        records = _read(args.cdr, lambda fh: parse_cdr(fh, strict=args.strict, issues=issues))
        lines.append(f"cdr: {len(records)} records parsed, {len(issues)} warnings")
        for issue in issues:
            lines.append(f"  warning: {issue}")
    lines.append("ok")
    return "\n".join(lines) + "\n"


def cmd_analyze(inputs: Inputs, args) -> Report:
    from .traffic import build_histogram, fit_exponential

    catalog, calls, profile = inputs.catalog, inputs.calls, inputs.profile
    duration_fit = fit_exponential(calls.duration / 60.0)
    histogram = build_histogram(calls, truncation=int(calls.minute.max()))

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
            f"traffic: {len(calls)} calls over {_fmt(inputs.months)} months "
            f"({_fmt(profile.total_rate)} calls/month)",
            "",
            "calls per month by plan subgroup:",
        ],
        after=[
            f"durations: mean {_fmt(duration_fit.sample_mean)} min, "
            f"rmsd {_fmt(duration_fit.sample_rmsd)} min, n={duration_fit.sample_size}",
            f"fitted exponential: mu = {_fmt(duration_fit.model.mu)} (1/minutes)",
            "",
            "billed-minute histogram:",
            *bins,
        ],
    )


def cmd_rank(inputs: Inputs, args) -> Report:
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
            "plans": [
                {
                    **vars(b),
                    "subgroups": [dict(vars(s)) for s in b.subgroups],
                    "full": b.full,
                    "rank": ranks[b.plan_id],
                }
                for b in breakdowns
            ],
            "ranking": dict(vars(ranking)),
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


def _sweep(inputs: Inputs, args):
    from .sensitivity import k_grid, sweep

    grid = k_grid(args.k_from, args.k_to, args.k_step)
    return sweep(inputs.catalog, inputs.catalog.context, inputs.profile, grid, args.billing_mode)


def cmd_sweep(inputs: Inputs, args) -> Report:
    from .sensitivity import switch_points

    swept = _sweep(inputs, args)
    intervals = switch_points(swept)
    plan_ids, rows = swept.table()
    doc = {
        "points": [
            {
                "k": k,
                "optimal_plan": best,
                "optimal_cost": best_cost,
                "stay_cost": stay_cost,
                "plan_costs": dict(zip(map(str, plan_ids), at_k)),
            }
            for k, best, best_cost, stay_cost, *at_k in rows
        ],
        "intervals": [dict(vars(iv)) for iv in intervals],
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
        rows=rows,
        after=[
            "switch points:",
            *(
                f"  plan {iv.plan_id} optimal for k in [{_fmt(iv.k_start)}, {_fmt(iv.k_end)}]"
                for iv in intervals
            ),
        ],
    )


def _equation(fit: RegressionFit) -> str:
    terms = []
    powers = range(0 if fit.intercept else 1, fit.degree + 1)
    for coef, power in zip(fit.coefficients, powers):
        term = _shown(coef, ".3f")
        if power == 0:
            terms.append(term)
        elif power == 1:
            terms.append(f"{term}k")
        else:
            terms.append(f"{term}k^{power}")
    return " + ".join(terms)


def cmd_fit(inputs: Inputs, args) -> Report:
    from .sensitivity import fit_report

    fits = fit_report(_sweep(inputs, args))
    # the CSV spells out the coefficients; the table shows the equation
    return Report(
        doc={name: dict(vars(fit)) for name, fit in fits.items()},
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


def cmd_simulate(inputs: Inputs, args) -> Report:
    from .simulate import PERCENTILES, SimConfig, run

    config = SimConfig.from_profile(inputs.profile, seed=args.seed, runs=args.runs, billing_mode=args.billing_mode)
    result = run(config, inputs.catalog)
    return Report(
        doc=result.document(),
        columns=[
            Column("plan_id", "plan", str),
            Column("mean", "mean"),
            Column("stddev", "stddev"),
            Column("stderr", "stderr", _fmt4),
            *(Column(f"p{q}", f"p{q}") for q in PERCENTILES),
        ],
        rows=[[p.plan_id, p.mean, p.stddev, p.stderr, *p.percentiles] for p in result.plans],
        before=[
            f"monthly variable cost over {result.runs} simulated months "
            f"(seed {result.seed}, {result.billing_mode} billing):"
        ],
    )


# --------------------------------------------------------------------------
# parser


def _add_common(sub, grid: bool = False, sim: bool = False):
    sub.add_argument("--catalog", required=True, help="plan-catalog JSON document")
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every later
    :func:`main` call: `parse_args` returns a fresh namespace each time, and
    every default is immutable."""
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
            text = cmd_validate(args)
        else:
            text = render(args.handler(_load_inputs(args), args), args.format)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # engine invariant breach: should never happen
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
