"""Command-line interface tests, driven through main() with captured output."""

from __future__ import annotations

import csv
import io
import json

import pytest

from tariffopt.cli import main

from tariffopt.catalog import MAX_MINUTE

from conftest import CATALOG_PATH, CDR_PATH, MALFORMED_CATALOGS, PREFIXES_PATH, cut_second_segment

BASE = [
    "--catalog", str(CATALOG_PATH),
    "--cdr", str(CDR_PATH),
    "--prefixes", str(PREFIXES_PATH),
    "--months", "6",
]


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys):
    code, out, _ = invoke(capsys, "validate", "--catalog", str(CATALOG_PATH), "--cdr", str(CDR_PATH))
    assert code == 0
    assert "6 plans, 1 inactive" in out
    assert "246 records parsed" in out


def test_validate_catalog_gap(tmp_path, capsys):
    doc = json.loads(CATALOG_PATH.read_text())
    doc["plans"][0]["subgroups"][0]["segments"] = [
        {"from": 1, "to": 5, "rate": "1"},
        {"from": 7, "to": "open", "rate": "1"},
    ]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert invoke(capsys, "validate", "--catalog", str(bad)) == (
        1, "", "error: plan 1 subgroup 'To MTS Numbers': segments are not contiguous: minute 6 uncovered before "
        "segment 2, which starts at 7\n")


@pytest.mark.parametrize("edit, message", MALFORMED_CATALOGS.values(), ids=MALFORMED_CATALOGS)
def test_validate_malformed_catalog_is_validation_error(edit, message, tmp_path, capsys):
    doc = json.loads(CATALOG_PATH.read_text(encoding="utf-8"))
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert invoke(capsys, "validate", "--catalog", str(bad)) == (1, "", f"error: {message}\n")


def test_validate_malformed_catalog_writes_no_out_file(tmp_path, capsys):
    """A malformed catalog is one `error:` line on stderr, exit 1, and the
    `--out` file is not written."""
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    report = tmp_path / "report.txt"
    code, out, err = invoke(capsys, "validate", "--catalog", str(bad), "--out", str(report))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not report.exists()


def test_validate_malformed_printout_row_is_an_error_under_strict(tmp_path, capsys):
    """Under `--strict` a malformed printout row is one `error:` line on
    stderr, exit 1, with no catalog summary on stdout or in `--out`; without
    it the row is a warning in the summary."""
    cdr = tmp_path / "bad.csv"
    cdr.write_text(CDR_PATH.read_text(encoding="utf-8").split("\n")[0] + "\n"
                   "31.02.2010;12:01:27;+7916;Moscow;Tel;0:57;2.542\n", encoding="utf-8")
    report = tmp_path / "report.txt"
    argv = ["validate", "--catalog", str(CATALOG_PATH), "--cdr", str(cdr)]
    error = (1, "", "error: line 2: day is out of range for month\n")
    assert invoke(capsys, *argv, "--strict") == error
    assert invoke(capsys, *argv, "--strict", "--out", str(report)) == error
    assert not report.exists()
    code, out, err = invoke(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.endswith("  warning: line 2: day is out of range for month, row skipped\nok\n")


def test_simulate_bills_a_catalog_cut_at_the_largest_minute(tmp_path, capsys):
    """The largest segment bound a catalog accepts fits the oracle's int64
    billing; one minute more is a catalog error."""
    doc = json.loads(CATALOG_PATH.read_text(encoding="utf-8"))
    cut = tmp_path / "cut.json"
    cut_second_segment(doc, MAX_MINUTE - 1)
    cut.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = invoke(capsys, "simulate", "--catalog", str(cut), *BASE[2:], "--runs", "100")
    assert (code, err) == (0, "")
    cut_second_segment(doc, MAX_MINUTE)
    cut.write_text(json.dumps(doc), encoding="utf-8")
    assert invoke(capsys, "validate", "--catalog", str(cut)) == (
        1, "", f"error: plan 1 subgroup 'To MTS Numbers' segment 3 from: "
               f"past the largest minute {MAX_MINUTE}: {MAX_MINUTE + 1}\n")


def test_validate_missing_file(tmp_path, capsys):
    """A missing catalog or printout is one error line on stderr, exit 2; no
    catalog summary reaches stdout and no `--out` file is written."""
    report = tmp_path / "report.txt"
    for argv, missing in (
        (["--catalog", "/nonexistent/catalog.json"], "/nonexistent/catalog.json"),
        (["--catalog", "/nonexistent/catalog.json", "--out", str(report)], "/nonexistent/catalog.json"),
        (["--catalog", str(CATALOG_PATH), "--cdr", "/nonexistent/printout.csv"], "/nonexistent/printout.csv"),
    ):
        code, out, err = invoke(capsys, "validate", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and missing in err
        assert not report.exists()


def test_analyze_table(capsys):
    code, out, _ = invoke(capsys, "analyze", *BASE)
    assert code == 0
    assert "234 calls over 6.00 months (39.00 calls/month)" in out
    assert "On Work Days" in out
    assert "33.00" in out and "6.00" in out


def test_analyze_reports_mu_to_two_decimals(tmp_path, capsys):
    # two calls averaging exactly 2.45 minutes -> mu = 1/2.45 printed as 0.41
    cdr = tmp_path / "two.csv"
    cdr.write_text(
        "date;time;number;zone;service;duration;cost\n"
        "19.08.2010;10:00:00;+79161112233;Moscow;Tel;1:27;3.000\n"
        "20.08.2010;11:00:00;+79161112233;Moscow;Tel;3:27;3.000\n"
    )
    code, out, _ = invoke(
        capsys, "analyze",
        "--catalog", str(CATALOG_PATH),
        "--cdr", str(cdr),
        "--prefixes", str(PREFIXES_PATH),
        "--months", "1",
    )
    assert code == 0
    assert "mean 2.45 min" in out
    assert "mu = 0.41" in out


def test_analyze_sms_only_cdr_fails(tmp_path, capsys):
    cdr = tmp_path / "sms.csv"
    cdr.write_text(
        "date;time;number;zone;service;duration;cost\n"
        "20.08.2010;12:14:39;+79101112233;;SMS;1;4.449\n"
    )
    code, _, err = invoke(
        capsys, "analyze",
        "--catalog", str(CATALOG_PATH),
        "--cdr", str(cdr),
        "--prefixes", str(PREFIXES_PATH),
    )
    assert code == 1
    assert "no Tel traffic" in err


def test_analyze_of_zero_length_tel_calls_alone_names_them(tmp_path, capsys):
    """A printout whose only Tel call lasts 0:00 has no Tel traffic, and the
    error says how many Tel rows were dropped for their length."""
    cdr = tmp_path / "zero.csv"
    cdr.write_text(
        "date;time;number;zone;service;duration;cost\n"
        "20.08.2010;12:14:39;+79101112233;;SMS;1;4.449\n"
        "20.08.2010;12:15:00;+79101112233;;Tel;0:00;0.000\n"
    )
    code, out, err = invoke(
        capsys, "analyze",
        "--catalog", str(CATALOG_PATH),
        "--cdr", str(cdr),
        "--prefixes", str(PREFIXES_PATH),
    )
    assert (code, out) == (1, "")
    assert err == "error: no Tel traffic in the CDR (zero-length Tel rows dropped: 1)\n"


def test_rank_recommends_staying(capsys):
    code, out, _ = invoke(capsys, "rank", *BASE)
    assert code == 0
    assert "ranking: 6, 1," in out
    assert "optimal: plan 6 (stay)" in out


@pytest.mark.parametrize("day", ["31.12.9999", "15.12.9999", "30.11.9999"])
def test_rank_measures_a_window_that_ends_in_the_year_9999(day, tmp_path, capsys):
    """Without --months the window runs from the first Tel call to the last;
    its month boundaries may lie past 31.12.9999."""
    lines = CDR_PATH.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[-1] = day + lines[-1][len(day):]
    cdr = tmp_path / "cdr.csv"
    cdr.write_text("".join(lines), encoding="utf-8")
    code, out, err = invoke(capsys, "rank", "--catalog", str(CATALOG_PATH), "--cdr", str(cdr),
                            "--prefixes", str(PREFIXES_PATH))
    assert (code, err) == (0, "")
    assert "optimal: plan" in out


def test_rank_with_other_current_plan_excludes_inactive(tmp_path, capsys):
    doc = json.loads(CATALOG_PATH.read_text())
    doc["context"]["current_plan_id"] = 1
    moved = tmp_path / "moved.json"
    moved.write_text(json.dumps(doc))
    code, out, _ = invoke(
        capsys, "rank",
        "--catalog", str(moved),
        "--cdr", str(CDR_PATH),
        "--prefixes", str(PREFIXES_PATH),
        "--months", "6",
    )
    assert code == 0
    assert "optimal: plan 1 (stay)" in out
    assert "Oblastnoi" not in out  # inactive and no longer current


def test_rank_csv_matches_table_values(capsys):
    code, table_out, _ = invoke(capsys, "rank", *BASE)
    code2, csv_out, _ = invoke(capsys, "rank", *BASE, "--format", "csv")
    assert code == 0 and code2 == 0
    rows = list(csv.reader(io.StringIO(csv_out)))
    header, body = rows[0], rows[1:]
    full_col = header.index("full")
    for row in body:
        rounded = f"{float(row[full_col]):.2f}"
        assert rounded in table_out


def test_rank_json_matches_table_values(capsys):
    _, table_out, _ = invoke(capsys, "rank", *BASE)
    _, json_out, _ = invoke(capsys, "rank", *BASE, "--format", "json")
    doc = json.loads(json_out)
    for plan in doc["plans"]:
        assert f"{plan['full']:.2f}" in table_out


def test_reports_carry_identical_values(capsys):
    _, json_out, _ = invoke(capsys, "rank", *BASE, "--format", "json")
    _, csv_out, _ = invoke(capsys, "rank", *BASE, "--format", "csv")
    doc = json.loads(json_out)
    assert doc["ranking"]["order"] == [6, 1, 3, 2, 4, 5]
    rows = list(csv.DictReader(io.StringIO(csv_out)))
    for key in ("full", "variable", "fixed"):
        csv_values = {int(r["plan_id"]): float(r[key]) for r in rows}
        json_values = {p["plan_id"]: p[key] for p in doc["plans"]}
        assert csv_values == json_values


def test_csv_quotes_subgroup_names(tmp_path, capsys):
    doc = json.loads(CATALOG_PATH.read_text())
    doc["plans"][0]["subgroups"][0]["name"] = 'Calls, "MTS"'
    catalog = tmp_path / "quoted.json"
    catalog.write_text(json.dumps(doc))
    for command in ("analyze", "rank"):
        code, out, _ = invoke(capsys, command, "--catalog", str(catalog), *BASE[2:], "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len({len(row) for row in rows}) == 1
        assert 'Calls, "MTS"' in rows[0]


def test_sweep_reports_plan_sequence(capsys):
    code, out, _ = invoke(capsys, "sweep", *BASE)
    assert code == 0
    lines = [line for line in out.splitlines() if "optimal for k in" in line]
    assert [line.split()[1] for line in lines] == ["6", "1", "2"]
    assert lines[0].endswith("[0.50, 1.73]")  # sample-CDR profile, mu ~ 0.38
    assert lines[-1].endswith("[4.26, 10.00]")


def test_sweep_csv_is_plottable(capsys):
    code, out, _ = invoke(capsys, "sweep", *BASE, "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:4] == ["k", "optimal_plan", "optimal_cost", "stay_cost"]
    assert len(rows) == 21  # header + 20 grid points
    assert float(rows[1][0]) == 0.5


def test_sweep_lists_plans_by_id_whatever_the_catalog_order(tmp_path, capsys):
    """The plans' columns and costs come in ascending id, not in the
    catalog's order: the same catalog listed backwards sweeps to the same
    bytes in every format."""
    doc = json.loads(CATALOG_PATH.read_text(encoding="utf-8"))
    doc["plans"].reverse()
    reversed_catalog = tmp_path / "reversed.json"
    reversed_catalog.write_text(json.dumps(doc), encoding="utf-8")
    for fmt in ("table", "json", "csv"):
        expected = invoke(capsys, "sweep", *BASE, "--format", fmt)
        assert expected[0] == 0
        assert invoke(capsys, "sweep", "--catalog", str(reversed_catalog), *BASE[2:], "--format", fmt) == expected


def test_fit_prints_r2_progression(capsys):
    code, out, _ = invoke(capsys, "fit", *BASE, "--format", "json")
    assert code == 0
    fits = json.loads(out)
    r2 = [
        fits["optimal_linear"]["r_squared"],
        fits["optimal_quadratic"]["r_squared"],
        fits["optimal_cubic"]["r_squared"],
    ]
    assert r2[0] < r2[1] < r2[2]
    _, table_out, _ = invoke(capsys, "fit", *BASE)
    assert "optimal_cubic" in table_out and "R^2" in table_out


def test_simulate_deterministic_output(capsys):
    args = ["simulate", *BASE, "--seed", "7", "--runs", "200", "--format", "json"]
    code1, out1, _ = invoke(capsys, *args)
    code2, out2, _ = invoke(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["seed"] == 7 and doc["runs"] == 200
    assert [p["plan_id"] for p in doc["plans"]] == [1, 2, 3, 4, 5, 6]


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = invoke(capsys, "rank", *BASE, "--format", "json", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["ranking"]["optimal_id"] == 6


@pytest.mark.parametrize("command", [["validate", "--catalog", str(CATALOG_PATH)], ["rank", *BASE]])
def test_an_unwritable_out_is_an_io_error(command, tmp_path, capsys):
    for out in (tmp_path / "missing" / "report.txt", tmp_path):
        code, stdout, err = invoke(capsys, *command, "--out", str(out))
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: ") and str(out) in err


def test_bad_grid_is_validation_error(capsys):
    for grid in (["--k-from", "0", "--k-to", "1"], ["--k-step", "0"], ["--k-step", "nan"]):
        code, _, err = invoke(capsys, "sweep", *BASE, *grid)
        assert code == 1
        assert "bad grid spec" in err


def test_collapsed_or_oversized_grid_is_validation_error(capsys):
    # steps below the grid's 12-decimal rounding repeat k = 1.0; 10**6 + 1
    # points is one over MAX_GRID_POINTS
    for command in ("sweep", "fit"):
        code, out, err = invoke(capsys, command, *BASE, "--k-from", "1", "--k-to", "1.0000000000001", "--k-step", "1e-14")
        assert (code, out) == (1, "")
        assert "points rounded to 12 decimals coincide" in err
        code, out, err = invoke(capsys, command, *BASE, "--k-from", "1", "--k-to", "1000001", "--k-step", "1")
        assert (code, out) == (1, "")
        assert "more than 1000000 points" in err


def test_non_finite_months_is_validation_error(capsys):
    for months in ("nan", "inf"):
        code, out, err = invoke(capsys, "rank", *BASE[:6], "--months", months)
        assert code == 1
        assert out == ""
        assert f"months must be positive and finite, got {months}" in err


def test_fit_on_a_short_grid_is_validation_error(capsys):
    code, _, err = invoke(capsys, "fit", *BASE, "--k-from", "1", "--k-to", "2")
    assert code == 1
    assert "at least 5 sweep points" in err


def test_fit_on_a_grid_it_cannot_fit_is_validation_error(capsys):
    # six distinct points 2e-8 apart cannot tell k, k^2 and k^3 apart, nor
    # can a grid over 50 orders of magnitude tell 1 from k; k^3 overflows
    # past about 5.6e102
    for grid, message in (
        (["--k-from", "1", "--k-to", "1.0000001", "--k-step", "0.00000002"],
         "grid from k=1.0 to k=1.0000001 cannot be fitted to degree 2: its powers of k are numerically dependent"),
        (["--k-to", "1e50", "--k-step", "1e49"], "cannot be fitted to degree 1: its powers of k are numerically dependent"),
        (["--k-to", "1e155", "--k-step", "1e154"], "grid from k=0.5 to k=1e+155 is too wide to fit"),
    ):
        code, out, err = invoke(capsys, "fit", *BASE, *grid)
        assert (code, out) == (1, "")
        assert message in err


def test_sweep_whose_costs_overflow_is_validation_error(capsys):
    for fmt in ("json", "table"):
        code, out, err = invoke(capsys, "sweep", *BASE, "--k-to", "1e308", "--k-step", "1e307", "--format", fmt)
        assert (code, out) == (1, "")
        assert err == "error: plan costs overflow at traffic multiplier 1e+308\n"


def _catalog_with(tmp_path, edit):
    """The bundled catalog with `edit` applied to its JSON tree, written out."""
    doc = json.loads(CATALOG_PATH.read_text(encoding="utf-8"))
    edit(doc)
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _huge_first_rate(doc):
    doc["plans"][0]["subgroups"][0]["segments"][0]["rate"] = "1e307"


def _huge_fees(doc):
    doc["plans"][0]["fixed"] = {"subscription_fee": "1e308", "switch_fee": "1e308", "purchase_cost": "1e308"}


@pytest.mark.parametrize(
    "edit, command, message",
    [
        # plan 1's cumulative cost is not finite at k = 1
        (_huge_first_rate, ["rank", "--billing-mode", "cumulative", "--format", "json"],
         "its expected monthly cost overflows"),
        (_huge_first_rate, ["sweep", "--billing-mode", "cumulative"], "its expected monthly cost overflows"),
        (_huge_first_rate, ["fit", "--billing-mode", "cumulative"], "its expected monthly cost overflows"),
        # each fee is finite, their sum is not
        (_huge_fees, ["rank", "--format", "json"], "its expected monthly cost overflows"),
        # every month's lookup total is finite; the sum behind their mean is not
        (_huge_first_rate, ["simulate", "--runs", "200"], "its simulated monthly cost statistics overflow"),
        (_huge_first_rate, ["simulate", "--runs", "200", "--billing-mode", "cumulative"],
         "its simulated monthly cost statistics overflow"),
    ],
    ids=["rank", "sweep", "fit", "rank-fees", "simulate", "simulate-cumulative"],
)
def test_an_overflowing_cost_is_a_validation_error_naming_its_plan(edit, command, message, tmp_path, capsys):
    catalog = _catalog_with(tmp_path, edit)
    argv = [command[0], "--catalog", str(catalog), *BASE[2:], *command[1:]]
    assert invoke(capsys, *argv) == (1, "", f"error: plan 1 ('Super Zero'): {message}\n")


def test_a_fit_coefficient_past_the_float_range_is_a_validation_error(tmp_path, capsys):
    """With plan 6, the current plan, at a fee of 1e307, the stay curve is
    almost flat, and its through-origin slope over a grid of small k, about
    fee / k, is past the float range: `fit` names the form and the grid and
    writes nothing, where it wrote `Infinity`."""
    catalog = _catalog_with(tmp_path, lambda doc: doc["plans"][5]["fixed"].update(subscription_fee="1e307"))
    argv = ["fit", "--catalog", str(catalog), *BASE[2:], "--k-from", "0.01", "--k-to", "0.05", "--k-step", "0.01",
            "--format", "json"]
    assert invoke(capsys, *argv) == (
        1, "", "error: stay_linear_origin over the grid from k=0.01 to k=0.05: a coefficient overflows\n")


def test_a_grid_start_that_rounds_to_zero_is_named(capsys):
    # every point is rounded to 12 decimals, so k = 1e-13 would be k = 0
    code, out, err = invoke(capsys, "sweep", *BASE, "--k-from", "1e-13")
    assert (code, out, err) == (1, "", "error: bad grid spec start=1e-13 stop=10.0 step=0.5\n")


def test_a_window_too_short_for_its_call_rates_is_named(capsys):
    code, out, err = invoke(capsys, "rank", *BASE[:6], "--months", "1e-320")
    assert (code, out) == (1, "")
    assert err == "error: months 1e-320 is too short: 234 calls over it overflow the call rate\n"


def test_unreadable_inputs_are_validation_errors(tmp_path, capsys):
    holidays = tmp_path / "holidays.txt"
    holidays.write_text("2010-01-01\n2010-13-01\n")
    code, _, err = invoke(capsys, "rank", *BASE, "--holidays", str(holidays))
    assert code == 1
    assert "holiday list line 2" in err

    prefixes = tmp_path / "prefixes.csv"
    prefixes.write_text(PREFIXES_PATH.read_text() + "+7916;landline\n")
    code, _, err = invoke(capsys, "rank", *BASE[:4], "--prefixes", str(prefixes), *BASE[6:])
    assert code == 1
    assert "prefix table line" in err

    cdr = tmp_path / "latin1.csv"
    cdr.write_bytes(CDR_PATH.read_bytes() + "20.08.2010;12:00:00;+7;Москва;Tel;0:10;1\n".encode("cp1251"))
    code, _, err = invoke(capsys, "rank", *BASE[:2], "--cdr", str(cdr), *BASE[4:])
    assert code == 1
    assert "CDR is not UTF-8" in err

    catalog = tmp_path / "catalog.json"
    doc = json.loads(CATALOG_PATH.read_text())
    doc["plans"][0]["id"] = "one"
    catalog.write_text(json.dumps(doc))
    code, _, err = invoke(capsys, "rank", "--catalog", str(catalog), *BASE[2:])
    assert code == 1
    assert "plan id: not an integer" in err


@pytest.mark.parametrize("command", ["rank", "analyze"])
def test_two_subgroups_with_one_name_are_validation_errors(command, tmp_path, capsys):
    """Both commands key a plan's subgroups by name; two with one name would
    merge, and a row of the table would go missing."""
    catalog = tmp_path / "catalog.json"
    doc = json.loads(CATALOG_PATH.read_text(encoding="utf-8"))
    doc["plans"][0]["subgroups"][1]["name"] = "To MTS Numbers"
    catalog.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = invoke(capsys, command, "--catalog", str(catalog), *BASE[2:])
    assert (code, out) == (1, "")
    assert "two subgroups named 'To MTS Numbers'" in err


def test_engine_value_error_is_internal_error(monkeypatch, capsys):
    """A bare ValueError raised inside a command is an engine fault (exit 3);
    each of the package's four input errors is a validation error (exit 1)."""
    from tariffopt import CatalogError, CdrError, ProfileError, SimulationError, simulate

    message = "operands could not be broadcast together"
    raised = []

    def broken_run(config, catalog):
        raise raised[-1](message)

    # the parser main() has already built and kept must still reach the patched `run`
    assert invoke(capsys, "simulate", *BASE, "--runs", "10")[0] == 0
    monkeypatch.setattr(simulate, "run", broken_run)
    for error, code, prefix in [
        (ValueError, 3, "internal error"),
        (CatalogError, 1, "error"),
        (CdrError, 1, "error"),
        (ProfileError, 1, "error"),
        (SimulationError, 1, "error"),
    ]:
        raised.append(error)
        assert invoke(capsys, "simulate", *BASE, "--runs", "10") == (code, "", f"{prefix}: {message}\n"), error


@pytest.mark.parametrize("argv,reads,classifies,prices", [
    (["analyze", *BASE], 1, 1, 0),
    (["rank", *BASE], 1, 1, 1),
    (["sweep", *BASE], 1, 1, 1),
    (["fit", *BASE], 1, 1, 1),
    (["simulate", *BASE, "--runs", "10"], 1, 1, 0),
    (["validate", "--catalog", str(CATALOG_PATH), "--cdr", str(CDR_PATH)], 1, 0, 0),
], ids=lambda value: value[0] if isinstance(value, list) else None)
def test_a_command_reads_classifies_and_prices_its_inputs_once(argv, reads, classifies, prices, monkeypatch, capsys):
    """A report command reads the printout once, classifies its calls once
    and builds at most one pricing's rows; `validate --cdr` only reads the
    printout."""
    from tariffopt import cdr, classify, cost

    counts = dict.fromkeys(["parse_cdr", "classify_calls", "_rows"], 0)

    def count(module, name):
        inner = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(cdr, "parse_cdr")
    count(classify, "classify_calls")
    count(cost, "_rows")
    assert invoke(capsys, *argv)[0] == 0
    assert counts == {"parse_cdr": reads, "classify_calls": classifies, "_rows": prices}


def test_absurd_run_count_is_validation_error(monkeypatch, capsys):
    from tariffopt import simulate

    def unreachable_run(config, catalog):
        raise AssertionError("the run count is checked before the oracle allocates anything")

    monkeypatch.setattr(simulate, "run", unreachable_run)
    code, out, err = invoke(capsys, "simulate", *BASE, "--runs", "10000000000000")
    assert code == 1
    assert out == ""
    assert err == "error: runs must be between 1 and 10000000, got 10000000000000\n"


def test_traffic_too_busy_for_one_chunk_is_validation_error(capsys):
    """A tiny observation window makes every cell's monthly rate astronomical;
    the oracle refused to allocate it and exited 3 with a numpy error."""
    code, out, err = invoke(capsys, "simulate", *BASE[:6], "--months", "1e-300", "--runs", "10")
    assert code == 1
    assert out == ""
    assert err.startswith("error: traffic too busy to simulate: a month is bounded at ")
    assert err.endswith(" calls, over the chunk budget of 856064 calls\n")


def test_fit_of_costs_whose_squares_overflow(capsys):
    """Costs past about 1e154 square past the float range; the stay curve,
    the exact line 6.3e302 k, still fits with R^2 1 and nothing is warned."""
    code, out, err = invoke(capsys, "fit", *BASE[:6], "--months", "1e-300", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["stay_linear_origin"] == {
        "degree": 1, "intercept": False, "coefficients": [6.300000000000001e302], "r_squared": 1.0,
    }


def test_a_number_past_1e15_prints_in_exponent_form(capsys):
    """At call rates near the float limit, every table line and the simulate
    error stay short: a cost prints as 6.300e+302, not its 303 digits."""
    tiny = [*BASE[:6], "--months", "1e-300"]
    for command, shown in (("rank", " 6.300e+302 "), ("fit", " 6.300e+302k ")):
        code, out, err = invoke(capsys, command, *tiny)
        assert (code, err) == (0, "")
        assert shown in out
        assert max(map(len, out.splitlines())) <= 200
    code, out, err = invoke(capsys, "simulate", *tiny, "--runs", "10")
    assert (code, out) == (1, "")
    assert "a month is bounded at 2.340e+302 calls" in err and len(err) <= 200


def test_strict_parse_failure(tmp_path, capsys):
    cdr = tmp_path / "broken.csv"
    cdr.write_text(
        "date;time;number;zone;service;duration;cost\n"
        "zzz;12:00:00;+7916;Moscow;Tel;0:57;2.542\n"
    )
    code, _, err = invoke(
        capsys, "analyze",
        "--catalog", str(CATALOG_PATH),
        "--cdr", str(cdr),
        "--prefixes", str(PREFIXES_PATH),
        "--strict",
    )
    assert code == 1
    assert "line 2" in err


def _cdr_with_an_absurd_call(tmp_path):
    """The bundled CDR plus one call of 1e20 minutes, and that row's line."""
    cdr = tmp_path / "absurd.csv"
    row = "15.03.2010;12:00:00;+791655583;Moscow;Tel;100000000000000000000:00;3.000\n"
    cdr.write_text(CDR_PATH.read_text() + row)
    return cdr, len(CDR_PATH.read_text().splitlines()) + 1


def test_absurd_call_duration_is_a_skipped_row(tmp_path, capsys):
    cdr, lineno = _cdr_with_an_absurd_call(tmp_path)
    for command in (["rank", "--billing-mode", "cumulative"], ["analyze"]):
        code, out, err = invoke(capsys, *command, *BASE[:2], "--cdr", str(cdr), *BASE[4:6])
        assert (code, err) == (0, "")
        assert out == invoke(capsys, *command, *BASE[:2], "--cdr", str(CDR_PATH), *BASE[4:6])[1]
    code, out, _ = invoke(capsys, "validate", "--catalog", str(CATALOG_PATH), "--cdr", str(cdr))
    assert code == 0
    assert f"line {lineno}: duration '100000000000000000000:00' is longer than 31 days, row skipped" in out


def test_absurd_call_duration_is_fatal_in_strict_mode(tmp_path, capsys):
    cdr, lineno = _cdr_with_an_absurd_call(tmp_path)
    for command in ("rank", "analyze"):
        code, out, err = invoke(capsys, command, *BASE[:2], "--cdr", str(cdr), *BASE[4:6], "--strict")
        assert (code, out) == (1, "")
        assert f"line {lineno}: duration '100000000000000000000:00' is longer than 31 days" in err


#: a line that csv cannot read, and csv's words for it
UNREADABLE_LINES = {
    "bare CR": (
        "01.03.2010;10:00:00;+7916;M;Tel;1:00;3.000\r01.03.2010;10:00:00;+7916;M;Tel;1:00;3.000",
        "new-line character seen in unquoted field",
    ),
    "huge field": (
        "01.03.2010;10:00:00;+7916" + "1" * 131072 + ";M;Tel;1:00;3.000",
        "field larger than field limit (131072)",
    ),
}


@pytest.mark.parametrize("line, message", UNREADABLE_LINES.values(), ids=UNREADABLE_LINES)
def test_an_unreadable_cdr_line_is_a_malformed_row(tmp_path, capsys, line, message):
    cdr = tmp_path / "unreadable.csv"
    cdr.write_bytes(CDR_PATH.read_bytes() + line.encode() + b"\n")
    lineno = len(CDR_PATH.read_bytes().splitlines()) + 1
    code, out, err = invoke(capsys, "rank", *BASE[:2], "--cdr", str(cdr), *BASE[4:])
    assert (code, err) == (0, "")
    assert out == invoke(capsys, "rank", *BASE)[1]
    code, out, _ = invoke(capsys, "validate", "--catalog", str(CATALOG_PATH), "--cdr", str(cdr))
    assert code == 0
    assert f"  warning: line {lineno}: {message}, row skipped\n" in out
    for command in (["rank", *BASE[:2], "--cdr", str(cdr), *BASE[4:]],
                    ["validate", "--catalog", str(CATALOG_PATH), "--cdr", str(cdr)]):
        code, out, err = invoke(capsys, *command, "--strict")
        assert code == 1
        assert f"line {lineno}: {message}\n" in out + err


@pytest.mark.parametrize(
    "line, message",
    [("+7916;landline\r+7495;landline", UNREADABLE_LINES["bare CR"][1]),
     ("+7916" + "1" * 131072 + ";landline", UNREADABLE_LINES["huge field"][1])],
    ids=UNREADABLE_LINES,
)
def test_an_unreadable_prefix_table_line_is_a_validation_error(tmp_path, capsys, line, message):
    prefixes = tmp_path / "prefixes.csv"
    prefixes.write_bytes(PREFIXES_PATH.read_bytes() + line.encode() + b"\n")
    lineno = len(PREFIXES_PATH.read_bytes().splitlines()) + 1
    code, out, err = invoke(capsys, "rank", *BASE[:4], "--prefixes", str(prefixes), *BASE[6:])
    assert (code, out) == (1, "")
    assert err == f"error: prefix table line {lineno}: {message}\n"
