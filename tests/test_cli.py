"""Command-line interface tests, driven through main() with captured output."""

from __future__ import annotations

import csv
import io
import json

from tariffopt.cli import main

from conftest import CATALOG_PATH, CDR_PATH, PREFIXES_PATH

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
    code, out, _ = invoke(capsys, "validate", "--catalog", str(bad))
    assert code == 1
    assert "minute 6" in out


def test_validate_missing_file(capsys):
    code, out, err = invoke(capsys, "validate", "--catalog", "/nonexistent/catalog.json")
    assert code == 2
    assert "/nonexistent/catalog.json" in out + err


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


def test_rank_recommends_staying(capsys):
    code, out, _ = invoke(capsys, "rank", *BASE)
    assert code == 0
    assert "ranking: 6, 1," in out
    assert "optimal: plan 6 (stay)" in out


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


def test_bad_grid_is_validation_error(capsys):
    for grid in (["--k-from", "0", "--k-to", "1"], ["--k-step", "0"], ["--k-step", "nan"]):
        code, _, err = invoke(capsys, "sweep", *BASE, *grid)
        assert code == 1
        assert "bad grid spec" in err


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


def test_engine_value_error_is_internal_error(monkeypatch, capsys):
    from tariffopt import cli

    def broken_run(config, catalog):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(cli, "run", broken_run)
    code, out, err = invoke(capsys, "simulate", *BASE, "--runs", "10")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error:")


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
