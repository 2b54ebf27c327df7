"""Metamorphic relations of the command line (Chen, Cheung and Yiu 1998,
"Metamorphic testing: a new approach for generating next test cases",
HKUST CS98-01): a change to the inputs that the paper's method cannot see
leaves every report byte-identical.

Each relation runs `analyze`, `rank`, `sweep`, `fit` and `simulate --runs
2000` through `cli.main` with JSON output, in both billing modes, on the
bundled data and on the changed inputs, and compares each command's exit
code, output and error text.
"""

from __future__ import annotations

import functools
import io
from contextlib import redirect_stderr, redirect_stdout
from datetime import date

import pytest

from tariffopt.cli import main
from tariffopt.cost import BILLING_MODES

from conftest import CATALOG_PATH, CDR_PATH, PREFIXES_PATH

COMMANDS = (("analyze",), ("rank",), ("sweep",), ("fit",), ("simulate", "--runs", "2000"))

HEADER, *ROWS = CDR_PATH.read_text().splitlines()

#: a bare-count SMS row and a 0:00 SMS row, dated inside the printout's window
SMS_ROWS = (
    "15.05.2010;09:30:00;+79161234567;Moscow;SMS;1;1.652",
    "16.05.2010;09:31:00;+79161234567;Moscow;SMS;0:00;1.652",
)

#: two Saturdays and two Sundays of the printout's window; 2010-05-08 holds two Tel calls
WEEKEND_HOLIDAYS = ("2010-03-06", "2010-03-07", "2010-05-08", "2010-08-29")


def run_main(*argv: str) -> tuple[int, str, str]:
    """`cli.main`'s exit code, output and error text."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def reports(cdr, *options: str) -> dict:
    """Every report command's run on the bundled catalog and prefix table, in both billing modes."""
    return {
        (mode, command[0]): run_main(
            *command, "--catalog", str(CATALOG_PATH), "--cdr", str(cdr), "--prefixes", str(PREFIXES_PATH),
            "--billing-mode", mode, "--format", "json", *options,
        )
        for mode in BILLING_MODES
        for command in COMMANDS
    }


@functools.cache
def bundled_reports() -> dict:
    return reports(CDR_PATH)


def written(tmp_path, rows) -> str:
    """The bundled header and `rows`, written as a printout; its path."""
    path = tmp_path / "cdr.csv"
    path.write_text("\n".join([HEADER, *rows]) + "\n")
    return str(path)


def validated(cdr) -> str:
    code, out, _ = run_main("validate", "--catalog", str(CATALOG_PATH), "--cdr", str(cdr))
    assert code == 0
    return out.splitlines()[2]


def test_every_report_of_the_bundled_data_succeeds():
    """The relations compare with these runs, so each prints a report and no error."""
    assert all(code == 0 and out and not err for code, out, err in bundled_reports().values())


@pytest.mark.parametrize("order", ["reversed", "stride 7"])
def test_the_order_of_the_rows_changes_no_report(tmp_path, order):
    """(a) The printout's rows reversed, or taken every seventh, wrapping
    round (7 is prime to the 246 rows), give every report unchanged. It
    holds exactly on the bundled data: the mean duration the fit reads is a
    float sum, which another order could round otherwise on other data, so
    the permutations are fixed, not drawn."""
    n = len(ROWS)
    rows = ROWS[::-1] if order == "reversed" else [ROWS[i * 7 % n] for i in range(n)]
    assert sorted(rows) == sorted(ROWS) and rows != ROWS
    assert reports(written(tmp_path, rows)) == bundled_reports()


def test_sms_rows_change_no_report(tmp_path):
    """(b) A bare-count SMS row and a 0:00 SMS row inside the window are
    read as two more records, and change no report."""
    cdr = written(tmp_path, [*ROWS, *SMS_ROWS])
    assert validated(CDR_PATH) == "cdr: 246 records parsed, 0 warnings"
    assert validated(cdr) == "cdr: 248 records parsed, 0 warnings"
    assert reports(cdr) == bundled_reports()


def test_holidays_on_weekend_days_change_no_report(tmp_path):
    """(c) Listing Saturdays and Sundays as holidays, one of them a day with
    Tel calls, changes no report: a weekend day is a weekend day either way."""
    days = [date.fromisoformat(day) for day in WEEKEND_HOLIDAYS]
    assert all(day.weekday() >= 5 for day in days)
    assert sum(row.startswith(f"{day:%d.%m.%Y};") and ";Tel;" in row for row in ROWS for day in days) == 2
    holidays = tmp_path / "holidays.txt"
    holidays.write_text("".join(f"{day}\n" for day in WEEKEND_HOLIDAYS))
    assert reports(CDR_PATH, "--holidays", str(holidays)) == bundled_reports()
