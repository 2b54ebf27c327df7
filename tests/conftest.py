"""Shared fixtures: the six-plan catalog, the reference traffic profile, and
small CDR builders."""

from __future__ import annotations

from pathlib import Path

import pytest

from tariffopt import (
    CallTable,
    Exponential,
    PrefixTable,
    TrafficCell,
    TrafficProfile,
    WorkdayCalendar,
    classify_calls,
    load_catalog,
    parse_cdr,
)

DATA_DIR = Path(__file__).resolve().parents[1] / "data"

CATALOG_PATH = DATA_DIR / "mts_catalog.json"
CDR_PATH = DATA_DIR / "sample_cdr.csv"
PREFIXES_PATH = DATA_DIR / "prefixes.csv"

#: monthly call rates per (destination, day) class; margins: 23 same-network,
#: 7 other-mobile, 9 landline, and 33 workday / 6 weekend calls
REFERENCE_CELL_RATES = {
    ("same-network", "workday"): 19.0,
    ("same-network", "weekend"): 4.0,
    ("other-mobile", "workday"): 6.0,
    ("other-mobile", "weekend"): 1.0,
    ("landline", "workday"): 8.0,
    ("landline", "weekend"): 1.0,
}

REFERENCE_MU = 0.41

CDR_HEADER = "date;time;number;zone;service;duration;cost\n"

#: a dialed number per destination class
CLASS_NUMBERS = {
    "same-network": "+79161234567",
    "other-mobile": "+79261234567",
    "landline": "+74951234567",
}

#: a date per day class: 20.08.2010 is a Friday, 21.08.2010 a Saturday
CLASS_DATES = {"workday": "20.08.2010", "weekend": "21.08.2010"}


def cdr_text(rows) -> str:
    """A printout with one Tel row per ``(number, date, seconds)``, the date
    written DD.MM.YYYY."""
    return CDR_HEADER + "".join(
        f"{day};12:00:00;{number};Moscow;Tel;{seconds // 60}:{seconds % 60:02d};2.542\n"
        for number, day, seconds in rows
    )


def classified(calls) -> CallTable:
    """`calls`, each ``(destination class, day class, seconds)``, written as a
    printout, parsed, and classified with a prefix table that lists each
    number under its class."""
    rows = [(CLASS_NUMBERS[dest], CLASS_DATES[day], seconds) for dest, day, seconds in calls]
    prefixes = PrefixTable({number: dest for dest, number in CLASS_NUMBERS.items()})
    return classify_calls(parse_cdr(cdr_text(rows)), prefixes, WorkdayCalendar())


def first_match(plan, destination_class: str, day_class: str) -> int:
    """Index of the plan's first subgroup rule matching the call class, found
    by scanning the rules rather than through `plan.routes`."""
    return next(
        j for j, (rule, _) in enumerate(plan.subgroups) if rule.matches(destination_class, day_class)
    )


def make_reference_profile(mu: float = REFERENCE_MU, months: float = 6.0) -> TrafficProfile:
    model = Exponential(mu=mu)
    cells = tuple(
        TrafficCell(destination_class=dest, day_class=day, rate=rate, durations=model)
        for (dest, day), rate in REFERENCE_CELL_RATES.items()
    )
    return TrafficProfile(cells=cells, observation_months=months)


@pytest.fixture(scope="session")
def mts_catalog():
    with CATALOG_PATH.open("rb") as fh:
        return load_catalog(fh)


@pytest.fixture(scope="session")
def reference_profile():
    return make_reference_profile()
