"""Shared fixtures: the six-plan catalog, the reference traffic profile, and
small CDR builders."""

from __future__ import annotations

from pathlib import Path

import numpy as np
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


def _first_plan(doc):
    return doc["plans"][0]


def _first_subgroup(doc):
    return doc["plans"][0]["subgroups"][0]


def cut_second_segment(doc, minute: int) -> None:
    """End the second segment of plan 1's first subgroup at `minute`, and
    start the open segment after it at ``minute + 1``."""
    second, tail = _first_subgroup(doc)["segments"][1:]
    second["to"], tail["from"] = minute, minute + 1


#: edits of the bundled catalog document that make it malformed, each with
#: the message of the CatalogError that `load_catalog` must raise
MALFORMED_CATALOGS = {
    "fixed fees not an object": (lambda doc: _first_plan(doc).update(fixed=5), "plan 1 fixed: not an object: 5"),
    "subgroups not an array": (lambda doc: _first_plan(doc).update(subgroups=5), "plan 1 subgroups: not an array: 5"),
    "segment not an object": (
        lambda doc: _first_subgroup(doc)["segments"].__setitem__(1, 5),
        "plan 1 subgroup 'To MTS Numbers' segment 2: not an object: 5",
    ),
    "plan entry not an object": (lambda doc: doc["plans"].__setitem__(1, 3), "plan entry 2: not an object: 3"),
    "plans not an array": (lambda doc: doc.update(plans={}), "plans: not an array: {}"),
    "context not an object": (lambda doc: doc.update(context=[]), "context: not an object: []"),
    "subgroup without a day class": (
        lambda doc: _first_subgroup(doc).pop("day_class"),
        "plan 1 subgroup 'To MTS Numbers': missing field 'day_class'",
    ),
    "subgroup without a name": (lambda doc: _first_subgroup(doc).pop("name"), "plan 1 subgroup 1: missing field 'name'"),
    "active a string": (lambda doc: _first_plan(doc).update(active="false"), "plan 1 active: not true or false: 'false'"),
    "owned providers a string": (
        lambda doc: doc["context"].update(owned_sim_providers="MTS"),
        "owned_sim_providers: not an array: 'MTS'",
    ),
    "plan id with a fraction": (lambda doc: _first_plan(doc).update(id=1.7), "plan id: not an integer: 1.7"),
    "plan id infinite": (lambda doc: _first_plan(doc).update(id=float("inf")), "plan id: not an integer: inf"),
    "segment start a boolean": (
        lambda doc: _first_subgroup(doc)["segments"][0].update({"from": True}),
        "plan 1 subgroup 'To MTS Numbers' segment 1 from: not an integer: True",
    ),
    "segment end with a fraction": (
        lambda doc: _first_subgroup(doc)["segments"][0].update(to=1.5),
        "plan 1 subgroup 'To MTS Numbers' segment 1 to: not an integer: 1.5",
    ),
    "rate past a float": (
        lambda doc: _first_subgroup(doc)["segments"][0].update(rate="1e400"),
        "plan 1 subgroup 'To MTS Numbers' segment 1 rate: amount too large for a float: '1e400'",
    ),
    "fee past a float": (
        lambda doc: _first_plan(doc)["fixed"].update(switch_fee="2e308"),
        "plan 1 switch_fee: amount too large for a float: '2e308'",
    ),
    "provider null": (lambda doc: _first_plan(doc).update(provider=None), "plan 1 provider: not a string: None"),
    "plan name an array": (lambda doc: _first_plan(doc).update(name=["x"]), "plan 1 name: not a string: ['x']"),
    "subgroup name a number": (
        lambda doc: _first_subgroup(doc).update(name=5),
        "plan 1 subgroup 1 name: not a string: 5",
    ),
    "destination class null": (
        lambda doc: _first_subgroup(doc).update(destination_class=None),
        "plan 1 subgroup 'To MTS Numbers' destination_class: not a string: None",
    ),
    "day class an array": (
        lambda doc: _first_subgroup(doc).update(day_class=["weekend"]),
        "plan 1 subgroup 'To MTS Numbers' day_class: not a string: ['weekend']",
    ),
    "owned provider null": (
        lambda doc: doc["context"].update(owned_sim_providers=[None, 5]),
        "owned_sim_providers: not a string: None",
    ),
    "segment end past int64": (
        lambda doc: cut_second_segment(doc, 10**20),
        "plan 1 subgroup 'To MTS Numbers' segment 2 to: past the largest minute 9223372036854775807: "
        "100000000000000000000",
    ),
    # a record's own check, named by where the record sits in the document
    "negative rate": (
        lambda doc: _first_subgroup(doc)["segments"][0].update(rate="-1"),
        "plan 1 subgroup 'To MTS Numbers' segment 1: negative rate: -1",
    ),
    "segment from minute 0": (
        lambda doc: _first_subgroup(doc)["segments"][0].update({"from": 0}),
        "plan 1 subgroup 'To MTS Numbers' segment 1: segment starts before minute 1: 0",
    ),
    "segment ending before it starts": (
        lambda doc: _first_subgroup(doc)["segments"][0].update({"from": 2}),
        "plan 1 subgroup 'To MTS Numbers' segment 1: segment ends at minute 1 before it starts at 2",
    ),
    "negative switch fee": (
        lambda doc: _first_plan(doc)["fixed"].update(switch_fee="-5"),
        "plan 1: negative switch_fee: -5",
    ),
    "no segments": (
        lambda doc: _first_subgroup(doc).update(segments=[]),
        "plan 1 subgroup 'To MTS Numbers': payoff function has no segments",
    ),
    "first segment from minute 2": (
        lambda doc: _first_subgroup(doc)["segments"].pop(0),
        "plan 1 subgroup 'To MTS Numbers': segment 1 starts at minute 2, not 1",
    ),
    "last segment closed": (
        lambda doc: _first_subgroup(doc)["segments"][2].update(to=1000),
        "plan 1 subgroup 'To MTS Numbers': segment 3, the last one, must be open-ended",
    ),
    "open segment before the last": (
        lambda doc: _first_subgroup(doc)["segments"][1].update(to="open"),
        "plan 1 subgroup 'To MTS Numbers': segment 2 is open-ended but not the last one",
    ),
    "segments with a gap": (
        lambda doc: _first_subgroup(doc)["segments"][2].update({"from": 7}),
        "plan 1 subgroup 'To MTS Numbers': segments are not contiguous: minute 6 uncovered before segment 3, "
        "which starts at 7",
    ),
    "unknown destination class": (
        lambda doc: _first_subgroup(doc).update(destination_class="moon"),
        "plan 1 subgroup 'To MTS Numbers': unknown destination class 'moon'",
    ),
    "unknown day class": (
        lambda doc: _first_subgroup(doc).update(day_class="holiday"),
        "plan 1 subgroup 'To MTS Numbers': unknown day class 'holiday'",
    ),
}


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


def charges(payoff, minutes, mode: str) -> np.ndarray:
    """What `payoff` charges a call of each billed minute in `minutes`: the
    rate of the minute's segment in `lookup` mode, the sum of the rates of
    minutes 1..m in `cumulative` mode. The reference the engine's billing is
    checked against, read from the segments alone."""
    starts = np.array([seg.from_minute for seg in payoff.segments], dtype=np.int64)
    rates = np.array([float(seg.rate) for seg in payoff.segments])
    minutes = np.asarray(minutes, dtype=np.int64)
    idx = starts.searchsorted(minutes, side="right") - 1
    if mode == "lookup":
        return rates[idx]
    lengths = np.array([seg.to_minute - seg.from_minute + 1 for seg in payoff.segments[:-1]], dtype=float)
    before = np.concatenate([[0.0], np.cumsum(lengths * rates[:-1])])  # charge of the whole segments before each
    return before[idx] + (minutes - starts[idx] + 1) * rates[idx]


def rebuilt(record, **changes):
    """A new record of `record`'s class, built by name from its fields (the
    names in `__match_args__`) with `changes` over them."""
    return type(record)(**{name: getattr(record, name) for name in record.__match_args__} | changes)


def first_match(plan, destination_class: str, day_class: str) -> int:
    """Index of the plan's first subgroup rule matching the call class, found
    by scanning the rules rather than through `plan.routes`."""
    return next(
        j for j, (rule, _) in enumerate(plan.subgroups) if rule.matches(destination_class, day_class)
    )


def optimal_ids(swept) -> list[int]:
    """The optimum's plan id at each multiplier of a `Sweep`."""
    return [swept.plan_ids[row] for row in swept.optimal.tolist()]


def costs_at(swept, j: int) -> dict[int, float]:
    """Every candidate's cost at the `Sweep`'s j-th multiplier, by plan id in
    the sweep's order."""
    return dict(zip(swept.plan_ids, swept.costs[:, j].tolist()))


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
