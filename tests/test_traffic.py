"""CDR parsing, call classification, and traffic-estimation tests."""

from __future__ import annotations

import copy
import dataclasses
import math
import pickle
import re
from datetime import date, datetime
from decimal import Decimal

import numpy as np
import pytest

from tariffopt import (
    CallRecord,
    CdrError,
    ClassifiedCall,
    Empirical,
    Exponential,
    PrefixTable,
    ProfileError,
    WorkdayCalendar,
    build_histogram,
    classify,
    classify_calls,
    estimate_profile,
    fit_exponential,
    observation_months,
    parse_cdr,
)
from tariffopt.traffic import TrafficCell, TrafficProfile

from conftest import REFERENCE_CELL_RATES, make_reference_profile

HEADER = "date;time;number;zone;service;duration;cost\n"

PREFIXES = PrefixTable(
    {
        "+7916": "same-network",
        "+7985": "same-network",
        "+7926": "other-mobile",
        "+7495": "landline",
    }
)


def record(**kwargs):
    base = dict(
        date=date(2010, 8, 20),
        time=None,
        number="+79161234567",
        zone="Moscow",
        service="Tel",
        duration_seconds=57,
        cost=Decimal("2.542"),
    )
    base.update(kwargs)
    if base["time"] is None:
        from datetime import time as _time

        base["time"] = _time(12, 0, 0)
    return CallRecord(**base)


# --------------------------------------------------------------------------
# parsing


def test_parse_basic_row():
    rows = parse_cdr(HEADER + "20.08.2010;12:01:27;+79851112233;Moscow;Tel;0:57;2.542\n")
    assert len(rows) == 1
    rec = rows[0]
    assert rec.date == date(2010, 8, 20)
    assert rec.duration_seconds == 57
    assert rec.cost == Decimal("2.542")
    assert rec.service == "Tel"


def test_parse_minutes_and_seconds():
    rows = parse_cdr(HEADER + "19.08.2010;14:29:27;+74951112233;Moscow;Tel;2:23;7.627\n")
    assert rows[0].duration_seconds == 143


def test_parse_header_only():
    assert parse_cdr(HEADER) == []


def test_parse_sms_duration_is_zero():
    rows = parse_cdr(HEADER + "20.08.2010;12:14:39;+79101112233;;SMS;1;4.449\n")
    assert rows[0].duration_seconds == 0
    assert rows[0].service == "SMS"


def test_parse_comma_decimal_cost():
    rows = parse_cdr(HEADER + "20.08.2010;12:01:27;+79851112233;Moscow;Tel;0:57;2,542\n")
    assert rows[0].cost == Decimal("2.542")


def test_parse_malformed_row_skipped_with_issue():
    issues = []
    rows = parse_cdr(
        HEADER
        + "20.08.2010;12:01:27;+79851112233;Moscow;Tel;0:57;2.542\n"
        + "garbage;;;;;;\n",
        issues=issues,
    )
    assert len(rows) == 1
    assert len(issues) == 1
    assert "line 3" in issues[0]


def test_parse_malformed_row_fatal_in_strict_mode():
    with pytest.raises(CdrError, match="line 2"):
        parse_cdr(HEADER + "bad-date;12:01:27;+7985;Moscow;Tel;0:57;2.542\n", strict=True)


def test_parse_unknown_service_skipped_with_warning():
    issues = []
    rows = parse_cdr(
        HEADER + "20.08.2010;12:01:27;+79851112233;Moscow;GPRS;0:57;2.542\n",
        issues=issues,
    )
    assert rows == []
    assert "GPRS" in issues[0]


def test_parse_rejects_wrong_header():
    with pytest.raises(CdrError, match="header"):
        parse_cdr("a;b;c\n1;2;3\n")


def test_parse_tel_integer_duration_is_malformed():
    issues = []
    rows = parse_cdr(HEADER + "20.08.2010;12:01:27;+7985;Moscow;Tel;57;2.542\n", issues=issues)
    assert rows == []
    assert issues


def test_parse_calls_longer_than_31_days_are_malformed():
    row = "20.08.2010;12:01:27;+7985;Moscow;Tel;{};2.542\n"
    rows = parse_cdr(HEADER + row.format("44640:00"))  # 31 days exactly
    assert rows[0].duration_seconds == 44640 * 60
    for duration in ("44640:01", "44641:00", "100000000000000000000:00"):
        issues = []
        assert parse_cdr(HEADER + row.format(duration), issues=issues) == []
        assert issues == [f"line 2: duration {duration!r} is longer than 31 days, row skipped"]
        with pytest.raises(CdrError, match="^line 2: duration .* is longer than 31 days$"):
            parse_cdr(HEADER + row.format(duration), strict=True)


def strptime_outcome(raw_day, raw_time):
    """A row's date and time as `datetime.strptime` reads them, or the
    skipped-row message its error gives on line 2."""
    try:
        return (
            datetime.strptime(raw_day, "%d.%m.%Y").date(),
            datetime.strptime(raw_time, "%H:%M:%S").time(),
        )
    except ValueError as exc:
        return f"line 2: {exc}, row skipped"


@pytest.mark.parametrize(
    "raw_day, raw_time",
    [
        ("20.08.2010", "12:01:27"),
        ("1.2.2010", "12:01:27"),
        ("30.02.2010", "12:01:27"),
        ("29.02.2012", "12:01:27"),
        ("00.01.2010", "12:01:27"),
        ("01.01.0000", "12:01:27"),
        ("20.08.10", "12:01:27"),
        ("20-08-2010", "12:01:27"),
        ("\u0662\u0660.\u0660\u0668.\u0662\u0660\u0661\u0660", "12:01:27"),  # Arabic-Indic
        ("\uff12\uff10.\uff10\uff18.\uff12\uff10\uff11\uff10", "12:01:27"),  # fullwidth
        ("20.08.2010", "00:00:00"),
        ("20.08.2010", "23:59:59"),
        ("20.08.2010", "24:00:00"),
        ("20.08.2010", "23:59:60"),
        ("20.08.2010", "9:05:03"),
        ("20.08.2010", "12:01"),
        ("20.08.2010", "\u0661\u0662:\u0660\u0661:\u0662\u0667"),
    ],
)
def test_dates_and_times_parse_as_strptime_does(raw_day, raw_time):
    issues = []
    rows = parse_cdr(HEADER + f"{raw_day};{raw_time};+7985;Moscow;Tel;0:57;2.542\n", issues=issues)
    got = (rows[0].date, rows[0].time) if rows else issues[0]
    assert got == strptime_outcome(raw_day, raw_time)


# --------------------------------------------------------------------------
# classification


def test_classify_same_network_workday_sub_minute():
    # 2010-08-20 is a Friday
    call = classify(record(duration_seconds=33), PREFIXES, WorkdayCalendar())
    assert call.destination_class == "same-network"
    assert call.day_class == "workday"
    assert call.minute_index == 1


def test_classify_saturday_is_weekend():
    call = classify(record(date=date(2010, 8, 21)), PREFIXES, WorkdayCalendar())
    assert call.day_class == "weekend"


def test_classify_holiday_is_weekend():
    cal = WorkdayCalendar(holidays=frozenset({date(2010, 8, 20)}))
    assert classify(record(), PREFIXES, cal).day_class == "weekend"


def test_minute_index_ceiling():
    assert classify(record(duration_seconds=60), PREFIXES, WorkdayCalendar()).minute_index == 1
    assert classify(record(duration_seconds=61), PREFIXES, WorkdayCalendar()).minute_index == 2


def test_classify_unmapped_prefix_counts_warning():
    table = PrefixTable({"+7916": "same-network"})
    call = classify(record(number="+15551234567"), table, WorkdayCalendar())
    assert call.destination_class == "other-mobile"
    assert table.unmapped_count == 1


def test_classify_longest_prefix_wins():
    table = PrefixTable({"+7916": "same-network", "+791655": "landline"})
    call = classify(record(number="+79165550000"), table, WorkdayCalendar())
    assert call.destination_class == "landline"


def test_classify_calls_drops_sms_and_zero_duration():
    issues = []
    records = [
        record(),
        record(service="SMS", duration_seconds=0),
        record(duration_seconds=0),
    ]
    calls = classify_calls(records, PREFIXES, WorkdayCalendar(), issues)
    assert len(calls) == 1
    assert "zero-duration" in issues[0]


def test_prefix_table_from_csv():
    table = PrefixTable.from_csv(
        "prefix;destination_class\n+7916;same-network\n+7495;landline\n+7916;same-network\n"
    )
    assert table.destination_class("+79161") == "same-network"
    assert table.destination_class("+74951") == "landline"


@pytest.mark.parametrize(
    "rows, message",
    [
        ("+7916;same-network\n+7495;fixed-line\n", "line 3: unknown destination class 'fixed-line'"),
        ("+7916;same-network\n;landline\n", "line 3: empty prefix"),
        (
            "+7916;same-network\n+7495;landline\n+7916;landline\n",
            "line 4: prefix '+7916' listed again as 'landline', was 'same-network'",
        ),
    ],
)
def test_prefix_table_errors_name_the_line(rows, message):
    with pytest.raises(CdrError, match=f"^{re.escape('prefix table ' + message)}$"):
        PrefixTable.from_csv("prefix;destination_class\n" + rows)


def test_prefix_table_keeps_a_read_only_copy():
    source = {"+7916": "same-network"}
    table = PrefixTable(source)
    source["+79165"] = "landline"
    assert table.destination_class("+791650") == "same-network"
    with pytest.raises(TypeError):
        table.mapping["+79165"] = "landline"
    table.mapping = source  # a new mapping rebuilds the index
    assert table.destination_class("+791650") == "landline"


def test_prefix_table_converts_and_prints_as_a_dict():
    table = PrefixTable({"+7916": "same-network"})
    table.destination_class("+1555")
    assert dataclasses.asdict(table) == {"mapping": {"+7916": "same-network"}, "unmapped_count": 1}
    assert repr(table) == "PrefixTable(mapping={'+7916': 'same-network'}, unmapped_count=1)"
    table.mapping |= {"+79165": "landline"}  # a new mapping, not an edit
    assert table.destination_class("+791650") == "landline"


@pytest.mark.parametrize(
    "edit",
    [
        lambda m: m.update({"+79165": "landline"}),
        lambda m: m.setdefault("+79165", "landline"),
        lambda m: m.pop("+7916"),
        lambda m: m.popitem(),
        lambda m: m.clear(),
        lambda m: m.__delitem__("+7916"),
    ],
)
def test_prefix_table_mapping_refuses_every_edit(edit):
    table = PrefixTable({"+7916": "same-network"})
    with pytest.raises(TypeError, match="read-only"):
        edit(table.mapping)
    assert table.mapping == {"+7916": "same-network"}


@pytest.mark.parametrize("clone", [lambda t: pickle.loads(pickle.dumps(t)), copy.deepcopy, copy.copy])
def test_prefix_table_copies_and_pickles(clone):
    table = PrefixTable({"+7916": "same-network", "+791655": "landline"})
    table.destination_class("+1555")
    twin = clone(table)
    assert twin == table and twin.unmapped_count == 1
    assert twin.destination_class("+79165550000") == "landline"
    assert twin.destination_class("+1555") == "other-mobile"
    assert (twin.unmapped_count, table.unmapped_count) == (2, 1)


# --------------------------------------------------------------------------
# duration models


def test_fit_exponential_paper_mean():
    fit = fit_exponential([2.45])
    assert fit.model.mu == pytest.approx(1 / 2.45)
    assert round(fit.model.mu, 2) == 0.41


def test_fit_exponential_unit_durations():
    assert fit_exponential([1.0, 1.0, 1.0]).model.mu == 1.0


def test_fit_exponential_hand_computed():
    fit = fit_exponential([1.0, 2.0, 3.0])
    assert fit.model.mu == pytest.approx(0.5)
    assert fit.sample_mean == pytest.approx(2.0)
    assert fit.sample_rmsd == pytest.approx(math.sqrt(2.0 / 3.0))


def test_fit_exponential_rejects_empty_and_zero_mean():
    with pytest.raises(ProfileError):
        fit_exponential([])
    with pytest.raises(ProfileError):
        fit_exponential([0.0, 0.0])


def classified(minute):
    return ClassifiedCall(
        record=record(duration_seconds=minute * 60),
        destination_class="same-network",
        day_class="workday",
        minute_index=minute,
    )


def test_histogram_counts():
    hist = build_histogram([classified(1), classified(1), classified(2)], truncation=5)
    assert hist.masses == (2 / 3, 1 / 3, 0.0, 0.0, 0.0)


def test_histogram_single_call():
    hist = build_histogram([classified(4)], truncation=6)
    assert hist.masses[3] == 1.0
    assert sum(hist.masses) == 1.0


def test_histogram_overflow_clamps_to_last_bin():
    hist = build_histogram([classified(9)], truncation=5)
    assert hist.masses[4] == 1.0


def test_histogram_empty_rejected():
    with pytest.raises(ProfileError):
        build_histogram([], truncation=5)


def test_histogram_matches_discretized_exponential_within_3_sigma():
    """1000 draws from the discretized Exp(0.41) land within 3 sigma per bin."""
    model = Exponential(mu=0.41, truncation=40)
    masses = model.mass_array()
    probs = np.append(masses, 1 - masses.sum())  # overflow bin
    rng = np.random.default_rng(2021)
    n = 1000
    minutes = rng.choice(np.arange(1, 42), size=n, p=probs / probs.sum())
    hist = build_histogram([classified(int(m)) for m in minutes], truncation=41)
    for theta in range(1, 41):
        p = masses[theta - 1]
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(hist.masses[theta - 1] - p) <= 3 * sigma + 1e-12


def test_exponential_masses_positive_decreasing_and_sum():
    model = Exponential(mu=0.41, truncation=240)
    masses = model.mass_array()
    assert (masses > 0).all()
    assert (np.diff(masses) < 0).all()
    assert masses.sum() == pytest.approx(1 - math.exp(-0.41 * 240), abs=1e-12)
    assert model.tail_mass == pytest.approx(math.exp(-0.41 * 240))


def test_empirical_mass_validation():
    with pytest.raises(ProfileError):
        Empirical((0.6, 0.6))
    with pytest.raises(ProfileError):
        Empirical((-0.1, 0.5))
    for masses in [(math.nan,), (0.5, math.nan), (math.inf,), (0.5, -math.inf)]:
        with pytest.raises(ProfileError, match="non-finite probability mass"):
            Empirical(masses)
    sub_unit = Empirical((0.5, 0.3))  # truncated models keep tail implicit
    assert sub_unit.truncation == 2


# --------------------------------------------------------------------------
# profile estimation


def synth_calls():
    """One observation month of calls per reference cell, repeated 6 times."""
    calls = []
    for (dest, day), rate in REFERENCE_CELL_RATES.items():
        day_date = date(2010, 8, 20) if day == "workday" else date(2010, 8, 21)
        for _ in range(int(rate) * 6):
            calls.append(
                ClassifiedCall(
                    record=record(date=day_date),
                    destination_class=dest,
                    day_class=day,
                    minute_index=1,
                )
            )
    return calls


def test_estimate_profile_reproduces_reference_rates(mts_catalog):
    profile = estimate_profile(synth_calls(), mts_catalog, months=6.0)
    assert profile.total_rate == pytest.approx(39.0)
    assert profile.lambda_for(mts_catalog.plan(1)) == pytest.approx((23.0, 16.0))
    assert profile.lambda_for(mts_catalog.plan(2)) == pytest.approx((39.0,))
    assert profile.lambda_for(mts_catalog.plan(4)) == pytest.approx((9.0, 30.0))
    assert profile.lambda_for(mts_catalog.plan(6)) == pytest.approx((33.0, 6.0))


def test_estimate_profile_row_totals_agree_across_plans(mts_catalog):
    profile = estimate_profile(synth_calls(), mts_catalog, months=6.0)
    totals = {sum(profile.lambda_for(p)) for p in mts_catalog.plans}
    assert len(totals) == 1


def test_estimate_profile_empty_subgroup_allowed(mts_catalog):
    calls = [classified(1)]  # only same-network workday traffic
    profile = estimate_profile(calls, mts_catalog, months=1.0, per_class_durations=True)
    lam = profile.lambda_for(mts_catalog.plan(6))
    assert lam == (1.0, 0.0)


def test_estimate_profile_rejects_bad_months(mts_catalog):
    for months in (0, math.nan, math.inf):
        with pytest.raises(ProfileError, match="^months must be positive and finite"):
            estimate_profile(synth_calls(), mts_catalog, months=months)
        with pytest.raises(ProfileError, match="observation_months must be positive and finite"):
            TrafficProfile(cells=(), observation_months=months)


def test_estimate_profile_empirical_mode(mts_catalog):
    profile = estimate_profile(synth_calls(), mts_catalog, months=6.0, duration_model="empirical")
    cell = next(c for c in profile.cells if c.rate > 0)
    assert isinstance(cell.durations, Empirical)
    assert sum(cell.durations.masses) == pytest.approx(1.0, abs=1e-12)


def test_profile_scaling():
    profile = make_reference_profile()
    assert profile.scaled(1.0).cells == profile.cells
    doubled = profile.scaled(2.0)
    assert doubled.total_rate == pytest.approx(78.0)
    for k in (0, -1.0, math.nan, math.inf):
        with pytest.raises(ProfileError, match="traffic multiplier must be positive and finite"):
            profile.scaled(k)


@pytest.mark.parametrize("rate", [-1.0, math.nan, math.inf])
def test_traffic_cell_rejects_bad_call_rates(rate):
    with pytest.raises(ProfileError, match="call rate must be non-negative and finite"):
        TrafficCell("landline", "workday", rate, Exponential(0.5))


@pytest.mark.parametrize("mu", [0.0, -1.0, math.nan, math.inf])
def test_exponential_rejects_bad_mu(mu):
    with pytest.raises(ProfileError, match="mu must be positive and finite"):
        Exponential(mu)


@pytest.mark.parametrize("mu", [1e-20, 2.0**-54])
def test_exponential_rejects_a_mu_whose_decay_rounds_to_one(mu):
    with pytest.raises(ProfileError, match="exp\\(-mu\\) rounds to 1"):
        Exponential(mu)


def test_profile_rejects_duplicate_cells():
    model = Exponential(mu=0.5)
    cells = (
        TrafficCell("landline", "workday", 1.0, model),
        TrafficCell("landline", "workday", 1.0, model),
    )
    with pytest.raises(ProfileError, match="duplicate"):
        TrafficProfile(cells=cells, observation_months=1.0)


# --------------------------------------------------------------------------
# observation window


def test_observation_months_exact_half_year():
    assert observation_months(date(2010, 3, 1), date(2010, 8, 31)) == pytest.approx(6.0)


def test_observation_months_partial_trailing_month():
    # one whole month (Jan) plus 14 of February's 28 days
    assert observation_months(date(2010, 1, 1), date(2010, 2, 14)) == pytest.approx(1.5)


def test_observation_months_single_day():
    months = observation_months(date(2010, 3, 15), date(2010, 3, 15))
    assert 0 < months < 0.04


def test_observation_months_rejects_reversed_window():
    with pytest.raises(ProfileError):
        observation_months(date(2010, 2, 1), date(2010, 1, 1))
