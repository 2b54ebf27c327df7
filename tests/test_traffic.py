"""CDR parsing, call classification, and traffic-estimation tests."""

from __future__ import annotations

import copy
import gc
import math
import pickle
import re
import weakref
from datetime import date, datetime
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tariffopt import (
    CdrError,
    Empirical,
    Exponential,
    PrefixTable,
    ProfileError,
    WorkdayCalendar,
    build_histogram,
    classify_calls,
    estimate_profile,
    fit_exponential,
    observation_months,
    parse_cdr,
)
from tariffopt.catalog import ALL_CALL_CLASSES, CALL_CLASS_INDEX, DESTINATION_CLASSES
from tariffopt.traffic import TrafficCell, TrafficProfile

from conftest import CDR_HEADER as HEADER, REFERENCE_CELL_RATES, cdr_text, classified, make_reference_profile, rebuilt

PREFIXES = PrefixTable(
    {
        "+7916": "same-network",
        "+7985": "same-network",
        "+7926": "other-mobile",
        "+7495": "landline",
    }
)


def classify_rows(rows, prefixes=PREFIXES, calendar=WorkdayCalendar()):
    """`rows`, each ``(number, date, seconds)``, as :func:`classify_calls`
    reads them from a printout."""
    return classify_calls(parse_cdr(cdr_text(rows)), prefixes, calendar)


def call_classes(calls):
    """Each call's ``(destination class, day class, billed minute)``."""
    return [(*ALL_CALL_CLASSES[k], minute) for k, minute in zip(calls.call_class.tolist(), calls.minute.tolist())]


#: a call to a same-network number on a Friday, 57 seconds long
FRIDAY_CALL = ("+79161234567", "20.08.2010", 57)
#: a call to a number that no test prefix table lists
UNLISTED_CALL = ("+1555", "20.08.2010", 57)


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
    log = parse_cdr(HEADER)
    assert list(log) == []
    assert log != "" and log != ()  # a log compares by identity


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
    assert list(rows) == []
    assert "GPRS" in issues[0]


def test_parse_rejects_wrong_header():
    with pytest.raises(CdrError, match="header"):
        parse_cdr("a;b;c\n1;2;3\n")


def test_parse_tel_integer_duration_is_malformed():
    issues = []
    rows = parse_cdr(HEADER + "20.08.2010;12:01:27;+7985;Moscow;Tel;57;2.542\n", issues=issues)
    assert list(rows) == []
    assert issues


@pytest.mark.parametrize("service, duration, cost, message", [
    ("Tel", "-0:30", "2.542", "bad duration '-0:30'"),
    ("Tel", "+1_0:30", "2.542", "bad duration '+1_0:30'"),
    ("Tel", "1: 30", "2.542", "bad duration '1: 30'"),
    ("SMS", "+1", "2.542", "bad duration '+1'"),
    ("Tel", "0:57", "NaN", "bad cost 'NaN'"),
    ("Tel", "0:57", "sNaN", "bad cost 'sNaN'"),
    ("Tel", "0:57", "Infinity", "bad cost 'Infinity'"),
    ("Tel", "0:57", "-Infinity", "bad cost '-Infinity'"),
    ("Tel", "0:57", "1_000", "bad cost '1_000'"),
    ("Tel", "0:57", "+3", "bad cost '+3'"),
    ("Tel", "0:57", "1e5", "bad cost '1e5'"),
    ("Tel", "0:57", "1E-2", "bad cost '1E-2'"),
    ("Tel", "0:57", ".", "bad cost '.'"),
    ("Tel", "0:57", "1,2.3", "bad cost '1,2.3'"),
])
def test_parse_rejects_signed_durations_and_non_finite_costs(service, duration, cost, message):
    """A duration is decimal digits, with no sign, underscore or inner space,
    and a cost is an optional leading ``-``, then decimal digits with at most
    one ``.`` or ``,`` among them; any other row is malformed, though
    `Decimal` reads some of them (``1_000``, ``+3``, ``1e5``)."""
    text = HEADER + f"20.08.2010;12:01:27;+7985;Moscow;{service};{duration};{cost}\n"
    issues = []
    assert list(parse_cdr(text, issues=issues)) == []
    assert issues == [f"line 2: {message}, row skipped"]
    with pytest.raises(CdrError, match=f"^line 2: {re.escape(message)}$"):
        parse_cdr(text, strict=True)


@pytest.mark.parametrize("cost, value", [
    (".5", "0.5"), ("5.", "5"), ("-0,5", "-0.5"), ("\u0663.\u0660", "3.0"), (" 2,542 ", "2.542"), ("007", "7"),
])
def test_parse_cost_keeps_decimal_digits_with_one_point_or_comma(cost, value):
    [row] = parse_cdr(HEADER + f"20.08.2010;12:01:27;+7985;Moscow;Tel;0:57;{cost}\n", strict=True)
    assert row.cost == Decimal(value)


def test_parse_calls_longer_than_31_days_are_malformed():
    row = "20.08.2010;12:01:27;+7985;Moscow;Tel;{};2.542\n"
    rows = parse_cdr(HEADER + row.format("44640:00"))  # 31 days exactly
    assert rows[0].duration_seconds == 44640 * 60
    for duration in ("44640:01", "44641:00", "100000000000000000000:00"):
        issues = []
        assert list(parse_cdr(HEADER + row.format(duration), issues=issues)) == []
        assert issues == [f"line 2: duration {duration!r} is longer than 31 days, row skipped"]
        with pytest.raises(CdrError, match="^line 2: duration .* is longer than 31 days$"):
            parse_cdr(HEADER + row.format(duration), strict=True)


def strptime_outcome(raw_day, raw_time):
    """A row's date as `datetime.strptime` reads it when its time reads too,
    or the skipped-row message the first error gives on line 2."""
    try:
        day = datetime.strptime(raw_day, "%d.%m.%Y").date()
        datetime.strptime(raw_time, "%H:%M:%S")
        return day
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
    got = rows[0].date if rows else issues[0]
    assert got == strptime_outcome(raw_day, raw_time)


def test_ordinal_matches_numpy_day_numbers():
    """`_ordinal` gives every date of the years 1-9999 numpy's day number
    (counted from 0001-01-01 as day 1) over int64 arrays, and months 13 and
    14 the January and February of the next year, up to 10000-01-01; over
    Python ints it gives a sample of those dates `date.toordinal`'s int."""
    from tariffopt.catalog import _ordinal

    day_one = np.datetime64("0001-01-01")
    for first in range(1, 10000, 2000):
        stop = min(first + 2000, 10000)
        days = np.arange(np.datetime64(f"{first:04}-01-01"), np.datetime64(f"{stop}-01-01"))
        month_starts = days.astype("datetime64[M]")
        months = month_starts.astype(np.int64) + 1970 * 12  # months since year 0
        year, month = months // 12, months % 12 + 1
        day = (days - month_starts.astype("datetime64[D]")).astype(np.int64) + 1
        expected = (days - day_one).astype(np.int64) + 1
        assert np.array_equal(_ordinal(year, month, day), expected), first

        early = month <= 2  # again as months 13 and 14 of the year before
        assert np.array_equal(_ordinal(year[early] - 1, month[early] + 12, day[early]), expected[early])

        sample = list(zip(year[::97].tolist(), month[::97].tolist(), day[::97].tolist()))
        got = [_ordinal(y, m, d) for y, m, d in sample]
        assert all(type(o) is int for o in got)
        assert got == expected[::97].tolist() == [date(y, m, d).toordinal() for y, m, d in sample]

    next_year = (np.datetime64("10000-01-01") - day_one).astype(np.int64) + 1
    assert _ordinal(9999, 13, 1) == next_year == date.max.toordinal() + 1
    assert _ordinal(np.array([9999]), np.array([13]), np.array([1])).tolist() == [next_year]
    assert _ordinal(9999, 14, 29) == next_year + 31 + 28  # 10000 is a leap year


@pytest.mark.parametrize("year", [0, 1, 1900, 2000, 2011, 2012, 9999])
def test_date_ordinals_match_date_toordinal(year):
    from tariffopt.cdr import _date_ordinals

    days = [(month, day) for month in range(1, 13) for day in range(1, 32)]
    expected = []
    for month, day in days:
        try:
            expected.append(date(year, month, day).toordinal())
        except ValueError:
            expected.append(-1)
    month, day = np.array(days).T
    got = _date_ordinals(np.full(len(days), year), month, day)
    assert got.tolist() == expected


def test_date_ordinals_reject_the_padding_of_a_row_with_no_plain_date():
    """A catch-all row has no date text, so each of its ten date digits is
    the padding -48: day and month -528, year -53,328. Its ordinal is -1,
    so the reader drops the row by its ordinal alone."""
    from tariffopt.cdr import _DATE_PLACES, _date_ordinals, _digits

    padding = _digits(("",), 10)
    assert padding.tolist() == [[-48] * 10]
    day, month, year = (padding @ _DATE_PLACES).T
    assert (day.tolist(), month.tolist(), year.tolist()) == ([-528], [-528], [-53328])
    assert _date_ordinals(year, month, day).tolist() == [-1]


@pytest.mark.parametrize("years", [range(1, 40), range(1890, 2110), range(9960, 10000)],
                         ids=["1-39", "1890-2109", "9960-9999"])
def test_add_months_matches_calendar_monthrange(years):
    """Every day from the 28th to the month's end, moved on by 0-13 months,
    lands on the day `calendar.monthrange` gives; past the year 9999, on
    the day one Gregorian cycle (400 years, 146,097 days) after the one the
    same move gives 400 years earlier."""
    import calendar

    from tariffopt.traffic import _months_on

    def reference(day, months):
        month_index = day.month - 1 + months
        year, month = day.year + month_index // 12, month_index % 12 + 1
        if year > 9999:
            return reference(day.replace(year=day.year - 400), months) + 146097
        return date(year, month, min(day.day, calendar.monthrange(year, month)[1])).toordinal()

    for year in years:
        for month in range(1, 13):
            for day_of_month in range(28, calendar.monthrange(year, month)[1] + 1):
                day = date(year, month, day_of_month)
                for months in range(14):
                    assert _months_on(day, months) == reference(day, months), (day, months)


# --------------------------------------------------------------------------
# classification


def test_classify_same_network_workday_sub_minute():
    # 2010-08-20 is a Friday
    [call] = call_classes(classify_rows([("+79161234567", "20.08.2010", 33)]))
    assert call == ("same-network", "workday", 1)


def test_classify_saturday_is_weekend():
    [(_, day, _)] = call_classes(classify_rows([("+79161234567", "21.08.2010", 57)]))
    assert day == "weekend"


def test_classify_holiday_is_weekend():
    cal = WorkdayCalendar(holidays=frozenset({date(2010, 8, 20)}))
    assert call_classes(classify_rows([FRIDAY_CALL], calendar=cal))[0][1] == "weekend"


def test_minute_index_ceiling():
    assert classify_rows([("+79161234567", "20.08.2010", 60)]).minute.tolist() == [1]
    assert classify_rows([("+79161234567", "20.08.2010", 61)]).minute.tolist() == [2]


def test_classify_unmapped_prefix_counts_warning():
    table = PrefixTable({"+7916": "same-network"})
    [(dest, _, _)] = call_classes(classify_rows([("+15551234567", "20.08.2010", 57)], table))
    assert dest == "other-mobile"
    assert table.unmapped_count == 1


def test_classify_longest_prefix_wins():
    table = PrefixTable({"+7916": "same-network", "+791655": "landline"})
    [(dest, _, _)] = call_classes(classify_rows([("+79165550000", "20.08.2010", 57)], table))
    assert dest == "landline"


def test_classify_calls_drops_sms_and_zero_duration():
    text = (
        cdr_text([FRIDAY_CALL])
        + "20.08.2010;12:00:00;+79161234567;Moscow;SMS;1;2.542\n"
        + "20.08.2010;12:00:00;+79161234567;Moscow;Tel;0:00;2.542\n"
    )
    calls = classify_calls(parse_cdr(text), PREFIXES, WorkdayCalendar())
    assert len(calls) == 1
    assert calls.zero_length == 1


def test_a_call_table_holds_its_own_columns_and_not_the_log():
    """A table's dates and durations are the log's, row for row, for the Tel
    calls of positive duration; SMS rows and a 0:00 call drop. The table
    keeps no reference to the log: once the log is dropped and only the
    table is kept, the log is gone."""
    text = (
        cdr_text([("+74951234567", "06.03.2010", 125)])
        + "07.03.2010;12:00:00;+79161234567;Moscow;SMS;1;2.542\n"
        + "08.03.2010;12:00:00;+79161234567;Moscow;SMS;0:00;2.542\n"
        + "09.03.2010;12:00:00;+79161234567;Moscow;Tel;0:00;2.542\n"
        + cdr_text([FRIDAY_CALL, ("+79261234567", "23.08.2010", 181)]).partition("\n")[2]
    )
    log = parse_cdr(text)
    calls = classify_calls(log, PREFIXES, WorkdayCalendar())
    kept = [record for record in log if record.service == "Tel" and record.duration_seconds > 0]
    assert [record.service for record in log] == ["Tel", "SMS", "SMS", "Tel", "Tel", "Tel"]
    assert calls.date.tolist() == [record.date.toordinal() for record in kept]
    assert calls.duration.tolist() == [125, 57, 181] == [record.duration_seconds for record in kept]
    assert calls.zero_length == 1
    alive = weakref.ref(log)
    del log, kept
    gc.collect()
    assert alive() is None
    assert len(calls) == 3


def test_unmapped_count_adds_one_per_unmapped_call():
    table = PrefixTable({"+7916": "same-network"})
    calls = classify_rows([("+15551234567", "20.08.2010", 57)] * 3 + [FRIDAY_CALL], table)
    assert [dest for dest, _, _ in call_classes(calls)] == ["other-mobile"] * 3 + ["same-network"]
    assert table.unmapped_count == 3


def test_classify_looks_up_each_distinct_number_once(monkeypatch):
    looked_up = []
    lookup = PrefixTable._lookup

    def counted(table, number):
        looked_up.append(number)
        return lookup(table, number)

    monkeypatch.setattr(PrefixTable, "_lookup", counted)
    calls = classify_rows([FRIDAY_CALL] * 3 + [UNLISTED_CALL], PrefixTable({"+7916": "same-network"}))
    assert len(calls) == 4 and calls.unmapped == 1
    assert sorted(looked_up) == sorted([FRIDAY_CALL[0], UNLISTED_CALL[0]])


def test_prefix_table_from_csv():
    table = PrefixTable.from_csv(
        "prefix;destination_class\n+7916;same-network\n+7495;landline\n+7916;same-network\n"
    )
    assert table._lookup("+79161") == DESTINATION_CLASSES.index("same-network")
    assert table._lookup("+74951") == DESTINATION_CLASSES.index("landline")


def test_prefix_table_skips_a_header_on_any_line():
    """A header line, its two names stripped and in any case, is skipped
    wherever it stands: first, between entries or last. A line that is
    not both names is an entry, and an error when its class is unknown."""
    table = PrefixTable.from_csv(
        "+7916;same-network\n PREFIX ; Destination_Class \n+7495;landline\nprefix;destination_class"
    )
    assert dict(table.mapping) == {"+7916": "same-network", "+7495": "landline"}
    with pytest.raises(CdrError, match=r"^prefix table line 2: unknown destination class 'destination_class'$"):
        PrefixTable.from_csv("+7916;same-network\nprefixes;destination_class\n")
    with pytest.raises(CdrError, match=r"^prefix table line 1: expected 2 columns$"):
        PrefixTable.from_csv("prefix;destination_class;\n")


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


@pytest.mark.parametrize("separator", ["\x0c", "\x1e", "\x85", "\u2028", "\u2029"])
def test_holiday_list_lines_end_at_newlines_only(separator):
    """Only ``\\n`` ends a line, as in the prefix table: a line holding a form
    feed or a Unicode line separator is one line, blank or not."""
    text = f"2010-03-08\n{separator}\n2010-05-01\n"
    assert WorkdayCalendar.from_file(text.encode()).holidays == {date(2010, 3, 8), date(2010, 5, 1)}
    with pytest.raises(CdrError, match=r"^holiday list line 3: not an ISO date: '2010-05-01x'$"):
        WorkdayCalendar.from_file(f"2010-03-08\n{separator}\n2010-05-01x\n".encode())
    with pytest.raises(CdrError, match=r"^holiday list line 2: not an ISO date: "):
        WorkdayCalendar.from_file(f"2010-03-08\n2010-05-01{separator}2010-05-02\n".encode())


@pytest.mark.parametrize("line", ["20100308", "2010-W10-1"], ids=["basic", "week"])
def test_holiday_list_takes_only_yyyy_mm_dd(line):
    """Python 3.11's date.fromisoformat also reads the basic and the week
    form; 3.10's does not, and neither does the holiday list on any version."""
    with pytest.raises(CdrError, match=f"^holiday list line 2: not an ISO date: '{line}'$"):
        WorkdayCalendar.from_file(f"2010-03-08\n{line}\n".encode())


@pytest.mark.parametrize(
    "read, text",
    [
        (lambda source: list(parse_cdr(source)), cdr_text([FRIDAY_CALL])),
        (lambda source: dict(PrefixTable.from_csv(source).mapping), "prefix;destination_class\n+7916;landline\n"),
        (WorkdayCalendar.from_file, "2010-03-08\n2010-05-10\n"),
    ],
    ids=["cdr", "prefix table", "holiday list"],
)
@pytest.mark.parametrize("encode", [str, str.encode], ids=["str", "bytes"])
def test_readers_skip_a_byte_order_mark(read, text, encode):
    """A UTF-8 byte-order mark ahead of the text changes nothing."""
    expected = read(encode(text))
    assert expected
    assert read(encode("\ufeff" + text)) == expected


def test_prefix_table_keeps_a_read_only_copy():
    source = {"+7916": "same-network"}
    table = PrefixTable(source)
    source["+79165"] = "landline"
    assert table._lookup("+791650") == DESTINATION_CLASSES.index("same-network")
    with pytest.raises(TypeError):
        table.mapping["+79165"] = "landline"
    with pytest.raises(AttributeError, match="^cannot assign to field 'mapping'$"):
        table.mapping = source
    assert table._lookup("+791650") == DESTINATION_CLASSES.index("same-network")


def test_prefix_table_converts_to_a_dict_and_prints_a_view():
    table = PrefixTable({"+7916": "same-network"})
    classify_rows([UNLISTED_CALL], table)
    assert {name: getattr(table, name) for name in table.__match_args__} == {
        "mapping": {"+7916": "same-network"},
        "unmapped_count": 1,
    }
    assert dict(table.mapping) == {"+7916": "same-network"}
    assert repr(table) == "PrefixTable(mapping=mappingproxy({'+7916': 'same-network'}), unmapped_count=1)"
    with pytest.raises(TypeError):
        table.mapping |= {"+79165": "landline"}
    assert table._lookup("+791650") == DESTINATION_CLASSES.index("same-network")


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
    with pytest.raises((TypeError, AttributeError)):
        edit(table.mapping)
    assert table.mapping == {"+7916": "same-network"}


@pytest.mark.parametrize("clone", [lambda t: pickle.loads(pickle.dumps(t)), copy.deepcopy, copy.copy])
def test_prefix_table_copies_and_pickles(clone):
    table = PrefixTable({"+7916": "same-network", "+791655": "landline"})
    classify_rows([UNLISTED_CALL], table)
    twin = clone(table)
    assert twin == table and twin.unmapped_count == 1
    assert twin._lookup("+79165550000") == DESTINATION_CLASSES.index("landline")
    assert call_classes(classify_rows([UNLISTED_CALL], twin))[0][0] == "other-mobile"
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


def calls_of_minutes(*minutes):
    """Same-network workday calls, each lasting a whole number of minutes."""
    return classified([("same-network", "workday", m * 60) for m in minutes])


def test_histogram_counts():
    hist = build_histogram(calls_of_minutes(1, 1, 2), truncation=5)
    assert hist.masses == (2 / 3, 1 / 3, 0.0, 0.0, 0.0)


def test_histogram_single_call():
    hist = build_histogram(calls_of_minutes(4), truncation=6)
    assert hist.masses[3] == 1.0
    assert sum(hist.masses) == 1.0


def test_histogram_overflow_clamps_to_last_bin():
    hist = build_histogram(calls_of_minutes(9), truncation=5)
    assert hist.masses[4] == 1.0


def test_histogram_empty_rejected():
    with pytest.raises(ProfileError):
        build_histogram(calls_of_minutes(), truncation=5)


def exponential_masses(mu: float, truncation: int) -> np.ndarray:
    """Masses of minutes 1..truncation of the discretized Exp(mu)."""
    edges = np.exp(-mu * np.arange(truncation + 1))
    return edges[:-1] - edges[1:]


def test_histogram_matches_discretized_exponential_within_3_sigma():
    """1000 draws from the discretized Exp(0.41) land within 3 sigma per bin."""
    masses = exponential_masses(0.41, 40)
    probs = np.append(masses, 1 - masses.sum())  # overflow bin
    rng = np.random.default_rng(2021)
    n = 1000
    minutes = rng.choice(np.arange(1, 42), size=n, p=probs / probs.sum())
    hist = build_histogram(calls_of_minutes(*minutes.tolist()), truncation=41)
    for theta in range(1, 41):
        p = masses[theta - 1]
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(hist.masses[theta - 1] - p) <= 3 * sigma + 1e-12


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
    """One observation month of 57-second calls per reference cell, repeated 6 times."""
    return classified(
        [(dest, day, 57) for (dest, day), rate in REFERENCE_CELL_RATES.items() for _ in range(int(rate) * 6)]
    )


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
    calls = calls_of_minutes(1)  # only same-network workday traffic
    profile = estimate_profile(calls, mts_catalog, months=1.0)
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


def test_traffic_cell_rejects_unknown_classes():
    with pytest.raises(ProfileError, match="unknown destination class 'nowhere'"):
        TrafficCell("nowhere", "workday", 5.0, Exponential(0.4))
    with pytest.raises(ProfileError, match="unknown day class 'holiday'"):
        TrafficCell("landline", "holiday", 5.0, Exponential(0.4))


@pytest.mark.parametrize("dest, day", ALL_CALL_CLASSES)
def test_traffic_cell_carries_its_call_class_beside_its_fields(dest, day):
    """A cell's `call_class` is its class's index in ALL_CALL_CLASSES. Like
    `BillingPlan.routes` it is not a field: match, repr, equality and hash
    see the four fields alone, and a pickled or rebuilt cell carries it."""
    model = Exponential(0.5)
    cell = TrafficCell(dest, day, 2.0, model)
    assert cell.call_class == CALL_CLASS_INDEX[dest, day]
    assert TrafficCell.__match_args__ == ("destination_class", "day_class", "rate", "durations")
    assert repr(cell) == f"TrafficCell(destination_class={dest!r}, day_class={day!r}, rate=2.0, durations={model!r})"
    assert hash(cell) == hash((dest, day, 2.0, model))
    for other in (pickle.loads(pickle.dumps(cell)), copy.deepcopy(cell), rebuilt(cell)):
        assert other == cell and hash(other) == hash(cell)
        assert other.call_class == cell.call_class
    moved = rebuilt(cell, day_class="weekend" if day == "workday" else "workday")
    assert moved.call_class == CALL_CLASS_INDEX[dest, moved.day_class] != cell.call_class
    with pytest.raises(AttributeError):
        cell.call_class = 0


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
    with pytest.raises(ProfileError, match=r"^duplicate traffic cell \('landline', 'workday'\)$"):
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


def loop_observation_months(first, last):
    """Reference: whole months found one `date` at a time, then the trailing
    month pro-rata, as `timedelta`s."""
    import calendar
    from datetime import timedelta

    def add_months(day, months):
        year, month = divmod(day.year * 12 + day.month - 1 + months, 12)
        return date(year, month + 1, min(day.day, calendar.monthrange(year, month + 1)[1]))

    end = last + timedelta(days=1)
    whole = 0
    while add_months(first, whole + 1) <= end:
        whole += 1
    period_start, period_end = add_months(first, whole), add_months(first, whole + 1)
    return whole + (end - period_start) / (period_end - period_start)


@settings(max_examples=500, deadline=None)
@given(
    st.dates(date(1, 1, 1), date(9999, 12, 31)),
    st.integers(0, 62) | st.integers(0, 2000) | st.integers(0, 40000),
)
@example(date(9998, 12, 31), 0)
@example(date(9999, 2, 28), 306)  # the window ends 31.12.9999
def test_observation_months_matches_a_month_by_month_loop(first, days):
    """Bit for bit, on windows of up to about a century. A window in the
    year 9999, whose months the loop cannot step past, is measured as the
    same window 400 years (one Gregorian cycle) earlier."""
    last = date.fromordinal(min(first.toordinal() + days, date.max.toordinal()))
    expected = (first, last) if last.year < 9999 else (first.replace(year=first.year - 400), last.replace(year=9599))
    assert repr(observation_months(first, last)) == repr(loop_observation_months(*expected))


def test_observation_months_runs_to_the_last_representable_day():
    """A window ending on 31.12.9999 needs the boundary 01.01.10000, past
    what a `date` holds; it is measured as the same window 400 years (one
    Gregorian cycle) earlier."""
    assert observation_months(date(9999, 1, 5), date(9999, 12, 31)) == 11 + 27 / 31
    assert observation_months(date(9599, 1, 5), date(9599, 12, 31)) == 11 + 27 / 31
