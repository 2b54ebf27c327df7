"""The printout reader: a provider's chronological service printout, read
into columns.

:func:`parse_cdr` reads printout text into a :class:`CallLog`, the accepted
rows as columns of ints, in line order; :mod:`tariffopt.classify` classifies
those rows. Of a row's seven fields the reader keeps the five that the
pipeline reads; it checks the time and keeps neither it nor the zone. The
service is kept as its index in ``KNOWN_SERVICES``, the number and the cost
as indices into the log's distinct texts. :class:`CallRecord` is the row
view that indexing and iterating a log build.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Sequence
from datetime import date, datetime
from decimal import Decimal
from typing import IO, Union

import numpy as np

from .catalog import KNOWN_SERVICES, CdrError, _fields, _ordinal, _read_source, _Record

CDR_HEADER = ("date", "time", "number", "zone", "service", "duration", "cost")

#: longest call a printout row may record: 31 days
MAX_CALL_SECONDS = 31 * 24 * 60 * 60

# A field that csv + strip() reads unchanged: empty, or 1 to 256 characters
# with no quote, separator or line break and no whitespace at either end.
_PLAIN_FIELD = r'(?:[^\s;"][^;"\r\n]{0,255}(?<!\s)|)'

#: one printout line whose seven fields are all in their plain form, with the
#: checks of the per-row reader built in: ASCII digits, a real day and month
#: number, a time inside 24 h, M:SS with seconds under 60, a bare count only
#: for SMS, a plain decimal cost. The groups are the 10-character date, the
#: number, the service, the duration's minutes and seconds and the cost; the
#: time is checked and the zone matched, neither kept. Any other line takes
#: the catch-all branch, whose one group is the line, and goes through
#: `_read_row`; so does a line whose date does not exist (31.02) or whose call
#: is longer than 31 days. An empty line is a row whose every group is empty.
_PLAIN_ROW = re.compile(
    r"^(?:"
    r"((?:0[1-9]|[12][0-9]|3[01])\.(?:0[1-9]|1[0-2])\.[0-9]{4});"
    r"(?:[01][0-9]|2[0-3]):[0-5][0-9]:[0-5][0-9];"
    rf"({_PLAIN_FIELD});{_PLAIN_FIELD};(Tel|SMS);"
    r"(?:([0-9]{1,5}):([0-5][0-9])|(?<=SMS;)[0-9]{1,9});"
    r"(-?[0-9]{1,64}(?:[.,][0-9]{1,64})?)\r?"
    r"|(.*))$",
    re.MULTILINE,
)

#: characters of printout text matched in one `findall`; a block ends at a line end
_BLOCK_CHARS = 1 << 16

#: place values of the digits of ``DD.MM.YYYY``: the digits times this
#: matrix are the day, month and year
_DATE_PLACES = np.array(
    [[10 ** (stop - 1 - j) if start <= j < stop else 0 for start, stop in ((0, 2), (3, 5), (6, 10))]
     for j in range(10)],
    dtype=np.int64,
)


class CallRecord(_Record):
    """One row of the service detail printout."""

    def __init__(self, date: date, number: str, service: str, duration_seconds: int, cost: Decimal):
        vars(self).update(date=date, number=number, service=service, duration_seconds=duration_seconds, cost=cost)


class CallLog(_Record, Sequence):
    """The accepted rows of a printout as columns of ints, in line order:
    `date` the proleptic Gregorian ordinal, `service` the index in
    ``KNOWN_SERVICES`` (Tel 0, SMS 1), `duration` the seconds (0 for an SMS
    row with a bare count).

    The text columns, `number` and `cost` (the cost as printed, decimal
    comma allowed), hold indices into `strings`, the distinct number and
    cost texts of the printout. Indexing and iteration build
    :class:`CallRecord` views; a log compares by identity.
    """

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, date: np.ndarray, number: np.ndarray, service: np.ndarray, duration: np.ndarray,
                 cost: np.ndarray, strings: tuple[str, ...]):
        vars(self).update(date=date, number=number, service=service, duration=duration, cost=cost,
                          strings=strings)

    def __len__(self) -> int:
        return len(self.date)

    def __getitem__(self, i) -> CallRecord:
        i = range(len(self))[operator.index(i)]
        text = self.strings
        return CallRecord(
            date=date.fromordinal(int(self.date[i])),
            number=text[self.number[i]],
            service=KNOWN_SERVICES[self.service[i]],
            duration_seconds=int(self.duration[i]),
            cost=Decimal(text[self.cost[i]].replace(",", ".")),
        )


def _parse_duration(raw: str, service: str) -> int:
    """Duration column: ``M:SS`` for calls; a bare count for SMS rows; digits only."""
    raw = raw.strip()
    if ":" in raw:
        minutes, _, seconds = raw.partition(":")
        if not (minutes.isdecimal() and seconds.isdecimal() and int(seconds) < 60):
            raise ValueError(f"bad duration {raw!r}")
        total = int(minutes) * 60 + int(seconds)
        if total > MAX_CALL_SECONDS:
            raise ValueError(f"duration {raw!r} is longer than 31 days")
        return total
    if service == "SMS":
        if not raw.isdecimal():
            raise ValueError(f"bad duration {raw!r}")
        return 0
    raise ValueError(f"bad duration {raw!r} for service {service!r}")


def _parse_cost(raw: str) -> str:
    """The cost column as printed, stripped: an optional leading ``-``, then
    decimal digits with at most one ``.`` or ``,`` among them, at least one
    digit in all; no ``+``, underscore, exponent or inner space."""
    cost = raw.strip()
    whole, _, fraction = cost.removeprefix("-").replace(",", ".").partition(".")
    if not (whole + fraction).isdecimal():
        raise ValueError(f"bad cost {raw!r}")
    return cost


def _read_row(line: str, lineno: int, strict: bool, issues: list[str]) -> tuple | None:
    """The per-row reader: one printout line checked field by field.

    Returns the line's five column values (the date's ordinal, the number
    and service, the duration in seconds and the cost as printed, stripped),
    or None for a blank line, a row with an unrecognized service (noted in
    `issues`) or a malformed row (noted in `issues`, or raised as
    :class:`CdrError` when `strict`). The time is checked and the zone
    read; neither is kept.
    """
    try:
        row = _fields(line)
        if not row or all(not col.strip() for col in row):
            return None
        if len(row) != 7:
            raise ValueError(f"expected 7 columns, got {len(row)}")
        day = datetime.strptime(row[0].strip(), "%d.%m.%Y").toordinal()
        datetime.strptime(row[1].strip(), "%H:%M:%S")
        service = row[4].strip()
        if service not in KNOWN_SERVICES:
            issues.append(f"line {lineno}: unrecognized service {service!r}, skipped")
            return None
        return day, row[2].strip(), service, _parse_duration(row[5], service), _parse_cost(row[6])
    except ValueError as exc:
        message = f"line {lineno}: {exc}"
        if strict:
            raise CdrError(message) from None
        issues.append(f"{message}, row skipped")
        return None


def _digits(texts: tuple[str, ...], width: int) -> np.ndarray:
    """The digits of texts of `width` ASCII digits, as :data:`_PLAIN_ROW`
    lets through, one row per text; an empty text's digits are all -48."""
    # each character is its code point, so code point - 48 is the digit, and NUL padding -48
    return np.array(texts, dtype=f"U{width}").view(np.uint32).reshape(len(texts), width).astype(np.int64) - ord("0")


def _date_ordinals(year: np.ndarray, month: np.ndarray, day: np.ndarray) -> np.ndarray:
    """The proleptic Gregorian ordinals of the dates (`date.toordinal`), or
    -1 where there is no such date (31.02, 29.02 of a common year, year 0).
    Months run 1-12 and days 1-31, as :data:`_PLAIN_ROW` admits."""
    ordinal = _ordinal(year, month, day)
    return np.where((year >= 1) & (ordinal < _ordinal(year, month + 1, 1)), ordinal, -1)


#: a service tag's index in ``KNOWN_SERVICES``; a catch-all row's empty tag -1
_SERVICE_INDEX = {tag: i for i, tag in enumerate(("", *KNOWN_SERVICES), start=-1)}


class _LogBuilder:
    """Collects a :class:`CallLog` block by block, numbering its distinct texts.

    A block's rows are read column by column from one pass of
    :data:`_PLAIN_ROW`: the date and the seconds from their fixed-width
    digits, the minutes through a dict of digit texts, the service through
    :data:`_SERVICE_INDEX`, each text column's codes in one pass. A row is
    kept by its date ordinal and duration alone: a catch-all row's date
    digits are padding, a year below 1, so its ordinal is -1. A row that
    drops (not plain, no such date, over 31 days) goes through `_read_row`,
    except an empty line, which is skipped.
    """

    def __init__(self):
        self.strings: dict[str, int] = {}
        self.ints: dict[str, int] = {"": 0}  # digit text -> its value; "" when absent
        self.parts: list[np.ndarray] = []  # each a 5 x rows array

    def codes_of(self, column: tuple[str, ...]) -> list[int]:
        strings = self.strings
        return [strings.setdefault(text, len(strings)) for text in column]

    def ints_of(self, column: tuple[str, ...]) -> np.ndarray:
        ints = self.ints
        for text in set(column).difference(ints):
            ints[text] = int(text)
        return np.fromiter(map(ints.__getitem__, column), np.int64, len(column))

    def add_lines(self, block: str, lineno: int, strict: bool, issues: list[str]) -> int:
        """Add the rows of `block`, whole lines of which the first is line
        `lineno`, in line order; returns the block's line count."""
        rows = _PLAIN_ROW.findall(block)
        n = len(rows)
        date_text, number, service, minutes, seconds, cost, line_text = zip(*rows)
        digits = _digits(date_text, 10)
        day, month, year = (digits @ _DATE_PLACES).T
        ordinal = _date_ordinals(year, month, day)  # -1 for a catch-all row, whose year is below 1
        tens, ones = np.maximum(_digits(seconds, 2), 0).T  # a row without M:SS has none: 0 seconds
        duration = self.ints_of(minutes) * 60 + tens * 10 + ones
        service = list(map(_SERVICE_INDEX.__getitem__, service))
        columns = np.array([ordinal, self.codes_of(number), service, duration, self.codes_of(cost)])
        keep = (ordinal >= 0) & (duration <= MAX_CALL_SECONDS)
        if not keep.all():
            # a plain row that drops took the plain branch, not the line's: split for it
            lines = block.split("\n") if (digits[~keep, 0] >= 0).any() else line_text
            for i in np.flatnonzero(~keep).tolist():
                row = _read_row(lines[i], lineno + i, strict, issues) if lines[i] else None
                if row is not None:
                    day, number, service, duration, cost = row
                    number, cost = self.codes_of((number, cost))
                    columns[:, i] = day, number, _SERVICE_INDEX[service], duration, cost
                    keep[i] = True
            columns = columns[:, keep]
        self.parts.append(columns)
        return n

    def build(self) -> CallLog:
        columns = np.concatenate(self.parts, axis=1) if self.parts else np.zeros((5, 0), np.int64)
        return CallLog(*columns, strings=tuple(self.strings))


def parse_cdr(
    source: Union[bytes, str, IO],
    strict: bool = False,
    issues: list[str] | None = None,
) -> CallLog:
    """Parse a semicolon-separated CDR printout into a :class:`CallLog`.

    Expected header: ``date;time;number;zone;service;duration;cost`` with
    dates as DD.MM.YYYY and costs using either decimal point or comma. Each
    line is one row; CRLF line ends are accepted. Malformed rows are skipped
    (with a note appended to `issues`) unless `strict` is set, in which case
    they raise :class:`CdrError`. Rows with an unrecognized service tag are
    always skipped with a warning.

    Lines are read in blocks, each matched by one pass of :data:`_PLAIN_ROW`;
    the lines it does not take go through the per-row reader in line order,
    so both give the same rows and the same issues.
    """
    text = _read_source(source, CdrError, "CDR")
    if issues is None:
        issues = []
    if not text:
        raise CdrError("empty CDR document (missing header)")
    end = text.find("\n")
    if end < 0:
        end = len(text)
    try:
        header = _fields(text[:end])
    except ValueError as exc:
        raise CdrError(f"unreadable CDR header: {exc}") from None
    if tuple(col.strip().lower() for col in header) != CDR_HEADER:
        raise CdrError(f"unexpected CDR header {header!r}")

    builder = _LogBuilder()
    start, lineno = end + 1, 2
    last = len(text) - text.endswith("\n")  # a final line end opens no line
    while start < last:
        stop = text.find("\n", start + _BLOCK_CHARS, last)
        if stop < 0:
            stop = last
        lineno += builder.add_lines(text[start:stop], lineno, strict, issues)
        start = stop + 1
    return builder.build()
