"""CDR ingestion, call classification, and traffic-parameter estimation.

Turns a provider's chronological service printout into the quantities the
cost engine consumes: per-class call rates (calls/month) and call-duration
distributions, either empirical histograms or fitted exponentials. The one
way in is printout text: :func:`parse_cdr` reads it into columns
(:class:`CallLog`), :func:`classify_calls` classifies those into columns
(:class:`CallTable`), and the estimators read the table. :class:`CallRecord`
is the row view of a log and what the per-row reader returns.
"""

from __future__ import annotations

import csv
import math
import operator
import re
from collections.abc import Sequence
from dataclasses import dataclass
from datetime import date, datetime, time
from decimal import Decimal, InvalidOperation
from functools import cached_property
from itertools import accumulate
from typing import IO, Mapping, Union

import numpy as np

from .catalog import (
    ALL_CALL_CLASSES,
    CALL_CLASS_INDEX,
    DAY_CLASSES,
    DESTINATION_CLASSES,
    BillingPlan,
    Catalog,
    _read_source,
)

CDR_HEADER = ("date", "time", "number", "zone", "service", "duration", "cost")
KNOWN_SERVICES = ("Tel", "SMS")

#: longest call a printout row may record: 31 days
MAX_CALL_SECONDS = 31 * 24 * 60 * 60

# A field that csv + strip() reads unchanged: no quote, separator or line
# break, no whitespace at either end, and far below csv's field size limit.
_PLAIN_FIELD = r'(?:[^\s;"](?:[^;"\r\n]{0,254}[^\s;"])?)?'

#: one printout line whose seven fields are all in their plain form, with the
#: checks of the per-row reader built in: ASCII digits, a real day and month
#: number, a time inside 24 h, M:SS with seconds under 60, a bare count only
#: for SMS, a plain decimal cost. The date and time come as one 19-character
#: group. Any other line takes the `.*` branch, all groups empty, and goes
#: through `_read_row`; so does a line whose date does not exist (31.02) or
#: whose call is longer than 31 days.
_PLAIN_ROW = re.compile(
    r"^(?:"
    r"((?:0[1-9]|[12][0-9]|3[01])\.(?:0[1-9]|1[0-2])\.[0-9]{4};"
    r"(?:[01][0-9]|2[0-3]):[0-5][0-9]:[0-5][0-9]);"
    rf"({_PLAIN_FIELD});({_PLAIN_FIELD});(Tel|SMS);"
    r"(?:([0-9]{1,5}):([0-5][0-9])|(?<=SMS;)[0-9]{1,9});"
    r"(-?[0-9]{1,64}(?:[.,][0-9]{1,64})?)\r?"
    r"|.*)$",
    re.MULTILINE,
)

#: characters of printout text matched in one `findall`; a block ends at a line end
_BLOCK_CHARS = 1 << 16

#: place values of the digits of ``DD.MM.YYYY;HH:MM:SS``: the digits times this
#: matrix are the day, month, year, hour, minute and second
_STAMP_PLACES = np.array(
    [
        [10 ** (stop - 1 - j) if start <= j < stop else 0
         for start, stop in ((0, 2), (3, 5), (6, 10), (11, 13), (14, 16), (17, 19))]
        for j in range(19)
    ],
    dtype=np.int64,
)


class CdrError(ValueError):
    """Raised for malformed CDR input (fatal only in strict mode)."""


class ProfileError(ValueError):
    """Raised when traffic-parameter estimation preconditions fail."""


@dataclass(frozen=True)
class CallRecord:
    """One row of the service detail printout."""

    date: date
    time: time
    number: str
    zone: str
    service: str
    duration_seconds: int
    cost: Decimal


@dataclass(frozen=True, eq=False)
class CallLog(Sequence):
    """The accepted rows of a printout as columns of ints, in line order.

    The text columns hold indices into `strings`, the distinct texts of the
    printout. Indexing and iteration build :class:`CallRecord` views; a log
    compares by identity.
    """

    date: np.ndarray  # proleptic Gregorian ordinal
    time: np.ndarray  # seconds since midnight
    number: np.ndarray  # index into strings
    zone: np.ndarray  # index into strings
    service: np.ndarray  # index into strings
    duration: np.ndarray  # seconds; 0 for an SMS row with a bare count
    cost: np.ndarray  # index into strings: the cost as printed, decimal comma allowed
    strings: tuple[str, ...]

    def code(self, text: str) -> int:
        """The index of `text` in `strings`, or -1 when no row holds it."""
        try:
            return self.strings.index(text)
        except ValueError:
            return -1

    def __len__(self) -> int:
        return len(self.date)

    def __getitem__(self, i) -> CallRecord:
        i = range(len(self))[operator.index(i)]
        at = int(self.time[i])
        text = self.strings
        return CallRecord(
            date=date.fromordinal(int(self.date[i])),
            time=time(at // 3600, at // 60 % 60, at % 60),
            number=text[self.number[i]],
            zone=text[self.zone[i]],
            service=text[self.service[i]],
            duration_seconds=int(self.duration[i]),
            cost=Decimal(text[self.cost[i]].replace(",", ".")),
        )


@dataclass(frozen=True, eq=False)
class CallTable:
    """Classified calls as columns, in printout order: what
    :func:`classify_calls` returns and the estimators read."""

    log: CallLog  # the printout the calls come from
    rows: np.ndarray  # each call's row in `log`
    destination: np.ndarray  # index into DESTINATION_CLASSES
    day: np.ndarray  # index into DAY_CLASSES
    minute: np.ndarray  # billed minute: the duration in minutes rounded up, at least 1

    @property
    def call_class(self) -> np.ndarray:
        """Each call's index into ALL_CALL_CLASSES."""
        return self.destination * len(DAY_CLASSES) + self.day

    @property
    def date(self) -> np.ndarray:
        """Each call's date, as an ordinal."""
        return self.log.date[self.rows]

    @property
    def duration(self) -> np.ndarray:
        """Each call's duration in seconds."""
        return self.log.duration[self.rows]

    def __len__(self) -> int:
        return len(self.rows)


def _parse_duration(raw: str, service: str) -> int:
    """Duration column: ``M:SS`` for calls; a bare count for SMS rows."""
    raw = raw.strip()
    if ":" in raw:
        minutes_part, _, seconds_part = raw.partition(":")
        minutes = int(minutes_part)
        seconds = int(seconds_part)
        if minutes < 0 or not 0 <= seconds < 60:
            raise ValueError(f"bad duration {raw!r}")
        if minutes * 60 + seconds > MAX_CALL_SECONDS:
            raise ValueError(f"duration {raw!r} is longer than 31 days")
        return minutes * 60 + seconds
    if service == "SMS":
        int(raw)  # must still be a number
        return 0
    raise ValueError(f"bad duration {raw!r} for service {service!r}")


def _parse_cost(raw: str) -> Decimal:
    try:
        return Decimal(raw.strip().replace(",", "."))
    except InvalidOperation:
        raise ValueError(f"bad cost {raw!r}") from None


def _fields(line: str) -> list[str]:
    """The `;`-separated fields of one line as the csv module reads them.

    A carriage return inside the line, or a field over csv's size limit, is
    a ValueError.
    """
    try:
        return next(csv.reader((line,), delimiter=";"), [])
    except csv.Error as exc:
        # drop csv's advice on opening files, which does not apply to a line
        raise ValueError(str(exc).split(" - ", 1)[0]) from None


def _read_row(line: str, lineno: int, strict: bool, issues: list[str]) -> CallRecord | None:
    """The per-row reader: one printout line checked field by field.

    Returns the line's record, or None for a blank line, a row with an
    unrecognized service (noted in `issues`) or a malformed row (noted in
    `issues`, or raised as :class:`CdrError` when `strict`).
    """
    try:
        row = _fields(line)
        if not row or all(not col.strip() for col in row):
            return None
        if len(row) != 7:
            raise ValueError(f"expected 7 columns, got {len(row)}")
        day = datetime.strptime(row[0].strip(), "%d.%m.%Y").date()
        at = datetime.strptime(row[1].strip(), "%H:%M:%S").time()
        service = row[4].strip()
        if service not in KNOWN_SERVICES:
            issues.append(f"line {lineno}: unrecognized service {service!r}, skipped")
            return None
        return CallRecord(
            date=day,
            time=at,
            number=row[2].strip(),
            zone=row[3].strip(),
            service=service,
            duration_seconds=_parse_duration(row[5], service),
            cost=_parse_cost(row[6]),
        )
    except ValueError as exc:
        message = f"line {lineno}: {exc}"
        if strict:
            raise CdrError(message) from None
        issues.append(f"{message}, row skipped")
        return None


#: the days in each month of a common year, and the days before it; index 0 unused
_DAYS_IN_MONTH = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])
_DAYS_BEFORE_MONTH = np.array([0, 0, 31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334])


def _is_leap(year):
    """Whether `year`, an int or an array of ints, is a Gregorian leap year."""
    return (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))


def _date_ordinals(year: np.ndarray, month: np.ndarray, day: np.ndarray) -> np.ndarray:
    """The proleptic Gregorian ordinals of the dates (`date.toordinal`), or
    -1 where there is no such date (31.02, 29.02 of a common year, year 0)."""
    leap = _is_leap(year)
    m = np.where((month >= 1) & (month <= 12), month, 0)
    length = _DAYS_IN_MONTH[m] + (leap & (m == 2))
    valid = (year >= 1) & (year <= 9999) & (m > 0) & (day >= 1) & (day <= length)
    y = year - 1
    ordinal = y * 365 + y // 4 - y // 100 + y // 400 + _DAYS_BEFORE_MONTH[m] + (leap & (m > 2)) + day
    return np.where(valid, ordinal, -1)


class _LogBuilder:
    """Collects a :class:`CallLog` block by block, numbering its distinct texts."""

    def __init__(self):
        self.strings: dict[str, int] = {}
        self.ints: dict[str, int] = {"": 0}  # digit text -> its value; "" when absent
        self.parts: list[np.ndarray] = []  # each a 7 x rows array

    def codes_of(self, column: tuple[str, ...]) -> np.ndarray:
        strings = self.strings
        for text in dict.fromkeys(column):
            strings.setdefault(text, len(strings))
        return np.fromiter(map(strings.__getitem__, column), np.int64, len(column))

    def ints_of(self, column: tuple[str, ...]) -> np.ndarray:
        ints = self.ints
        for text in set(column).difference(ints):
            ints[text] = int(text)
        return np.fromiter(map(ints.__getitem__, column), np.int64, len(column))

    def columns_of(self, record: CallRecord) -> tuple[int, ...]:
        at, strings = record.time, self.strings
        return (
            record.date.toordinal(),
            at.hour * 3600 + at.minute * 60 + at.second,
            strings.setdefault(record.number, len(strings)),
            strings.setdefault(record.zone, len(strings)),
            strings.setdefault(record.service, len(strings)),
            record.duration_seconds,
            strings.setdefault(str(record.cost), len(strings)),
        )

    def add_lines(self, block: str, lineno: int, strict: bool, issues: list[str]) -> int:
        """Add the rows of `block`, whole lines of which the first is line
        `lineno`, in line order; returns the block's line count."""
        rows = _PLAIN_ROW.findall(block)
        n = len(rows)
        stamp, number, zone, service, minutes, seconds, cost = zip(*rows)
        stamps = np.array(stamp, dtype="U19")
        plain = stamps != ""
        # the pattern let only ASCII digits through, so code point - 48 is the digit
        digits = stamps.view(np.uint32).reshape(n, 19).astype(np.int64) - ord("0")
        day, month, year, hour, minute, second = (digits @ _STAMP_PLACES).T
        ordinal = np.where(plain, _date_ordinals(year, month, day), -1)
        duration = self.ints_of(minutes) * 60 + self.ints_of(seconds)
        columns = np.stack([
            ordinal,
            (hour * 60 + minute) * 60 + second,
            self.codes_of(number),
            self.codes_of(zone),
            self.codes_of(service),
            duration,
            self.codes_of(cost),
        ])
        keep = plain & (ordinal >= 0) & (duration <= MAX_CALL_SECONDS)
        others = np.flatnonzero(~keep).tolist()
        if others:
            lines = block.split("\n")
            for i in others:
                record = _read_row(lines[i], lineno + i, strict, issues)
                if record is not None:
                    columns[:, i] = self.columns_of(record)
                    keep[i] = True
        self.parts.append(columns[:, keep])
        return n

    def build(self) -> CallLog:
        columns = np.concatenate(self.parts, axis=1) if self.parts else np.zeros((7, 0), np.int64)
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


class _ReadOnlyDict(dict):
    """A dict that refuses changes. Unlike a mappingproxy it pickles,
    deep-copies, goes through `dataclasses.asdict` and prints as a dict."""

    def _refuse(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} is read-only")

    __setitem__ = __delitem__ = clear = pop = popitem = setdefault = update = _refuse
    __ior__ = dict.__or__  # `mapping |= more` assigns a new mapping, as for a mappingproxy

    def __reduce__(self):
        return type(self), (dict(self),)


@dataclass
class PrefixTable:
    """Longest-prefix map from dialed numbers to destination classes.

    :func:`classify_calls` sends a call to a number with no listed prefix to
    `other-mobile` and counts it in `unmapped_count`. `mapping` is kept as a
    read-only copy, and assigning a new one rebuilds the lookup index, so the
    index cannot go stale.
    """

    mapping: Mapping[str, str]
    unmapped_count: int = 0

    def __setattr__(self, name, value):
        if name == "mapping":
            classes = dict(value)
            for prefix, dest in classes.items():
                if dest not in DESTINATION_CLASSES:
                    raise CdrError(f"prefix {prefix!r}: unknown destination class {dest!r}")
            value = _ReadOnlyDict(classes)
            # an empty prefix matches no number; it must leave the lookup dict
            # too, since number[:n] of the empty number is "" for every n
            classes = {prefix: dest for prefix, dest in classes.items() if prefix}
            super().__setattr__("_lengths", tuple(sorted({len(p) for p in classes}, reverse=True)))
            super().__setattr__("_classes", classes)
        super().__setattr__(name, value)

    @classmethod
    def from_csv(cls, source: Union[bytes, str, IO]) -> "PrefixTable":
        """Load a ``prefix;destination_class`` table, one entry per line.

        An unreadable line, an unknown class, an empty prefix, or a prefix
        listed again with another class is an error that names its line.
        """
        text = _read_source(source, CdrError, "prefix table")
        mapping: dict[str, str] = {}
        for lineno, line in enumerate(text.split("\n"), start=1):
            try:
                row = _fields(line)
            except ValueError as exc:
                raise CdrError(f"prefix table line {lineno}: {exc}") from None
            if not row or all(not col.strip() for col in row):
                continue
            if [c.strip().lower() for c in row] == ["prefix", "destination_class"]:
                continue
            if len(row) != 2:
                raise CdrError(f"prefix table line {lineno}: expected 2 columns")
            prefix, dest = row[0].strip(), row[1].strip()
            if not prefix:
                raise CdrError(f"prefix table line {lineno}: empty prefix")
            if dest not in DESTINATION_CLASSES:
                raise CdrError(f"prefix table line {lineno}: unknown destination class {dest!r}")
            if mapping.setdefault(prefix, dest) != dest:
                raise CdrError(
                    f"prefix table line {lineno}: prefix {prefix!r} listed again "
                    f"as {dest!r}, was {mapping[prefix]!r}"
                )
        return cls(mapping)

    def _lookup(self, number: str) -> str | None:
        """The class of `number`'s longest listed prefix; None when no prefix is listed."""
        classes = self._classes
        for length in self._lengths:
            dest = classes.get(number[:length])
            if dest is not None:
                return dest
        return None


@dataclass(frozen=True)
class WorkdayCalendar:
    """Workday/weekend lookup; Saturdays, Sundays, and listed holidays are weekends."""

    holidays: frozenset[date] = frozenset()

    @classmethod
    def from_file(cls, source: Union[bytes, str, IO]) -> "WorkdayCalendar":
        """Load a holiday list, one ISO date per line."""
        text = _read_source(source, CdrError, "holiday list")
        days = set()
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if line and not line.startswith("#"):
                try:
                    days.add(date.fromisoformat(line))
                except ValueError:
                    raise CdrError(f"holiday list line {lineno}: not an ISO date: {line!r}") from None
        return cls(frozenset(days))

    def day_class(self, day: date) -> str:
        if day.weekday() >= 5 or day in self.holidays:
            return "weekend"
        return "workday"


def classify_calls(
    log: CallLog,
    prefix_table: PrefixTable,
    calendar: WorkdayCalendar,
    issues: list[str] | None = None,
) -> CallTable:
    """Classify all outgoing calls, dropping SMS rows and zero-duration calls.

    Each call goes to the class of its number's longest listed prefix and
    of its date's day class; each distinct number and date is looked up
    once. A call to an unlisted number goes to `other-mobile` and adds one
    to the prefix table's `unmapped_count`. The billing minute is the
    ceiling of the duration in minutes. `log` is what :func:`parse_cdr`
    returns.
    """
    tel = log.service == log.code("Tel")
    rows = np.flatnonzero(tel & (log.duration > 0))
    numbers = log.number[rows]
    per_number = np.bincount(numbers, minlength=len(log.strings))
    destination = np.zeros(len(log.strings), dtype=np.int64)
    lookup = prefix_table._lookup
    for code in np.flatnonzero(per_number).tolist():
        dest = lookup(log.strings[code])
        if dest is None:
            dest = "other-mobile"
            prefix_table.unmapped_count += int(per_number[code])
        destination[code] = DESTINATION_CLASSES.index(dest)
    days, day_of_call = np.unique(log.date[rows], return_inverse=True)
    day_of = [DAY_CLASSES.index(calendar.day_class(date.fromordinal(d))) for d in days.tolist()]
    dropped = int(np.count_nonzero(tel)) - len(rows)
    if dropped and issues is not None:
        issues.append(f"{dropped} zero-duration call(s) dropped")
    return CallTable(
        log=log,
        rows=rows,
        destination=destination[numbers],
        day=np.array(day_of, dtype=np.int64)[day_of_call.reshape(-1)],
        minute=np.maximum(1, -(-log.duration[rows] // 60)),
    )


# --------------------------------------------------------------------------
# duration models


@dataclass(frozen=True)
class Empirical:
    """Per-minute duration distribution given directly as probability masses.

    `masses[t]` is the probability the call is billed in minute t+1. Masses
    may sum to less than 1 (a truncated model keeps its tail implicit); they
    are never renormalized here, and the tail is never billed.
    """

    masses: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "masses", tuple(float(m) for m in self.masses))
        if not self.masses:
            raise ProfileError("empirical model has no mass entries")
        if not all(math.isfinite(m) for m in self.masses):
            raise ProfileError("non-finite probability mass")
        if any(m < 0 for m in self.masses):
            raise ProfileError("negative probability mass")
        if sum(self.masses) > 1 + 1e-9:
            raise ProfileError(f"masses sum to {sum(self.masses)} > 1")

    @property
    def truncation(self) -> int:
        return len(self.masses)

    @cached_property
    def _survival(self) -> list[float]:
        # S(0..T), summed from the tail so that small tails keep their digits
        return list(accumulate(reversed(self.masses), initial=0.0))[::-1]

    @cached_property
    def _survival_tails(self) -> list[float]:
        # S(t) + ... + S(T) for t = 0..T, also summed from the tail
        return list(accumulate(reversed(self._survival)))[::-1]

    def survivals(self, points: Sequence[int]) -> list[float]:
        """P(billed minute > t) at each point t: an index into S(0..T), clipped at T."""
        survival, last = self._survival, self.truncation
        return [survival[t if t < last else last] for t in points]

    def survival_sums(self, spans: Sequence[tuple[int, int | None]]) -> list[float]:
        """S(start) + ... + S(stop - 1) of each ``(start, stop)`` span, to
        the end for stop None."""
        tails, last = self._survival_tails, self.truncation
        return [
            tails[min(start, last)] - (0.0 if stop is None else tails[min(stop, last)])
            for start, stop in spans
        ]


@dataclass(frozen=True)
class Exponential:
    """Exponential call-duration model with rate `mu` (1/minutes).

    Discretized to whole billing minutes, the mass of minute t is
    ``exp(-mu*(t-1)) - exp(-mu*t)``. Pricing reads the survival function
    ``exp(-mu*t)`` at any minute, so no mass is cut off.
    """

    mu: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and self.mu > 0):
            raise ProfileError(f"mu must be positive and finite, got {self.mu}")
        if self._decay == 1.0:
            raise ProfileError(f"mu {self.mu} is too small: exp(-mu) rounds to 1")

    @cached_property
    def _decay(self) -> float:
        return math.exp(-self.mu)

    def survivals(self, points: Sequence[int]) -> list[float]:
        """P(billed minute > t) = exp(-mu*t) at each point t, by ``math.exp``
        (whose last bit ``np.exp`` does not always reproduce)."""
        mu = self.mu
        return [math.exp(-mu * t) for t in points]

    def survival_sums(self, spans: Sequence[tuple[int, int | None]]) -> list[float]:
        """S(start) + ... + S(stop - 1) of each ``(start, stop)`` span, a
        geometric series; to infinity for stop None."""
        decay, mu = self._decay, self.mu
        return [
            math.exp(-mu * start) / (1.0 - decay)
            if stop is None
            else math.exp(-mu * start) * (1.0 - decay ** (stop - start)) / (1.0 - decay)
            for start, stop in spans
        ]


#: what the cost engine reads of a model is its `survivals` and `survival_sums`
DurationModel = Union[Empirical, Exponential]


@dataclass(frozen=True)
class ExponentialFit:
    """Fitted exponential plus the sample statistics behind it.

    When the exponential assumption is good, `sample_mean` and `sample_rmsd`
    are close (an exponential's mean equals its standard deviation).
    """

    model: Exponential
    sample_mean: float
    sample_rmsd: float
    sample_size: int


def fit_exponential(durations_minutes: Sequence[float]) -> ExponentialFit:
    """Fit an exponential duration model: mu = 1 / sample mean."""
    values = np.asarray(durations_minutes, dtype=float)
    if values.size == 0:
        raise ProfileError("cannot fit an exponential to an empty sample")
    mean = float(values.mean())
    if mean <= 0:
        raise ProfileError("cannot fit an exponential to a zero-mean sample")
    rmsd = float(np.sqrt(np.mean((values - mean) ** 2)))
    return ExponentialFit(
        model=Exponential(mu=1.0 / mean),
        sample_mean=mean,
        sample_rmsd=rmsd,
        sample_size=int(values.size),
    )


def build_histogram(calls: CallTable, truncation: int) -> Empirical:
    """Empirical per-minute distribution of billed call minutes.

    Minutes beyond `truncation` accumulate in the last bin, so masses always
    sum to exactly 1. This is the model :func:`estimate_profile` shares
    among all classes for ``duration_model="empirical"``, with `truncation`
    the longest billed minute.
    """
    if not len(calls):
        raise ProfileError("cannot build a histogram from zero calls")
    if truncation < 1:
        raise ProfileError(f"truncation must be >= 1, got {truncation}")
    counts = np.bincount(np.minimum(calls.minute, truncation) - 1, minlength=truncation)
    return Empirical(tuple(counts / counts.sum()))


# --------------------------------------------------------------------------
# traffic profile


@dataclass(frozen=True)
class TrafficCell:
    """Arrival rate and duration model for one (destination, day) class."""

    destination_class: str
    day_class: str
    rate: float  # calls per month
    durations: DurationModel | None

    def __post_init__(self):
        if self.destination_class not in DESTINATION_CLASSES:
            raise ProfileError(f"unknown destination class {self.destination_class!r}")
        if self.day_class not in DAY_CLASSES:
            raise ProfileError(f"unknown day class {self.day_class!r}")
        if not (math.isfinite(self.rate) and self.rate >= 0):
            raise ProfileError(f"call rate must be non-negative and finite, got {self.rate}")
        if self.rate > 0 and self.durations is None:
            raise ProfileError(
                f"cell ({self.destination_class}, {self.day_class}) has traffic "
                f"but no duration model"
            )


@dataclass(frozen=True)
class TrafficProfile:
    """Estimated traffic, keyed by call class rather than by plan.

    Any plan's per-subgroup call rates derive from the same cells via that
    plan's routing rules, so every plan sees the same monthly total no
    matter how it partitions the traffic.
    """

    cells: tuple[TrafficCell, ...]
    observation_months: float

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(self.cells))
        if not (math.isfinite(self.observation_months) and self.observation_months > 0):
            raise ProfileError(
                f"observation_months must be positive and finite, got {self.observation_months}"
            )
        seen = set()
        for cell in self.cells:
            key = (cell.destination_class, cell.day_class)
            if key in seen:
                raise ProfileError(f"duplicate traffic cell {key}")
            seen.add(key)

    @property
    def total_rate(self) -> float:
        """Total calls per month, identical for every plan's subgroup split."""
        return sum(cell.rate for cell in self.cells)

    def lambda_for(self, plan: BillingPlan) -> tuple[float, ...]:
        """Calls/month landing in each of the plan's subgroups, in rule order."""
        rates = [0.0] * len(plan.subgroups)
        for cell in self.cells:
            k = CALL_CLASS_INDEX[cell.destination_class, cell.day_class]
            rates[plan.routes[k]] += cell.rate
        return tuple(rates)

    def scaled(self, k: float) -> "TrafficProfile":
        """Profile with every call rate multiplied by k; durations untouched."""
        if not (math.isfinite(k) and k > 0):
            raise ProfileError(f"traffic multiplier must be positive and finite, got {k}")
        return TrafficProfile(
            cells=tuple(
                TrafficCell(
                    destination_class=cell.destination_class,
                    day_class=cell.day_class,
                    rate=cell.rate * k,
                    durations=cell.durations,
                )
                for cell in self.cells
            ),
            observation_months=self.observation_months,
        )


def estimate_profile(
    calls: CallTable,
    catalog: Catalog,
    months: float,
    duration_model: str = "exponential",
) -> TrafficProfile:
    """Estimate per-class call rates and one duration model from classified calls.

    `duration_model` selects an exponential fitted to all call durations
    (:func:`fit_exponential`) or the histogram of all billed minutes
    (:func:`build_histogram`). The one model serves every class, since
    single classes rarely have enough calls to stand alone. Rates are calls
    per month over the `months`-long observation window. `catalog` is
    unused: the profile is keyed by call class, and every plan routes each
    class to exactly one subgroup, so any plan sees the same monthly total.
    """
    if not (math.isfinite(months) and months > 0):
        raise ProfileError(f"months must be positive and finite, got {months}")
    if not len(calls):
        raise ProfileError("no calls to estimate a profile from")
    if duration_model not in ("exponential", "empirical"):
        raise ProfileError(f"unknown duration model {duration_model!r}")

    if duration_model == "exponential":
        model = fit_exponential(calls.duration / 60.0).model
    else:
        model = build_histogram(calls, int(calls.minute.max()))
    counts = np.bincount(calls.call_class, minlength=len(ALL_CALL_CLASSES)).tolist()
    cells = tuple(
        TrafficCell(destination_class=dest, day_class=day, rate=counts[k] / months, durations=model)
        for k, (dest, day) in enumerate(ALL_CALL_CLASSES)
    )
    return TrafficProfile(cells=cells, observation_months=months)


def _add_months(day: date, months: int) -> date:
    month_index = day.month - 1 + months
    year = day.year + month_index // 12
    month = month_index % 12 + 1
    last = int(_DAYS_IN_MONTH[month]) + (month == 2 and _is_leap(year))
    return date(year, month, min(day.day, last))


def observation_months(first: date, last: date) -> float:
    """Length of the observation window [first, last] in months.

    Whole calendar months counted from `first`; a trailing partial month
    contributes pro-rata by its calendar length.
    """
    if last < first:
        raise ProfileError("observation window ends before it starts")
    end = last + (date.resolution)  # exclusive end of the window
    whole = 0
    while _add_months(first, whole + 1) <= end:
        whole += 1
    period_start = _add_months(first, whole)
    period_end = _add_months(first, whole + 1)
    fraction = (end - period_start) / (period_end - period_start)
    return whole + fraction
