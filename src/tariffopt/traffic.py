"""CDR ingestion, call classification, and traffic-parameter estimation.

Turns a provider's chronological service printout into the quantities the
cost engine consumes: per-class call rates (calls/month) and call-duration
distributions, either empirical histograms or fitted exponentials.
"""

from __future__ import annotations

import calendar
import csv
import io
import math
from dataclasses import dataclass
from datetime import date, datetime, time
from decimal import Decimal, InvalidOperation
from functools import cached_property
from typing import IO, Iterable, Mapping, Sequence, Union

import numpy as np

from .catalog import (
    ALL_CALL_CLASSES,
    DAY_CLASSES,
    DESTINATION_CLASSES,
    BillingPlan,
    Catalog,
    _read_source,
)

CDR_HEADER = ("date", "time", "number", "zone", "service", "duration", "cost")
KNOWN_SERVICES = ("Tel", "SMS")

#: default truncation horizon for discretized exponential duration models
DEFAULT_TRUNCATION = 240


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


@dataclass(frozen=True)
class ClassifiedCall:
    """A call record routed to a (destination, day) class and billing minute."""

    record: CallRecord
    destination_class: str
    day_class: str
    minute_index: int


def _parse_duration(raw: str, service: str) -> int:
    """Duration column: ``M:SS`` for calls; a bare count for SMS rows."""
    raw = raw.strip()
    if ":" in raw:
        minutes_part, _, seconds_part = raw.partition(":")
        minutes = int(minutes_part)
        seconds = int(seconds_part)
        if minutes < 0 or not 0 <= seconds < 60:
            raise ValueError(f"bad duration {raw!r}")
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


def _fixed_fields(raw: str, sep: str, length: int) -> tuple[int, int, int] | None:
    """The three ints of ``NN<sep>NN<sep>N...`` (`length` ASCII digits and
    separators in all), or None when `raw` has any other form."""
    if len(raw) == length and raw[2] == sep and raw[5] == sep:
        digits = raw[:2] + raw[3:5] + raw[6:]
        # int() would also take non-ASCII digits, which strptime rejects
        if digits.isascii() and digits.isdigit():
            return int(raw[:2]), int(raw[3:5]), int(raw[6:])
    return None


def _parse_date(raw: str) -> date:
    """``DD.MM.YYYY`` as `datetime.strptime` reads it, without its cost."""
    fields = _fixed_fields(raw, ".", 10)
    if fields is not None:
        day, month, year = fields
        try:
            return date(year, month, day)
        except ValueError:
            pass  # strptime words the error
    return datetime.strptime(raw, "%d.%m.%Y").date()


def _parse_time(raw: str) -> time:
    """``HH:MM:SS`` as `datetime.strptime` reads it, without its cost."""
    fields = _fixed_fields(raw, ":", 8)
    if fields is not None:
        try:
            return time(*fields)
        except ValueError:
            pass  # strptime words the error
    return datetime.strptime(raw, "%H:%M:%S").time()


def parse_cdr(
    source: Union[bytes, str, IO],
    strict: bool = False,
    issues: list[str] | None = None,
) -> list[CallRecord]:
    """Parse a semicolon-separated CDR printout into call records.

    Expected header: ``date;time;number;zone;service;duration;cost`` with
    dates as DD.MM.YYYY and costs using either decimal point or comma.
    Malformed rows are skipped (with a note appended to `issues`) unless
    `strict` is set, in which case they raise :class:`CdrError`. Rows with
    an unrecognized service tag are always skipped with a warning.
    """
    text = _read_source(source, CdrError, "CDR")
    if issues is None:
        issues = []

    reader = csv.reader(io.StringIO(text), delimiter=";")
    rows = list(reader)
    if not rows:
        raise CdrError("empty CDR document (missing header)")
    header = tuple(col.strip().lower() for col in rows[0])
    if header != CDR_HEADER:
        raise CdrError(f"unexpected CDR header {rows[0]!r}")

    records: list[CallRecord] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not col.strip() for col in row):
            continue
        try:
            if len(row) != 7:
                raise ValueError(f"expected 7 columns, got {len(row)}")
            day = _parse_date(row[0].strip())
            at = _parse_time(row[1].strip())
            number = row[2].strip()
            zone = row[3].strip()
            service = row[4].strip()
            if service not in KNOWN_SERVICES:
                issues.append(f"line {lineno}: unrecognized service {service!r}, skipped")
                continue
            record = CallRecord(
                date=day,
                time=at,
                number=number,
                zone=zone,
                service=service,
                duration_seconds=_parse_duration(row[5], service),
                cost=_parse_cost(row[6]),
            )
        except ValueError as exc:
            message = f"line {lineno}: {exc}"
            if strict:
                raise CdrError(message) from None
            issues.append(f"{message}, row skipped")
            continue
        records.append(record)
    return records


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

    Numbers with no matching prefix fall back to `other-mobile`;
    `unmapped_count` tallies how often that happened. `mapping` is kept as a
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
        """Load a ``prefix;destination_class`` table.

        An unknown class, an empty prefix, or a prefix listed again with
        another class is an error that names its line.
        """
        text = _read_source(source, CdrError, "prefix table")
        mapping: dict[str, str] = {}
        for lineno, row in enumerate(csv.reader(io.StringIO(text), delimiter=";"), start=1):
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

    def destination_class(self, number: str) -> str:
        for length in self._lengths:
            dest = self._classes.get(number[:length])
            if dest is not None:
                return dest
        self.unmapped_count += 1
        return "other-mobile"


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


def classify(
    record: CallRecord, prefix_table: PrefixTable, calendar: WorkdayCalendar
) -> ClassifiedCall:
    """Route one call record to its (destination, day) class and billing minute.

    The billing minute is the ceiling of the duration in minutes; sub-minute
    calls land in minute 1.
    """
    if record.duration_seconds <= 0:
        raise CdrError("cannot classify a zero-duration call")
    minute_index = max(1, math.ceil(record.duration_seconds / 60))
    return ClassifiedCall(
        record=record,
        destination_class=prefix_table.destination_class(record.number),
        day_class=calendar.day_class(record.date),
        minute_index=minute_index,
    )


def classify_calls(
    records: Iterable[CallRecord],
    prefix_table: PrefixTable,
    calendar: WorkdayCalendar,
    issues: list[str] | None = None,
) -> list[ClassifiedCall]:
    """Classify all outgoing calls, dropping SMS rows and zero-duration calls."""
    calls = []
    dropped = 0
    for record in records:
        if record.service != "Tel":
            continue
        if record.duration_seconds <= 0:
            dropped += 1
            continue
        calls.append(classify(record, prefix_table, calendar))
    if dropped and issues is not None:
        issues.append(f"{dropped} zero-duration call(s) dropped")
    return calls


# --------------------------------------------------------------------------
# duration models


@dataclass(frozen=True)
class Empirical:
    """Per-minute duration distribution given directly as probability masses.

    `masses[t]` is the probability the call is billed in minute t+1. Masses
    may sum to less than 1 (a truncated model keeps its tail implicit); they
    are never renormalized here.
    """

    masses: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "masses", tuple(float(m) for m in self.masses))
        if not self.masses:
            raise ProfileError("empirical model has no mass entries")
        if any(m < 0 for m in self.masses):
            raise ProfileError("negative probability mass")
        if sum(self.masses) > 1 + 1e-9:
            raise ProfileError(f"masses sum to {sum(self.masses)} > 1")

    @property
    def truncation(self) -> int:
        return len(self.masses)

    def mass_array(self) -> np.ndarray:
        return self._mass_array

    @cached_property
    def _mass_array(self) -> np.ndarray:
        masses = np.asarray(self.masses)
        masses.flags.writeable = False  # shared by every call
        return masses


@dataclass(frozen=True)
class Exponential:
    """Exponential call-duration model with rate `mu` (1/minutes).

    Discretized to whole billing minutes, the mass of minute t is
    ``exp(-mu*(t-1)) - exp(-mu*t)``; the tail mass beyond `truncation`
    is ``exp(-mu*truncation)`` and is reported, not redistributed.
    """

    mu: float
    truncation: int = DEFAULT_TRUNCATION

    def __post_init__(self):
        if not (math.isfinite(self.mu) and self.mu > 0):
            raise ProfileError(f"mu must be positive and finite, got {self.mu}")
        if self.truncation < 1:
            raise ProfileError(f"truncation must be >= 1, got {self.truncation}")

    @property
    def mean_minutes(self) -> float:
        return 1.0 / self.mu

    @property
    def tail_mass(self) -> float:
        return math.exp(-self.mu * self.truncation)

    def mass_array(self) -> np.ndarray:
        edges = np.exp(-self.mu * np.arange(self.truncation + 1))
        return edges[:-1] - edges[1:]


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


def fit_exponential(
    durations_minutes: Sequence[float], truncation: int = DEFAULT_TRUNCATION
) -> ExponentialFit:
    """Fit an exponential duration model: mu = 1 / sample mean."""
    values = np.asarray(list(durations_minutes), dtype=float)
    if values.size == 0:
        raise ProfileError("cannot fit an exponential to an empty sample")
    mean = float(values.mean())
    if mean <= 0:
        raise ProfileError("cannot fit an exponential to a zero-mean sample")
    rmsd = float(np.sqrt(np.mean((values - mean) ** 2)))
    return ExponentialFit(
        model=Exponential(mu=1.0 / mean, truncation=truncation),
        sample_mean=mean,
        sample_rmsd=rmsd,
        sample_size=int(values.size),
    )


def build_histogram(calls: Sequence[ClassifiedCall], truncation: int) -> Empirical:
    """Empirical per-minute distribution of billed call minutes.

    Minutes beyond `truncation` accumulate in the last bin, so masses always
    sum to exactly 1.
    """
    if not calls:
        raise ProfileError("cannot build a histogram from zero calls")
    if truncation < 1:
        raise ProfileError(f"truncation must be >= 1, got {truncation}")
    counts = np.zeros(truncation, dtype=float)
    for call in calls:
        counts[min(call.minute_index, truncation) - 1] += 1
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
            j = plan.subgroup_index(cell.destination_class, cell.day_class)
            rates[j] += cell.rate
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
    calls: Sequence[ClassifiedCall],
    catalog: Catalog,
    months: float,
    duration_model: str = "exponential",
    per_class_durations: bool = False,
) -> TrafficProfile:
    """Estimate per-class call rates and duration models from classified calls.

    `duration_model` selects fitted exponentials or empirical histograms;
    by default one shared model serves every class (individual classes
    rarely have enough calls to stand alone). Rates are calls per month
    over the `months`-long observation window.
    """
    if not (math.isfinite(months) and months > 0):
        raise ProfileError(f"months must be positive and finite, got {months}")
    if not calls:
        raise ProfileError("no calls to estimate a profile from")
    if duration_model not in ("exponential", "empirical"):
        raise ProfileError(f"unknown duration model {duration_model!r}")

    by_class: dict[tuple[str, str], list[ClassifiedCall]] = {
        key: [] for key in ALL_CALL_CLASSES
    }
    for call in calls:
        by_class[(call.destination_class, call.day_class)].append(call)

    def _model_for(subset: Sequence[ClassifiedCall]) -> DurationModel | None:
        if not subset:
            return None
        if duration_model == "exponential":
            minutes = [c.record.duration_seconds / 60.0 for c in subset]
            return fit_exponential(minutes).model
        return build_histogram(subset, truncation=max(c.minute_index for c in subset))

    shared = None if per_class_durations else _model_for(calls)
    cells = []
    for (dest, day), subset in by_class.items():
        model = _model_for(subset) if per_class_durations else shared
        cells.append(
            TrafficCell(
                destination_class=dest,
                day_class=day,
                rate=len(subset) / months,
                durations=model,
            )
        )
    profile = TrafficProfile(cells=tuple(cells), observation_months=months)

    # every plan must see the same monthly total, however it splits the calls
    total = profile.total_rate
    for plan in catalog.plans:
        if abs(sum(profile.lambda_for(plan)) - total) > 1e-9 * max(1.0, total):
            raise ProfileError(f"plan {plan.id} does not partition the traffic")
    return profile


def _add_months(day: date, months: int) -> date:
    month_index = day.month - 1 + months
    year = day.year + month_index // 12
    month = month_index % 12 + 1
    last = calendar.monthrange(year, month)[1]
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
