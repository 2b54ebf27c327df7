"""Call classification: each outgoing call of a printout, sent to its
(destination, day) class, one index into ``ALL_CALL_CLASSES``.

:func:`classify_calls` reads the columns that :func:`tariffopt.cdr.parse_cdr`
returns, keeps the Tel rows of positive duration (the service column is an
index into ``KNOWN_SERVICES``), looks each distinct number up once in a
:class:`PrefixTable` (one dict probe on its first characters, then a few
``startswith`` checks, which give the class's index in
``DESTINATION_CLASSES``, or -1 for no listed prefix), takes each date's
day class from a :class:`WorkdayCalendar` (a binary search in the
calendar's sorted holidays), and returns the calls as columns of their own
(:class:`CallTable`), which the estimators in :mod:`tariffopt.traffic`
read; a table keeps no reference to its printout.

Loading a prefix table or a holiday list imports no numpy; only the
functions that build columns do.
"""

from __future__ import annotations

from datetime import date
from types import MappingProxyType
from typing import IO, TYPE_CHECKING, Mapping, Union

from .catalog import DAY_CLASSES, DESTINATION_CLASSES, KNOWN_SERVICES, CdrError, _fields, _read_source, _Record

if TYPE_CHECKING:
    import numpy as np

    from .cdr import CallLog


class CallTable(_Record):
    """Classified calls as columns, in printout order: what
    :func:`classify_calls` returns and the estimators read. The columns are
    the table's own arrays, not views of the printout's log. Two tables are
    equal only if they are the same object."""

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        call_class: np.ndarray,  # index into ALL_CALL_CLASSES
        minute: np.ndarray,  # billed minute: the duration in minutes rounded up, at least 1
        date: np.ndarray,  # each call's date, as an ordinal
        duration: np.ndarray,  # each call's duration in seconds
        unmapped: int = 0,  # calls sent to `other-mobile` because no listed prefix matches their number
        zero_length: int = 0,  # Tel rows dropped because their duration is 0
    ):
        vars(self).update(call_class=call_class, minute=minute, date=date, duration=duration, unmapped=unmapped,
                          zero_length=zero_length)

    def __len__(self) -> int:
        return len(self.call_class)


class PrefixTable(_Record):
    """Longest-prefix map from dialed numbers to destination classes.

    :func:`classify_calls` sends a call to a number with no listed prefix to
    `other-mobile` and counts it in `unmapped_count`, the one attribute that
    changes, so a table is not hashable. `mapping` is a read-only view of the
    table's own copy, fixed when the table is built, as is the lookup index.

    The index files each non-empty prefix under its stem, its first
    `_shortest` characters (the length of the shortest prefix), longest
    prefix first, with its class's index in ``DESTINATION_CLASSES`` (a class
    becomes an index once, when the table is built); a lookup probes the
    number's stem once and takes the first of them that the number starts with.
    """

    __hash__ = None

    def __init__(self, mapping: Mapping[str, str], unmapped_count: int = 0):
        classes = dict(mapping)
        for prefix, dest in classes.items():
            if dest not in DESTINATION_CLASSES:
                raise CdrError(f"prefix {prefix!r}: unknown destination class {dest!r}")
        # an empty prefix matches no number, so it leaves the index too
        shortest = min(map(len, filter(None, classes)), default=0)
        stems: dict[str, tuple[tuple[str, int], ...]] = {}
        for prefix in sorted(filter(None, classes), key=len, reverse=True):
            stem = prefix[:shortest]
            stems[stem] = (*stems.get(stem, ()), (prefix, DESTINATION_CLASSES.index(classes[prefix])))
        vars(self).update(mapping=MappingProxyType(classes), unmapped_count=unmapped_count,
                          _shortest=shortest, _stems=stems)

    def __reduce__(self):
        """Pickle and copy through the constructor, as a mappingproxy does not pickle."""
        return type(self), (dict(self.mapping), self.unmapped_count)

    @classmethod
    def from_csv(cls, source: Union[bytes, str, IO]) -> "PrefixTable":
        """Load a ``prefix;destination_class`` table, one entry per line.

        A blank line is skipped, and so is a header line, those two names in
        any case, wherever it stands. An unreadable line, an unknown class,
        an empty prefix, or a prefix listed again with another class is an
        error that names its line.
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
            if len(row) != 2:
                raise CdrError(f"prefix table line {lineno}: expected 2 columns")
            prefix, dest = row[0].strip(), row[1].strip()
            if dest.lower() == "destination_class" and prefix.lower() == "prefix":  # a header, on any line
                continue
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

    def _lookup(self, number: str) -> int:
        """The class index of `number`'s longest listed prefix; -1 when no prefix is listed."""
        for prefix, dest in self._stems.get(number[:self._shortest], ()):
            if number.startswith(prefix):
                return dest
        return -1


class WorkdayCalendar(_Record):
    """Workday/weekend rule; Saturdays, Sundays, and listed holidays are weekends.

    The holidays' ordinals are sorted once, when the calendar is built, and
    end in one past `date.max`'s, which no date reaches, so a binary search
    for any date lands on an entry.
    """

    def __init__(self, holidays: frozenset[date] = frozenset()):
        vars(self).update(holidays=holidays,
                          _ordinals=(*sorted(day.toordinal() for day in holidays), date.max.toordinal() + 1))

    @classmethod
    def from_file(cls, source: Union[bytes, str, IO]) -> "WorkdayCalendar":
        """Load a holiday list, one ``YYYY-MM-DD`` date per line.

        Lines end at ``\\n`` alone, as in the prefix table, so a form feed or
        a Unicode line separator does not shift the line an error names.
        """
        text = _read_source(source, CdrError, "holiday list")
        days = set()
        for lineno, line in enumerate(text.split("\n"), start=1):
            line = line.strip()
            if line and not line.startswith("#"):
                try:
                    day = date.fromisoformat(line)
                    if day.isoformat() != line:  # from Python 3.11 on, 20100308 and week dates parse too
                        raise ValueError(line)
                    days.add(day)
                except ValueError:
                    raise CdrError(f"holiday list line {lineno}: not an ISO date: {line!r}") from None
        return cls(frozenset(days))

    def weekend(self, ordinals: np.ndarray) -> np.ndarray:
        """Whether each date, a proleptic Gregorian ordinal, is a weekend day
        or a holiday; ordinal 1, 0001-01-01, is a Monday. A date is a holiday
        when the first holiday ordinal not below it is its own."""
        import numpy as np

        holidays = np.array(self._ordinals, dtype=np.int64)
        return ((ordinals - 1) % 7 >= 5) | (holidays[np.searchsorted(holidays, ordinals)] == ordinals)


def classify_calls(log: CallLog, prefix_table: PrefixTable, calendar: WorkdayCalendar) -> CallTable:
    """Classify all outgoing calls, dropping SMS rows and zero-duration calls.

    Each call goes to the class of its number's longest listed prefix (each
    distinct number is looked up once, and the table gives the class's
    index, -1 for no listed prefix) and to its date's day class, which
    :meth:`WorkdayCalendar.weekend` tells for all dates at once. A call to an
    unlisted number goes to `other-mobile` and counts in the returned
    `unmapped` and in the prefix table's `unmapped_count`; the returned
    `zero_length` counts the Tel rows dropped. The billing minute is the
    ceiling of the duration in minutes. The table keeps each call's date and
    duration, gathered from `log` once, and not `log` itself. `log` is what
    :func:`parse_cdr` returns.
    """
    import numpy as np

    tel = log.service == KNOWN_SERVICES.index("Tel")
    rows = np.flatnonzero(tel & (log.duration > 0))
    numbers, dates, seconds = log.number[rows], log.date[rows], log.duration[rows]
    per_number = np.bincount(numbers, minlength=len(log.strings))
    codes = np.flatnonzero(per_number)
    found = map(prefix_table._lookup, map(log.strings.__getitem__, codes.tolist()))
    destination = np.zeros(len(log.strings), dtype=np.int64)
    destination[codes] = np.fromiter(found, np.int64, len(codes))
    unlisted = destination < 0
    unmapped = int(per_number[unlisted].sum())
    destination[unlisted] = DESTINATION_CLASSES.index("other-mobile")
    vars(prefix_table)["unmapped_count"] += unmapped  # the one field that changes; assignment is refused
    weekend = calendar.weekend(dates)
    day = np.where(weekend, DAY_CLASSES.index("weekend"), DAY_CLASSES.index("workday"))
    return CallTable(
        call_class=destination[numbers] * len(DAY_CLASSES) + day,
        minute=np.maximum(1, -(-seconds // 60)),
        date=dates,
        duration=seconds,
        unmapped=unmapped,
        zero_length=int(np.count_nonzero(tel)) - len(rows),
    )
