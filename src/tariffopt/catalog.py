"""Billing-plan catalog: plan definitions, validation, serialization, rate lookup.

A catalog document describes every candidate plan: its fixed fees, the rules
that route a call into one of the plan's subgroups, and the per-minute price
schedule each subgroup is billed under. Catalogs are immutable after loading
and safe to share across threads. A catalog is plain data, fees and rates
held as decimals, so loading one imports no numpy: only the per-call billing
arrays (:attr:`PricingTable.by_interval`) do, on first use.

This module is also the base of every input reader and every record: the
input-error classes, `_Record`, the base of every record, the one source reader
(:func:`_read_source`), the `;`-separated field reader, the one calendar formula,
:func:`_ordinal`, that the printout reader and profile estimation share, and
:func:`_shown`, the one short form of a number in a message or a table.
"""

from __future__ import annotations

import csv
import json
import math
from bisect import bisect_right
from decimal import Decimal, InvalidOperation
from functools import cached_property
from operator import itemgetter
from typing import IO, TYPE_CHECKING, Union

if TYPE_CHECKING:
    import numpy as np

DESTINATION_CLASSES = ("same-network", "other-mobile", "landline")
DAY_CLASSES = ("workday", "weekend")
#: the printout's service tags; a printout log's service column indexes them
KNOWN_SERVICES = ("Tel", "SMS")
ANY = "any"

#: every (destination, day) combination a classifier must cover
ALL_CALL_CLASSES = tuple(
    (dest, day) for dest in DESTINATION_CLASSES for day in DAY_CLASSES
)
#: position of each call class in ALL_CALL_CLASSES
CALL_CLASS_INDEX = {call_class: k for k, call_class in enumerate(ALL_CALL_CLASSES)}


class InputError(ValueError):
    """Base of the package's input errors: input it cannot use, as opposed to
    a fault of the engine. The command line exits 1 on these."""


class CatalogError(InputError):
    """Raised when a catalog document is malformed or violates an invariant."""


class CdrError(InputError):
    """Raised for malformed CDR input (fatal only in strict mode), and for a
    malformed prefix table or holiday list."""


def _money(value, what: str) -> Decimal:
    """Parse a ruble amount given as a decimal string or a number.

    Amounts are kept as exact decimals so that ingested values survive
    serialization round-trips without binary-fraction drift.
    """
    try:
        amount = Decimal(str(value))
    except InvalidOperation:
        raise CatalogError(f"{what}: not a decimal amount: {value!r}") from None
    if not amount.is_finite():
        raise CatalogError(f"{what}: non-finite amount: {value!r}")
    if math.isinf(float(amount)):
        raise CatalogError(f"{what}: amount too large for a float: {value!r}")
    return amount


class _Record:
    """Base of every record of the package: an immutable value over its fields,
    which are its constructor's parameters, in order. Its `__init__` checks
    and stores them in one step; the class's `__match_args__` lists them.

    Equality, hash and repr see only those fields, so an attribute derived
    from them and stored beside them (`BillingPlan.routes`) is not one.
    Assigning or deleting any attribute raises AttributeError; a
    :func:`functools.cached_property` still caches, as it writes the
    instance's ``__dict__`` directly.
    """

    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        code = cls.__init__.__code__
        cls.__match_args__ = code.co_varnames[1:code.co_argcount]

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # `self is other` answers as comparing the fields would: a tuple compares identical items as equal
        return self is other or self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class RateSegment(_Record):
    """One row of a price schedule: minutes [from_minute, to_minute] cost `rate`.

    ``to_minute is None`` marks the open tail covering all remaining minutes.
    """

    def __init__(self, from_minute: int, to_minute: int | None, rate: Decimal):
        vars(self).update(from_minute=from_minute, to_minute=to_minute, rate=rate)
        if self.from_minute < 1:
            raise CatalogError(f"segment starts before minute 1: {self.from_minute}")
        if self.to_minute is not None and self.to_minute < self.from_minute:
            raise CatalogError(
                f"segment ends at minute {self.to_minute} before it starts "
                f"at {self.from_minute}"
            )
        if self.rate < 0:
            raise CatalogError(f"negative rate: {self.rate}")

    @property
    def is_open(self) -> bool:
        return self.to_minute is None


class PayoffFunction(_Record):
    """Piecewise-constant price schedule over call minutes.

    Segments must tile [1, infinity): the first starts at minute 1, each
    next one starts right after its predecessor ends, and exactly the last
    segment is open-ended.
    """

    def __init__(self, segments: tuple[RateSegment, ...]):
        vars(self).update(segments=tuple(segments))
        if not self.segments:
            raise CatalogError("payoff function has no segments")
        if self.segments[0].from_minute != 1:
            raise CatalogError(f"segment 1 starts at minute {self.segments[0].from_minute}, not 1")
        for n, (prev, nxt) in enumerate(zip(self.segments, self.segments[1:]), start=1):
            if prev.is_open:
                raise CatalogError(f"segment {n} is open-ended but not the last one")
            if nxt.from_minute != prev.to_minute + 1:
                raise CatalogError(
                    f"segments are not contiguous: minute {prev.to_minute + 1} "
                    f"uncovered before segment {n + 1}, which starts at {nxt.from_minute}"
                )
        if not self.segments[-1].is_open:
            raise CatalogError(f"segment {len(self.segments)}, the last one, must be open-ended")

    @cached_property
    def float_segments(self) -> tuple[tuple[int, int | None, float], ...]:
        """``(from_minute, to_minute, rate)`` of each segment, rate as a float."""
        return tuple((seg.from_minute, seg.to_minute, float(seg.rate)) for seg in self.segments)

    def rate_at(self, minute: int) -> float:
        """Rate charged for a call whose billed duration is `minute`."""
        if minute < 1:
            raise ValueError(f"minute must be >= 1, got {minute}")
        return self.float_segments[bisect_right(self.float_segments, minute, key=itemgetter(0)) - 1][2]


class PricingTable(_Record):
    """A set of payoffs over their shared survival arguments.

    Segment [a, b] weighs its rate by a duration model at ``a - 1`` and
    ``b`` (b None for the open tail). `spans` holds each distinct
    ``(a - 1, b)`` once and `points` the sorted distinct finite arguments.
    Each payoff is kept as ``(column, column, rate)`` per segment, in
    segment order, twice: in `by_point`, the columns of ``a - 1`` and
    ``b`` in `points`; in `by_span`, the segment's span and the column
    after the last span. The open tail's end is the column after the last
    point, so a row over `points` or `spans` with 0 appended prices each
    segment as ``rate * (row[first] - row[second])``. Both map each key of
    the groups the table was built from to its payoffs, in the group's
    order; a payoff listed more than once is the same tuple each time.
    """

    def __init__(
        self, spans: tuple[tuple[int, int | None], ...], points: tuple[int, ...], by_point: dict, by_span: dict
    ):
        vars(self).update(spans=spans, points=points, by_point=by_point, by_span=by_span)

    @classmethod
    def of(cls, groups: dict) -> "PricingTable":
        """Table of `groups`, a dict from any key to a sequence of payoffs;
        each distinct payoff object is converted once, however often it is listed."""
        segments = {id(payoff): payoff.float_segments for payoffs in groups.values() for payoff in payoffs}
        spans = {}
        for payoff in segments.values():
            for a, b, _ in payoff:
                spans.setdefault((a - 1, b), len(spans))
        points = sorted({t for span in spans for t in span if t is not None})
        column = {t: c for c, t in enumerate(points)}
        column[None] = len(points)
        by_point, by_span = {}, {}
        for key, payoff in segments.items():
            by_point[key] = tuple([(column[a - 1], column[b], rate) for a, b, rate in payoff])
            by_span[key] = tuple([(spans[a - 1, b], len(spans), rate) for a, b, rate in payoff])
        return cls(
            spans=tuple(spans),
            points=tuple(points),
            by_point={key: tuple([by_point[id(payoff)] for payoff in payoffs]) for key, payoffs in groups.items()},
            by_span={key: tuple([by_span[id(payoff)] for payoff in payoffs]) for key, payoffs in groups.items()},
        )

    @cached_property
    def by_interval(self) -> tuple[np.ndarray, dict]:
        """`points` as an int64 array, and for each key the ``(from_minute,
        rate, charge before)`` arrays of its payoffs over the intervals of
        `points`, each a (payoff x interval) array, row p for the key's p-th
        payoff; built on first use, each distinct payoff's rows once.

        Interval ``i = points.searchsorted(m)`` holds the minutes m with
        ``points[i-1] < m <= points[i]``. Segment ``(first, second, rate)``
        of `by_point` holds intervals ``first + 1`` to ``second``, and
        interval 0, which holds no minute, goes with the first segment. A
        call of billed minute m is charged ``rate[p, i]`` per lookup, and
        ``before[p, i] + (m - from_minute[p, i] + 1) * rate[p, i]``
        cumulatively, ``before`` being the charge of the whole segments ahead.
        """
        import numpy as np

        points = np.array(self.points, dtype=np.int64)

        def arrays(payoff):
            first, second, rate = (np.array(column) for column in zip(*payoff))
            before = np.concatenate(([0.0], np.cumsum((points[second[:-1]] - points[first[:-1]]) * rate[:-1])))
            counts = second - first
            counts[0] += 1
            return np.repeat(points[first] + 1, counts), np.repeat(rate, counts), np.repeat(before, counts)

        distinct = {id(payoff): payoff for payoffs in self.by_point.values() for payoff in payoffs}
        rows = {key: arrays(payoff) for key, payoff in distinct.items()}
        return points, {
            key: tuple(map(np.stack, zip(*(rows[id(payoff)] for payoff in payoffs))))
            for key, payoffs in self.by_point.items()
        }


class SubgroupRule(_Record):
    """Routing rule for one plan subgroup; `any` wildcards either dimension."""

    def __init__(self, subgroup_name: str, destination_class: str, day_class: str):
        vars(self).update(subgroup_name=subgroup_name, destination_class=destination_class, day_class=day_class)
        if self.destination_class not in DESTINATION_CLASSES + (ANY,):
            raise CatalogError(f"unknown destination class {self.destination_class!r}")
        if self.day_class not in DAY_CLASSES + (ANY,):
            raise CatalogError(f"unknown day class {self.day_class!r}")

    def matches(self, destination_class: str, day_class: str) -> bool:
        return self.destination_class in (ANY, destination_class) and self.day_class in (
            ANY,
            day_class,
        )

    @property
    def is_wildcard(self) -> bool:
        return self.destination_class == ANY and self.day_class == ANY


class FixedCostSpec(_Record):
    """Fee components that do not scale with traffic."""

    def __init__(self, subscription_fee: Decimal, switch_fee: Decimal, purchase_cost: Decimal):
        vars(self).update(subscription_fee=subscription_fee, switch_fee=switch_fee, purchase_cost=purchase_cost)
        for name in self.__match_args__:
            if getattr(self, name) < 0:
                raise CatalogError(f"negative {name}: {getattr(self, name)}")


class BillingPlan(_Record):
    """One tariff offer: fixed fees plus an ordered list of rated subgroups.

    Subgroup rules are applied first-match-wins; together they must cover
    every (destination, day) combination. `routes` holds the index of the
    first rule matching each call class, in :data:`ALL_CALL_CLASSES` order.
    It is built once and is not a field: equality, repr and serialization
    see only the rules.
    """

    def __init__(
        self,
        id: int,
        name: str,
        provider: str,
        active: bool,
        fixed: FixedCostSpec,
        subgroups: tuple[tuple[SubgroupRule, PayoffFunction], ...],
    ):
        vars(self).update(
            id=id, name=name, provider=provider, active=active, fixed=fixed, subgroups=tuple(subgroups)
        )
        if self.id < 1:
            raise CatalogError(f"plan id must be >= 1, got {self.id}")
        if not self.subgroups:
            raise CatalogError(f"plan {self.id} has no subgroups")
        wildcards = sum(rule.is_wildcard for rule, _ in self.subgroups)
        if wildcards > 1:
            raise CatalogError(f"plan {self.id} has {wildcards} catch-all rules")
        names = self.subgroup_names()
        for j, name in enumerate(names):
            if name in names[:j]:
                raise CatalogError(f"plan {self.id} ({self.name!r}) has two subgroups named {name!r}")
        routes = []
        for dest, day in ALL_CALL_CLASSES:
            for j, (rule, _) in enumerate(self.subgroups):
                if rule.matches(dest, day):
                    routes.append(j)
                    break
            else:
                raise CatalogError(
                    f"plan {self.id} ({self.name!r}) leaves ({dest}, {day}) "
                    f"calls with no subgroup"
                )
        vars(self)["routes"] = tuple(routes)

    def subgroup_names(self) -> tuple[str, ...]:
        return tuple(rule.subgroup_name for rule, _ in self.subgroups)


class SubscriberContext(_Record):
    """What the subscriber already has: current plan and owned SIM providers."""

    def __init__(self, current_plan_id: int, owned_sim_providers: frozenset[str] = frozenset()):
        vars(self).update(current_plan_id=current_plan_id, owned_sim_providers=owned_sim_providers)


class Catalog(_Record):
    """The candidate plans and the subscriber's context.

    `pricing` holds every plan's payoffs over the catalog's shared
    breakpoints, keyed by plan id, one per call class: row k is the payoff
    of the subgroup that ``plan.routes[k]`` sends class k to, so billing
    reads no routes. It is built once and is not a field: equality, repr
    and serialization see only the plans.
    """

    def __init__(self, plans: tuple[BillingPlan, ...], context: SubscriberContext):
        vars(self).update(plans=tuple(plans), context=context)
        by_id = {}
        for plan in self.plans:
            if plan.id in by_id:
                raise CatalogError(f"duplicate plan id {plan.id}")
            by_id[plan.id] = plan
        # not fields: equality, repr and serialization see only the plans
        vars(self)["_by_id"] = by_id
        self.check_context(self.context)
        vars(self)["pricing"] = PricingTable.of(
            {plan.id: [plan.subgroups[j][1] for j in plan.routes] for plan in self.plans}
        )

    def check_context(self, context: SubscriberContext) -> None:
        """Raise unless `context`'s current plan is in the catalog."""
        if context.current_plan_id not in self._by_id:
            raise CatalogError(f"current_plan_id {context.current_plan_id} not in catalog")

    def plan(self, plan_id: int) -> BillingPlan:
        try:
            return self._by_id[plan_id]
        except KeyError:
            raise CatalogError(f"unknown plan id {plan_id}") from None

    @property
    def current_plan(self) -> BillingPlan:
        return self._by_id[self.context.current_plan_id]

    def switch_candidates(self, context: SubscriberContext | None = None) -> tuple[BillingPlan, ...]:
        """Plans the subscriber can end up on: active ones plus the current one,
        which is `context`'s (the catalog's own by default).

        An inactive plan stays valid while it is the current plan, but cannot
        be switched to.
        """
        current = (context or self.context).current_plan_id
        return tuple(p for p in self.plans if p.active or p.id == current)


def _read_source(
    source: Union[bytes, str, IO], error: type[ValueError] = CatalogError, what: str = "catalog"
) -> str:
    """Text of a bytes, str or file source, without a leading UTF-8 byte-order
    mark; bytes that are not UTF-8 raise `error`."""
    data = source if isinstance(source, (bytes, str)) else source.read()
    if isinstance(data, str):
        return data.removeprefix("\ufeff")
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise error(f"{what} is not UTF-8 text: {exc}") from None


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


def _ordinal(year, month, day):
    """The proleptic Gregorian ordinal (:meth:`date.toordinal`) of a date, for
    ints or int arrays alike. Years run from March, so a leap day ends its year
    and `(153 * m + 2) // 5` is the days before month m counted from March.
    Months 13 and 14 are the next year's January and February; years past 9999 hold."""
    y = year - (month <= 2)
    return 365 * y + y // 4 - y // 100 + y // 400 + (153 * ((month + 9) % 12) + 2) // 5 + day - 306


def _shown(value: float, spec: str = "") -> str:
    """`value` in the format `spec`, or as ``%.3e`` past 10**15, where a
    fixed format would print every digit."""
    return f"{value:.3e}" if abs(value) > 1e15 else format(value, spec)


def _int(value, what: str) -> int:
    """An integer, an integer-valued number or an integer string; true,
    false and a number with a fraction are not integers."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise CatalogError(f"{what}: not an integer: {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError):
        raise CatalogError(f"{what}: not an integer: {value!r}") from None


#: the largest segment bound: per-call billing (:attr:`PricingTable.by_interval`) holds minutes as int64
MAX_MINUTE = 2**63 - 1

#: what a document value must be, by the Python type `json` reads it as
_JSON_KINDS = {dict: "an object", list: "an array", bool: "true or false", str: "a string"}


def _expect(kind: type, value, what: str):
    """`value` if it is a `kind` (dict, list, bool or str), else a CatalogError naming `what`."""
    if not isinstance(value, kind):
        raise CatalogError(f"{what}: not {_JSON_KINDS[kind]}: {value!r}")
    return value


def _built(where: str, record: type, *fields):
    """`record` over `fields`; a CatalogError it raises names `where`."""
    try:
        return record(*fields)
    except CatalogError as exc:
        raise CatalogError(f"{where}: {exc}") from None


def _parse_segment(raw, where: str) -> RateSegment:
    raw = _expect(dict, raw, where)
    try:
        from_minute = _int(raw["from"], f"{where} from")
        to_raw = raw["to"]
        rate = _money(raw["rate"], f"{where} rate")
    except KeyError as exc:
        raise CatalogError(f"{where}: missing segment field {exc}") from None
    to_minute = None if to_raw == "open" else _int(to_raw, f"{where} to")
    for name, minute in (("from", from_minute), ("to", to_minute)):
        if minute is not None and minute > MAX_MINUTE:
            raise CatalogError(f"{where} {name}: past the largest minute {MAX_MINUTE}: {raw[name]!r}")
    return _built(where, RateSegment, from_minute, to_minute, rate)


def _parse_subgroup(raw, plan_id: int, entry: int) -> tuple[SubgroupRule, PayoffFunction]:
    where = f"plan {plan_id} subgroup {entry}"
    raw = _expect(dict, raw, where)
    try:
        name = _expect(str, raw["name"], f"{where} name")
        where = f"plan {plan_id} subgroup {name!r}"
        destination_class = _expect(str, raw["destination_class"], f"{where} destination_class")
        day_class = _expect(str, raw["day_class"], f"{where} day_class")
        segments = _expect(list, raw["segments"], f"{where} segments")
    except KeyError as exc:
        raise CatalogError(f"{where}: missing field {exc}") from None
    rule = _built(where, SubgroupRule, name, destination_class, day_class)
    segments = tuple(_parse_segment(seg, f"{where} segment {n}") for n, seg in enumerate(segments, start=1))
    return rule, _built(where, PayoffFunction, segments)


def _parse_plan(raw, entry: int) -> BillingPlan:
    raw = _expect(dict, raw, f"plan entry {entry}")
    try:
        plan_id = _int(raw["id"], "plan id")
        name = _expect(str, raw["name"], f"plan {plan_id} name")
        provider = _expect(str, raw["provider"], f"plan {plan_id} provider")
        fixed_raw = _expect(dict, raw["fixed"], f"plan {plan_id} fixed")
        subgroups_raw = _expect(list, raw["subgroups"], f"plan {plan_id} subgroups")
    except KeyError as exc:
        raise CatalogError(f"plan entry missing field {exc}") from None
    active = _expect(bool, raw.get("active", True), f"plan {plan_id} active")
    fees = [_money(fixed_raw.get(name, 0), f"plan {plan_id} {name}") for name in FixedCostSpec.__match_args__]
    fixed = _built(f"plan {plan_id}", FixedCostSpec, *fees)
    return BillingPlan(
        id=plan_id,
        name=name,
        provider=provider,
        active=active,
        fixed=fixed,
        subgroups=tuple(_parse_subgroup(sub, plan_id, n) for n, sub in enumerate(subgroups_raw, start=1)),
    )


def load_catalog(source: Union[bytes, str, IO]) -> Catalog:
    """Parse and validate a JSON catalog document.

    The document has the shape::

        {"plans": [{"id", "name", "provider", "active",
                    "fixed": {"subscription_fee", "switch_fee", "purchase_cost"},
                    "subgroups": [{"name", "destination_class", "day_class",
                                   "segments": [{"from", "to" | "open", "rate"}]}]}],
         "context": {"current_plan_id", "owned_sim_providers"}}

    Fees and rates may be decimal strings or plain numbers. Ids and minutes
    may be integers, integer-valued numbers or integer strings; `active` is
    true or false, and `owned_sim_providers` an array. Names, providers and
    classes are strings. Any other value is a :class:`CatalogError` that
    names its plan and field.
    """
    try:
        doc = json.loads(_read_source(source))
    except ValueError as exc:  # also an integer past int()'s digit limit
        raise CatalogError(f"catalog is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or "plans" not in doc or "context" not in doc:
        raise CatalogError("catalog must be an object with 'plans' and 'context'")
    plans = tuple(_parse_plan(raw, n) for n, raw in enumerate(_expect(list, doc["plans"], "plans"), start=1))
    ctx_raw = _expect(dict, doc["context"], "context")
    try:
        context = SubscriberContext(
            current_plan_id=_int(ctx_raw["current_plan_id"], "current_plan_id"),
            owned_sim_providers=frozenset(
                _expect(str, p, "owned_sim_providers")
                for p in _expect(list, ctx_raw.get("owned_sim_providers", []), "owned_sim_providers")
            ),
        )
    except KeyError as exc:
        raise CatalogError(f"context missing field {exc}") from None
    return Catalog(plans=plans, context=context)


def serialize_catalog(catalog: Catalog) -> str:
    """Render a catalog back to its JSON document form.

    ``load_catalog(serialize_catalog(c))`` compares equal to ``c``.
    """
    doc = {
        "plans": [
            {
                "id": plan.id,
                "name": plan.name,
                "provider": plan.provider,
                "active": plan.active,
                "fixed": {name: str(getattr(plan.fixed, name)) for name in FixedCostSpec.__match_args__},
                "subgroups": [
                    {
                        "name": rule.subgroup_name,
                        "destination_class": rule.destination_class,
                        "day_class": rule.day_class,
                        "segments": [
                            {
                                "from": seg.from_minute,
                                "to": "open" if seg.is_open else seg.to_minute,
                                "rate": str(seg.rate),
                            }
                            for seg in payoff.segments
                        ],
                    }
                    for rule, payoff in plan.subgroups
                ],
            }
            for plan in catalog.plans
        ],
        "context": {
            "current_plan_id": catalog.context.current_plan_id,
            "owned_sim_providers": sorted(catalog.context.owned_sim_providers),
        },
    }
    return json.dumps(doc, indent=2)
