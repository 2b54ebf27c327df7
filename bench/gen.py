"""Seeded input generators for the `bulk-ingest` and `growth-scan` workloads.

Everything here is a pure function of the seed. Input sizes do not depend on
the seed: each bulk-ingest subscriber's rate multipliers and dirty-row counts
come as one fixed profile, and the seed only deals the profiles out, so every
seed gives the same multiset of per-subscriber sizes (and so the same CDR rows,
calls, prefixes and plans), and timings stay comparable across seeds.
"""

from __future__ import annotations

import importlib.util
import json
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path

import numpy as np

from tariffopt import (
    Empirical,
    Exponential,
    TrafficCell,
    TrafficProfile,
    load_catalog,
    serialize_catalog,
)
from tariffopt.catalog import ALL_CALL_CLASSES

ROOT = Path(__file__).resolve().parents[1]


def _load_sample_data():
    """Import demos/make_sample_data.py (its monthly mix and calendar helper)."""
    spec = importlib.util.spec_from_file_location(
        "make_sample_data", ROOT / "demos" / "make_sample_data.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SAMPLE = _load_sample_data()
DEST_OF_MIX = ("same-network", "other-mobile", "landline")  # order of SAMPLE.MIX

# --------------------------------------------------------------------------
# bulk-ingest

BULK_SUBSCRIBERS = 40
_RATES = tuple(round(0.2 + 1.2 * i / (BULK_SUBSCRIBERS - 1), 4) for i in range(BULK_SUBSCRIBERS))
#: per-subscriber traffic multipliers, one per MIX entry, so each subscriber
#: has its own rates and mix; the seed deals these out to the subscribers
RATE_MULTIPLIERS = tuple(
    (_RATES[i], _RATES[7 * i % BULK_SUBSCRIBERS], _RATES[13 * i % BULK_SUBSCRIBERS])
    for i in range(BULK_SUBSCRIBERS)
)
#: dirty rows injected per subscriber: (unknown services, malformed, zero-length,
#: unmapped calls, SMS); dealt out together with RATE_MULTIPLIERS
DIRTY_PATTERNS = ((0, 0, 0, 0, 2), (1, 0, 1, 2, 3), (2, 1, 0, 1, 1), (0, 2, 2, 0, 4), (1, 1, 1, 3, 2))
#: longer prefixes added under the short ones, the same number for every seed
OVERRIDES = 140
UNKNOWN_SERVICES = ("GPRS", "MMS", "USSD", "Roam")
HOLIDAYS = 6


@dataclass
class Subscriber:
    """One synthetic printout and the ground truth the output checks use."""

    sid: int
    cdr: bytes
    months: float
    rows: int  # data rows, header excluded
    class_counts: dict[tuple[str, str], int]  # valid Tel calls per class
    duration_seconds: int  # total over valid Tel calls
    skipped: int  # unknown-service plus malformed rows
    unmapped: int
    zero_length: int


@dataclass
class BulkInputs:
    prefixes_csv: bytes
    holidays_txt: bytes
    subscribers: list[Subscriber] = field(default_factory=list)

    @property
    def rows(self) -> int:
        return sum(s.rows for s in self.subscribers)


def _prefix_table(rng) -> dict[str, str]:
    """Hundreds of prefixes of mixed lengths: region codes plus longer overrides.

    Longer entries remap blocks inside shorter ones (ported numbers), so the
    longest-prefix rule matters for the class of a number.
    """
    table: dict[str, str] = {}
    for dest, (prefixes, _, _) in zip(DEST_OF_MIX, SAMPLE.MIX):
        for p in prefixes:
            table[p] = dest
            table[p[:5]] = dest
    mobile = ("same-network", "other-mobile")
    for code in range(900, 1000):  # +79xx mobile codes
        table.setdefault(f"+7{code}", mobile[code % 2])
    for code in range(400, 500):  # +74xx / +78xx landline areas
        table.setdefault(f"+7{code}", "landline")
    for code in range(810, 870):
        table.setdefault(f"+7{code}", "landline")
    short = sorted(table)
    classes = ("same-network", "other-mobile", "landline")
    while len(table) < len(short) + OVERRIDES:  # 6- to 9-character overrides under existing codes
        base = short[rng.integers(len(short))]
        extra = "".join(str(d) for d in rng.integers(0, 10, rng.integers(1, 5)))
        table.setdefault(base + extra, classes[rng.integers(3)])
    return table


def _lookup(table: dict[str, str], lengths: list[int], number: str):
    for n in lengths:
        dest = table.get(number[:n])
        if dest is not None:
            return dest
    return None


def _number(rng, prefixes: tuple[str, ...]) -> str:
    prefix = prefixes[rng.integers(len(prefixes))]
    digits = "".join(str(d) for d in rng.integers(0, 10, 12 - len(prefix)))
    return prefix + digits


def bulk_ingest(seed: int) -> BulkInputs:
    rng = np.random.default_rng((seed, 1))
    table = _prefix_table(rng)
    lengths = sorted({len(p) for p in table}, reverse=True)
    by_dest = {d: tuple(p for p, c in table.items() if c == d) for d in DEST_OF_MIX}

    days = [d for y, m in SAMPLE.MONTHS for pool in SAMPLE.month_days(y, m) for d in pool]
    workdays = sorted(d for d in days if d.weekday() < 5)
    holidays = set(workdays[i] for i in rng.choice(len(workdays), HOLIDAYS, replace=False))
    prefixes_csv = "prefix;destination_class\n" + "".join(f"{p};{c}\n" for p, c in table.items())
    holidays_txt = "# public holidays\n" + "".join(f"{d.isoformat()}\n" for d in sorted(holidays))
    inputs = BulkInputs(prefixes_csv.encode(), holidays_txt.encode())

    for sid, kind in enumerate(rng.permutation(BULK_SUBSCRIBERS)):
        inputs.subscribers.append(
            _subscriber(rng, sid, RATE_MULTIPLIERS[kind], DIRTY_PATTERNS[kind % len(DIRTY_PATTERNS)],
                        table, lengths, by_dest, holidays)
        )
    return inputs


def _subscriber(rng, sid, multipliers, dirty, table, lengths, by_dest, holidays) -> Subscriber:
    n_unknown, n_malformed, n_zero, n_unmapped, n_sms = dirty
    mean_seconds = SAMPLE.MEAN_MINUTES * 60 * (0.6 + 0.8 * rng.random())
    counts = {key: 0 for key in ALL_CALL_CLASSES}
    total_seconds = 0
    rows = []  # (date, time, number, zone, service, duration, cost)

    def clock():
        return f"{rng.integers(8, 23):02d}:{rng.integers(60):02d}:{rng.integers(60):02d}"

    def add_call(day, number, seconds):
        nonlocal total_seconds
        weekend = day.weekday() >= 5 or day in holidays
        dest = _lookup(table, lengths, number) or "other-mobile"
        if seconds > 0:
            counts[(dest, "weekend" if weekend else "workday")] += 1
            total_seconds += seconds
        cost = "1.000" if weekend else ("3,000" if rng.random() < 0.2 else "3.000")
        rows.append((day, clock(), number, "Moscow", "Tel", f"{seconds // 60}:{seconds % 60:02d}", cost))

    def seconds():
        return max(1, int(round(rng.exponential(mean_seconds))))

    month_pools = [SAMPLE.month_days(y, m) for y, m in SAMPLE.MONTHS]
    for workdays, weekends in month_pools:
        for dest, (_, n_work, n_weekend), mult in zip(DEST_OF_MIX, SAMPLE.MIX, multipliers):
            for pool, base in ((workdays, n_work), (weekends, n_weekend)):
                for _ in range(int(round(base * mult))):
                    add_call(pool[rng.integers(len(pool))], _number(rng, by_dest[dest]), seconds())

    all_days = [d for pool in month_pools for half in pool for d in half]

    def any_day():
        return all_days[rng.integers(len(all_days))]

    for _ in range(n_unmapped):  # no table prefix starts with +780 or +44
        number = _number(rng, ("+7800", "+4420"))
        if _lookup(table, lengths, number) is not None:
            raise RuntimeError(f"generated unmapped number {number} has a prefix")
        add_call(any_day(), number, seconds())
    for _ in range(n_zero):
        add_call(any_day(), _number(rng, by_dest["same-network"]), 0)
    for _ in range(n_sms):
        rows.append((any_day(), clock(), "+79167770001", "", "SMS", "1", "1.652"))
    for i in range(n_unknown):
        rows.append((any_day(), clock(), "+79167770001", "", UNKNOWN_SERVICES[i % 4], "0:10", "0.500"))

    lines = [
        f"{d.strftime('%d.%m.%Y')};{at};{num};{zone};{svc};{dur};{cost}"
        for d, at, num, zone, svc, dur, cost in sorted(rows, key=lambda r: (r[0], r[1]))
    ]
    malformed = (
        "30.02.2010;10:00:00;+79165550001;Moscow;Tel;1:00;3.000",  # no such date
        "02.03.2010;10:00:00;+79165550001;Moscow;Tel;1:75;3.000",  # seconds >= 60
        "02.03.2010;10:00:00;+79165550001;Moscow;Tel;1:00",  # six columns
        "02.03.2010;10:00:00;+79165550001;Moscow;Tel;1:00;3.0.0",  # bad cost
    )
    for i in range(n_malformed):
        lines.insert(int(rng.integers(len(lines) + 1)), malformed[(sid + i) % len(malformed)])
    text = "date;time;number;zone;service;duration;cost\n" + "\n".join(lines) + "\n"
    return Subscriber(
        sid=sid,
        cdr=text.encode(),
        months=float(len(SAMPLE.MONTHS)),
        rows=len(lines),
        class_counts=counts,
        duration_seconds=total_seconds,
        skipped=n_unknown + n_malformed,
        unmapped=n_unmapped,
        zero_length=n_zero,
    )


# --------------------------------------------------------------------------
# growth-scan

GROWTH_SUBSCRIBERS = 12
RANDOM_PLANS = 21
INACTIVE_PLANS = 4
PROVIDERS = ("MTS", "Beeline", "MegaFon", "Tele2")
SUBGROUP_LAYOUTS = (
    (("All Calls", "any", "any"),),
    (("Own Network", "same-network", "any"), ("Other Numbers", "any", "any")),
    (("Work Days", "any", "workday"), ("Weekends", "any", "weekend")),
    (("Landlines", "landline", "any"), ("Own Network Weekends", "same-network", "weekend"),
     ("Other", "any", "any")),
)
#: duration models of one subscriber's six cells, shuffled per subscriber:
#: None is an exponential, a number the bin count of an empirical histogram
CELL_MODELS = (None, None, None, 10, 30, 60)


def _money(x: float) -> str:
    return str(Decimal(str(round(float(x), 3))))


def _segments(rng, n_cuts: int, low: float = 0.0, high: float = 5.0) -> list[tuple[int, int | None, float]]:
    cuts = sorted(int(c) for c in rng.choice(np.arange(1, 40), n_cuts, replace=False))
    starts = [1] + [c + 1 for c in cuts]
    return [(a, e, round(float(rng.uniform(low, high)), 2)) for a, e in zip(starts, cuts + [None])]


def _plan_doc(pid, provider, active, fees, layout, segments) -> dict:
    return {
        "id": pid,
        "name": f"Plan {pid}",
        "provider": provider,
        "active": active,
        "fixed": dict(zip(("subscription_fee", "switch_fee", "purchase_cost"), map(_money, fees))),
        "subgroups": [
            {
                "name": name,
                "destination_class": dest,
                "day_class": day,
                "segments": [
                    {"from": a, "to": "open" if e is None else e, "rate": _money(r)}
                    for a, e, r in segs
                ],
            }
            for (name, dest, day), segs in zip(layout, segments)
        ],
    }


def growth_catalog_doc(rng) -> dict:
    """Random plans plus one promo triple. Layouts, segment counts and the
    number of inactive plans are fixed, so pricing work is the same for every seed."""
    layouts = [SUBGROUP_LAYOUTS[i % 4] for i in rng.permutation(RANDOM_PLANS)]
    n_cuts = iter(rng.permutation(np.arange(sum(map(len, layouts))) % 4))
    inactive = set(rng.choice(RANDOM_PLANS, INACTIVE_PLANS, replace=False) + 1)
    plans = []
    for pid, layout in enumerate(layouts, start=1):
        fees = (rng.uniform(0, 400) * (rng.random() < 0.6), rng.uniform(0, 300), rng.uniform(0, 250))
        # per-minute rates start above the promo rival's highest (0.24), so no
        # near-free random plan can hide the promo triple below; discontinued
        # plans are the pricier ones
        low = 2.0 if pid in inactive else 0.5
        plans.append(_plan_doc(pid, PROVIDERS[rng.integers(4)], pid not in inactive, fees, layout,
                               [_segments(rng, next(n_cuts), low=low) for _ in layout]))
    # a promo triple: a cheap base plan, a high-fee rival at a fifth of its
    # rates, and a plan at their fee/rate midpoint made slightly cheaper. The
    # shared layout and breakpoints make the midpoint plan's variable cost the
    # mean of the other two for every profile, so it is optimal only over a
    # narrow band of k, which often falls between two grid points.
    layout = SUBGROUP_LAYOUTS[0]
    base = [_segments(rng, 2, low=0.4, high=1.2) for _ in layout]
    rival = [[(a, e, round(r * 0.2, 2)) for a, e, r in segs] for segs in base]
    mid = [[(a, e, (r + c) / 2) for (a, e, r), (_, _, c) in zip(x, y)] for x, y in zip(base, rival)]
    fee_lo, fee_hi = rng.uniform(0, 40), rng.uniform(100, 200)
    fee_mid = (fee_lo + fee_hi) / 2 - rng.uniform(0.5, 3.0)
    provider = PROVIDERS[rng.integers(4)]
    for fee, segs in ((fee_lo, base), (fee_hi, rival), (fee_mid, mid)):
        plans.append(_plan_doc(len(plans) + 1, provider, True, (fee, 0, 0), layout, segs))
    owned = sorted(PROVIDERS[i] for i in rng.choice(4, 2, replace=False))
    # a subscriber on a discontinued plan: it stays a candidate until they switch
    current = int(sorted(inactive)[rng.integers(INACTIVE_PLANS)])
    return {"plans": plans, "context": {"current_plan_id": current, "owned_sim_providers": owned}}


def _duration_model(rng, bins: int | None):
    if bins is None:
        return Exponential(mu=float(rng.uniform(0.2, 0.8)))
    weights = rng.exponential(1.0, bins)
    return Empirical(tuple(weights / weights.sum() * 0.999999))


@dataclass
class GrowthInputs:
    catalog_json: str
    profiles: list[TrafficProfile]


def growth_scan(seed: int) -> GrowthInputs:
    rng = np.random.default_rng((seed, 2))
    doc = growth_catalog_doc(rng)
    catalog = load_catalog(json.dumps(doc))
    catalog_json = serialize_catalog(catalog)
    if load_catalog(catalog_json) != catalog:
        raise RuntimeError("generated catalog does not survive serialize/load")
    profiles = []
    for _ in range(GROWTH_SUBSCRIBERS):
        models = [CELL_MODELS[i] for i in rng.permutation(len(CELL_MODELS))]
        cells = tuple(
            TrafficCell(dest, day, float(rng.uniform(0.5, 25.0)), _duration_model(rng, bins))
            for (dest, day), bins in zip(ALL_CALL_CLASSES, models)
        )
        profiles.append(TrafficProfile(cells=cells, observation_months=float(rng.integers(1, 13))))
    return GrowthInputs(catalog_json, profiles)
