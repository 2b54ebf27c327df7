"""Duration models and traffic-parameter estimation.

Turns classified calls (:class:`tariffopt.classify.CallTable`) into the
quantities the cost engine consumes: per-class call rates (calls/month) and
call-duration distributions, either empirical histograms or fitted
exponentials, held in a :class:`TrafficProfile`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from datetime import date
from functools import cached_property
from itertools import accumulate
from typing import TYPE_CHECKING, Union

import numpy as np

from .catalog import (
    ALL_CALL_CLASSES,
    CALL_CLASS_INDEX,
    DAY_CLASSES,
    DESTINATION_CLASSES,
    BillingPlan,
    Catalog,
    InputError,
    _ordinal,
    _Record,
)

if TYPE_CHECKING:
    from .classify import CallTable


class ProfileError(InputError):
    """Raised when traffic-parameter estimation preconditions fail."""


# --------------------------------------------------------------------------
# duration models


class Empirical(_Record):
    """Per-minute duration distribution given directly as probability masses.

    `masses[t]` is the probability the call is billed in minute t+1. Masses
    may sum to less than 1 (a truncated model keeps its tail implicit); they
    are never renormalized here, and the tail is never billed.
    """

    def __init__(self, masses: tuple[float, ...]):
        vars(self).update(masses=tuple(float(m) for m in masses))
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


class Exponential(_Record):
    """Exponential call-duration model with rate `mu` (1/minutes).

    Discretized to whole billing minutes, the mass of minute t is
    ``exp(-mu*(t-1)) - exp(-mu*t)``. Pricing reads the survival function
    ``exp(-mu*t)`` at any minute, so no mass is cut off.
    """

    def __init__(self, mu: float):
        vars(self).update(mu=mu)
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


class ExponentialFit(_Record):
    """Fitted exponential plus the sample statistics behind it.

    When the exponential assumption is good, `sample_mean` and `sample_rmsd`
    are close (an exponential's mean equals its standard deviation).
    """

    def __init__(self, model: Exponential, sample_mean: float, sample_rmsd: float, sample_size: int):
        vars(self).update(model=model, sample_mean=sample_mean, sample_rmsd=sample_rmsd, sample_size=sample_size)


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


class TrafficCell(_Record):
    """Arrival rate (calls per month) and duration model for one (destination,
    day) class; `call_class`, its index in ``ALL_CALL_CLASSES``, is not a field."""

    def __init__(self, destination_class: str, day_class: str, rate: float, durations: DurationModel | None):
        vars(self).update(destination_class=destination_class, day_class=day_class, rate=rate, durations=durations)
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
        vars(self)["call_class"] = CALL_CLASS_INDEX[self.destination_class, self.day_class]


class TrafficProfile(_Record):
    """Estimated traffic, keyed by call class rather than by plan.

    Any plan's per-subgroup call rates derive from the same cells via that
    plan's routing rules, so every plan sees the same monthly total no
    matter how it partitions the traffic.
    """

    def __init__(self, cells: tuple[TrafficCell, ...], observation_months: float):
        vars(self).update(cells=tuple(cells), observation_months=observation_months)
        if not (math.isfinite(self.observation_months) and self.observation_months > 0):
            raise ProfileError(
                f"observation_months must be positive and finite, got {self.observation_months}"
            )
        seen = set()
        for cell in self.cells:
            if cell.call_class in seen:
                raise ProfileError(f"duplicate traffic cell {ALL_CALL_CLASSES[cell.call_class]}")
            seen.add(cell.call_class)

    @property
    def total_rate(self) -> float:
        """Total calls per month, identical for every plan's subgroup split."""
        return sum(cell.rate for cell in self.cells)

    def lambda_for(self, plan: BillingPlan) -> tuple[float, ...]:
        """Calls/month landing in each of the plan's subgroups, in rule order."""
        rates = [0.0] * len(plan.subgroups)
        for cell in self.cells:
            rates[plan.routes[cell.call_class]] += cell.rate
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
    per month over the `months`-long observation window, which must be long
    enough that no rate overflows. `catalog` is unused: the profile is keyed
    by call class, and every plan routes each class to exactly one subgroup,
    so any plan sees the same monthly total.
    """
    if not (math.isfinite(months) and months > 0):
        raise ProfileError(f"months must be positive and finite, got {months}")
    if not len(calls):
        raise ProfileError("no calls to estimate a profile from")
    if not math.isfinite(len(calls) / months):
        raise ProfileError(f"months {months} is too short: {len(calls)} calls over it overflow the call rate")
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


def _months_on(day: date, months: int) -> int:
    """The ordinal (:meth:`date.toordinal`) of `day` moved on by `months`
    calendar months, its day cut to the month's length. :func:`_ordinal`
    holds past the year 9999, where a `date` does not."""
    year, month = divmod(day.year * 12 + day.month - 1 + months, 12)
    return min(_ordinal(year, month + 1, day.day), _ordinal(year, month + 2, 1) - 1)


def observation_months(first: date, last: date) -> float:
    """Length of the observation window [first, last] in months.

    Whole calendar months counted from `first`; a trailing partial month
    contributes pro-rata by its calendar length.
    """
    if last < first:
        raise ProfileError("observation window ends before it starts")
    end = last.toordinal() + 1  # exclusive end of the window
    # the whole months run to end's month (last's, or the next when last ends
    # its month), less one when first's day of that month comes after end
    whole = (last.year - first.year) * 12 + last.month - first.month
    whole += _months_on(last.replace(day=1), 1) == end
    whole -= _months_on(first, whole) > end
    period_start = _months_on(first, whole)
    return whole + (end - period_start) / (_months_on(first, whole + 1) - period_start)
