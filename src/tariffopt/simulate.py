"""Monte-Carlo billing oracle.

Generates random months of traffic (exponential inter-arrival gaps, so call
counts are Poisson; exponential durations) and pushes every generated call
through each switch candidate's price schedule. Sample means validate the
analytic engine; sample percentiles describe the month-to-month cost spread.

Months are drawn in fixed chunks of :data:`CHUNK_RUNS`. Every (chunk, cell)
pair has its own stream keyed by (seed, chunk, cell), so seeded output is
byte-identical across reruns and independent of scheduling, and memory is
bounded by one chunk's calls rather than growing with the run count. These
keys replaced per-(run, cell) streams, which changed every seeded number
once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .catalog import BillingPlan, Catalog, PayoffFunction
from .cost import BILLING_MODES, LOOKUP
from .traffic import ClassifiedCall, Exponential, TrafficProfile


class SimulationError(ValueError):
    """Raised for invalid simulation configurations."""


@dataclass(frozen=True)
class SimCell:
    """Traffic generator for one call class: arrival and duration rates."""

    destination_class: str
    day_class: str
    calls_per_month: float
    duration_rate: float  # mu, 1/minutes

    def __post_init__(self):
        if self.calls_per_month < 0:
            raise SimulationError(f"negative call rate {self.calls_per_month}")
        if not self.duration_rate > 0:
            raise SimulationError(f"duration rate must be positive, got {self.duration_rate}")


@dataclass(frozen=True)
class SimConfig:
    seed: int
    runs: int
    cells: tuple[SimCell, ...]
    billing_mode: str = LOOKUP

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(self.cells))
        if not 0 <= self.seed < 2**64:
            raise SimulationError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.runs < 1:
            raise SimulationError(f"runs must be >= 1, got {self.runs}")
        if self.billing_mode not in BILLING_MODES:
            raise SimulationError(f"unknown billing mode {self.billing_mode!r}")

    @classmethod
    def from_profile(
        cls,
        profile: TrafficProfile,
        seed: int,
        runs: int,
        billing_mode: str = LOOKUP,
    ) -> "SimConfig":
        """Simulation config matching an exponential-duration traffic profile."""
        cells = []
        for cell in profile.cells:
            if cell.rate == 0:
                continue
            if not isinstance(cell.durations, Exponential):
                raise SimulationError(
                    f"cell ({cell.destination_class}, {cell.day_class}) has no "
                    f"exponential duration model to simulate from"
                )
            cells.append(
                SimCell(
                    destination_class=cell.destination_class,
                    day_class=cell.day_class,
                    calls_per_month=cell.rate,
                    duration_rate=cell.durations.mu,
                )
            )
        return cls(seed=seed, runs=runs, cells=tuple(cells), billing_mode=billing_mode)


@dataclass(frozen=True)
class PlanSample:
    """Monthly variable-cost sample statistics for one plan."""

    plan_id: int
    mean: float
    stddev: float
    stderr: float
    percentiles: tuple[float, float, float]  # 5th, 50th, 95th


@dataclass(frozen=True)
class SimResult:
    seed: int
    runs: int
    billing_mode: str
    plans: tuple[PlanSample, ...]

    def to_json(self) -> str:
        doc = {
            "seed": self.seed,
            "runs": self.runs,
            "billing_mode": self.billing_mode,
            "plans": [
                {
                    "plan_id": p.plan_id,
                    "mean": p.mean,
                    "stddev": p.stddev,
                    "stderr": p.stderr,
                    "percentiles": {
                        "5": p.percentiles[0],
                        "50": p.percentiles[1],
                        "95": p.percentiles[2],
                    },
                }
                for p in self.plans
            ],
        }
        return json.dumps(doc, indent=2)


#: simulated months per chunk; each (chunk, cell) pair has its own stream
CHUNK_RUNS = 4096


def substream(seed: int, chunk_index: int, cell_index: int) -> np.random.Generator:
    """Independent RNG stream for one (chunk, cell) pair of a seeded run."""
    return np.random.default_rng((seed, chunk_index, cell_index))


def generate_months(
    cell: SimCell, runs: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Call counts and durations (real minutes) of `runs` simulated months.

    Each month is one row of exponential inter-arrival gaps, accumulated
    until the month is full, so the call count is Poisson with the cell's
    monthly rate. Rows whose block of gaps ends before the month does are
    extended from the same stream, in row order. The durations of all
    months follow in one draw, concatenated in run order.
    """
    lam = cell.calls_per_month
    if lam == 0:
        return np.zeros(runs, dtype=np.int64), np.empty(0)
    block = max(8, int(lam + 9.0 * math.sqrt(lam) + 8))
    arrivals = rng.exponential(1.0 / lam, (runs, block))
    np.cumsum(arrivals, axis=1, out=arrivals)
    counts = np.count_nonzero(arrivals < 1.0, axis=1)
    for r in np.flatnonzero(arrivals[:, -1] < 1.0):
        last = arrivals[r, -1]
        while last < 1.0:
            more = last + np.cumsum(rng.exponential(1.0 / lam, block))
            counts[r] += np.count_nonzero(more < 1.0)
            last = more[-1]
    return counts, rng.exponential(1.0 / cell.duration_rate, int(counts.sum()))


def _bill_minutes(payoff: PayoffFunction, minutes: np.ndarray, mode: str) -> np.ndarray:
    if mode == LOOKUP:
        return payoff.rates(minutes)
    return payoff.cumulative(minutes)


def bill_call(payoff: PayoffFunction, duration_minutes: float, mode: str = LOOKUP) -> float:
    """Price one call: look up (or accumulate up to) its final billed minute."""
    if mode not in BILLING_MODES:
        raise ValueError(f"unknown billing mode {mode!r}")
    if not duration_minutes > 0:
        raise ValueError(f"duration must be positive, got {duration_minutes}")
    minute = max(1, math.ceil(duration_minutes))
    return float(_bill_minutes(payoff, np.array([minute]), mode)[0])


def _bill_classes(
    plans: Sequence[BillingPlan],
    classes: Sequence[tuple[str, str, np.ndarray]],
    mode: str,
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Price each call class's billed minutes under each plan's subgroup.

    `classes` holds (destination, day, billed minutes) triples; yields
    (plan index, class index, per-call costs), plan by plan, classes in order.
    """
    for pi, plan in enumerate(plans):
        for ci, (destination, day, minutes) in enumerate(classes):
            payoff = plan.subgroups[plan.subgroup_index(destination, day)][1]
            yield pi, ci, _bill_minutes(payoff, minutes, mode)


def run(config: SimConfig, catalog: Catalog) -> SimResult:
    """Simulate monthly traffic and bill it against every switch candidate.

    Runs are generated in chunks of :data:`CHUNK_RUNS`; each chunk's calls
    are billed and dropped before the next chunk is drawn.
    """
    runs = config.runs
    plans = catalog.switch_candidates()
    totals = np.zeros((len(plans), runs))
    for chunk, lo in enumerate(range(0, runs, CHUNK_RUNS)):
        n = min(CHUNK_RUNS, runs - lo)
        classes, run_ids = [], []
        for ci, cell in enumerate(config.cells):
            counts, durations = generate_months(cell, n, substream(config.seed, chunk, ci))
            minutes = np.maximum(1, np.ceil(durations)).astype(np.int64)
            classes.append((cell.destination_class, cell.day_class, minutes))
            run_ids.append(np.repeat(np.arange(n), counts))
        for pi, ci, costs in _bill_classes(plans, classes, config.billing_mode):
            totals[pi, lo : lo + n] += np.bincount(run_ids[ci], weights=costs, minlength=n)

    samples = []
    for plan, plan_totals in zip(plans, totals):
        stddev = float(plan_totals.std(ddof=1)) if runs > 1 else 0.0
        p5, p50, p95 = np.percentile(plan_totals, [5, 50, 95])
        samples.append(
            PlanSample(
                plan_id=plan.id,
                mean=float(plan_totals.mean()),
                stddev=stddev,
                stderr=stddev / math.sqrt(runs),
                percentiles=(float(p5), float(p50), float(p95)),
            )
        )
    return SimResult(
        seed=config.seed,
        runs=config.runs,
        billing_mode=config.billing_mode,
        plans=tuple(samples),
    )


def replay_trace(
    catalog: Catalog,
    calls: Sequence[ClassifiedCall],
    months: float,
    mode: str = LOOKUP,
) -> dict[int, float]:
    """Bill the historical call trace through every switch candidate:
    rubles/month per plan.

    A model-free cross-check of both the analytic engine and the synthetic
    generator. Calls are grouped by (destination, day) class once, and each
    class is billed per plan in one vectorised pass.
    """
    if not (math.isfinite(months) and months > 0):
        raise SimulationError(f"months must be positive and finite, got {months}")
    grouped: dict[tuple[str, str], list[int]] = {}
    for call in calls:
        grouped.setdefault((call.destination_class, call.day_class), []).append(call.minute_index)
    classes = [(dest, day, np.array(m, dtype=np.int64)) for (dest, day), m in grouped.items()]
    plans = catalog.switch_candidates()
    totals = [0.0] * len(plans)
    for pi, _, costs in _bill_classes(plans, classes, mode):
        totals[pi] += float(costs.sum())
    return {plan.id: total / months for plan, total in zip(plans, totals)}
