"""Monte-Carlo billing oracle.

Generates random months of traffic from the profile's own traffic cells
(:class:`~tariffopt.traffic.TrafficCell`: Poisson call counts, exponential
durations) and bills every generated call under each switch candidate's
payoff for its class, read from the catalog's class-indexed table as the
pricing kernel reads it. Sample means validate the analytic engine; sample
percentiles (:data:`PERCENTILES`) describe the month-to-month cost spread.
A config holds only the cells with traffic; stream `i` of each chunk draws
the i-th of them, however the config was built.

Months are drawn in fixed chunks. A chunk's budget is :data:`CHUNK_CALLS`
calls, each month counted at a bound about 9 standard deviations above its
mean call count; so its run count (:func:`chunk_runs`, at most
:data:`CHUNK_RUNS`) falls as the cells' call rates rise, and it is a pure
function of the config. A config whose month alone exceeds the budget is
rejected. Every (chunk, cell) pair has its own stream keyed by (seed,
chunk, cell), so seeded output is byte-identical across reruns and
independent of scheduling.

Each cell of a chunk is drawn, billed under every plan and dropped before
the next cell is drawn, and the statistics are taken in place. So an oracle
run holds one (plans x runs) float64 totals array plus the arrays of one
cell of one chunk, whatever the run count or the call rate.
"""

from __future__ import annotations

import json
import math
import operator
from typing import Iterator, Sequence

import numpy as np

from .catalog import BillingPlan, Catalog, InputError, _Record, _shown
from .classify import CallTable
from .cost import BILLING_MODES, LOOKUP, check_billing_mode
from .traffic import Exponential, TrafficCell, TrafficProfile


class SimulationError(InputError):
    """Raised for invalid simulation configurations."""


#: most simulated months one run takes; a mistyped run count fails before the
#: (plans x runs) totals are allocated
MAX_RUNS = 10**7
#: most simulated months per chunk; each (chunk, cell) pair has its own stream
CHUNK_RUNS = 4096
#: the percentiles of each plan's monthly cost that a run reports
PERCENTILES = (5, 50, 95)
#: most calls one chunk budgets for: CHUNK_RUNS months of the bundled
#: profile's cells, whose bounds come to 209 calls per month
CHUNK_CALLS = CHUNK_RUNS * 209


def _cell_calls(rate: float) -> int:
    """Calls budgeted per month for a cell of this monthly call rate: about
    9 standard deviations above the Poisson mean."""
    return max(8, int(rate + 9.0 * math.sqrt(rate) + 8))


def _month_calls(cells: Sequence[TrafficCell]) -> int:
    """Calls budgeted per month over the cells."""
    return sum(_cell_calls(cell.rate) for cell in cells)


class SimConfig(_Record):
    """A seeded oracle run. It keeps only the given cells with traffic, each
    of which needs an :class:`Exponential` duration model; the i-th of them
    draws its calls from stream `i` of each chunk."""

    def __init__(self, seed: int, runs: int, cells: tuple[TrafficCell, ...], billing_mode: str = LOOKUP):
        cells = tuple(cell for cell in cells if cell.rate)
        for name, value in (("seed", seed), ("runs", runs)):
            if isinstance(value, bool) or not hasattr(type(value), "__index__"):
                raise SimulationError(f"{name} must be an integer, got {value!r}")
        vars(self).update(seed=operator.index(seed), runs=operator.index(runs), cells=cells,
                          billing_mode=billing_mode)
        if not 0 <= self.seed < 2**64:
            raise SimulationError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if not 1 <= self.runs <= MAX_RUNS:
            raise SimulationError(f"runs must be between 1 and {MAX_RUNS}, got {self.runs}")
        if self.billing_mode not in BILLING_MODES:
            raise SimulationError(f"unknown billing mode {self.billing_mode!r}")
        for cell in self.cells:
            if not isinstance(cell.durations, Exponential):
                raise SimulationError(
                    f"cell ({cell.destination_class}, {cell.day_class}) has no "
                    f"exponential duration model to simulate from"
                )
        calls = _month_calls(self.cells)
        if calls > CHUNK_CALLS:
            raise SimulationError(
                f"traffic too busy to simulate: a month is bounded at {_shown(calls)} "
                f"calls, over the chunk budget of {CHUNK_CALLS} calls"
            )

    @classmethod
    def from_profile(
        cls,
        profile: TrafficProfile,
        seed: int,
        runs: int,
        billing_mode: str = LOOKUP,
    ) -> "SimConfig":
        """Simulation config over the profile's cells that have traffic."""
        return cls(seed=seed, runs=runs, cells=profile.cells, billing_mode=billing_mode)


class PlanSample(_Record):
    """Monthly variable-cost sample statistics for one plan; `percentiles`
    are those of :data:`PERCENTILES`, in order."""

    def __init__(self, plan_id: int, mean: float, stddev: float, stderr: float,
                 percentiles: tuple[float, float, float]):
        vars(self).update(plan_id=plan_id, mean=mean, stddev=stddev, stderr=stderr, percentiles=percentiles)


class SimResult(_Record):
    def __init__(self, seed: int, runs: int, billing_mode: str, plans: tuple[PlanSample, ...]):
        vars(self).update(seed=seed, runs=runs, billing_mode=billing_mode, plans=plans)

    def document(self) -> dict:
        """This result as plain dicts, lists and numbers, ready for JSON."""
        return {
            **vars(self),
            "plans": [{**vars(p), "percentiles": dict(zip(map(str, PERCENTILES), p.percentiles))} for p in self.plans],
        }

    def to_json(self) -> str:
        return json.dumps(self.document(), indent=2)


def chunk_runs(config: SimConfig) -> int:
    """Months per chunk: as many as fit :data:`CHUNK_CALLS` calls at the
    config's bound per month, at most :data:`CHUNK_RUNS`."""
    return min(CHUNK_RUNS, CHUNK_CALLS // max(1, _month_calls(config.cells)))


def substream(seed: int, chunk_index: int, cell_index: int) -> np.random.Generator:
    """Independent RNG stream for one (chunk, cell) pair of a seeded run."""
    return np.random.default_rng((seed, chunk_index, cell_index))


def generate_months(
    cell: TrafficCell, runs: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Call counts and durations (real minutes) of `runs` simulated months.

    Each month's call count is one Poisson draw at the cell's monthly rate;
    the durations of all months follow in one draw, concatenated in run
    order.
    """
    counts = rng.poisson(cell.rate, runs)
    return counts, rng.exponential(1.0 / cell.durations.mu, int(counts.sum()))


def _bill(
    catalog: Catalog, plans: Sequence[BillingPlan], k: int | np.ndarray, minutes: np.ndarray, mode: str
) -> Iterator[np.ndarray]:
    """Per-call charges of billed `minutes` under each plan, plans in order.
    `k` indexes ALL_CALL_CLASSES: one class for every minute, or an array of
    one class per minute. The minutes are searched once, and each call's
    (class, interval) cell becomes one flat index into every plan's
    (class x interval) arrays (:attr:`~tariffopt.catalog.PricingTable.by_interval`),
    which are C-contiguous, so a plan's charges are one `take` per array."""
    points, tables = catalog.pricing.by_interval
    at = np.multiply(k, points.size + 1) + points.searchsorted(minutes)
    for plan in plans:
        start, rate, before = tables[plan.id]
        if mode == LOOKUP:
            yield rate.take(at)
        else:
            yield before.take(at) + (minutes - start.take(at) + 1) * rate.take(at)


def run(config: SimConfig, catalog: Catalog) -> SimResult:
    """Simulate monthly traffic and bill it against every switch candidate.

    Runs are generated in chunks of :func:`chunk_runs` months. Within a
    chunk each cell's calls are drawn, billed under every plan and dropped
    before the next cell is drawn, cells in order, so each plan's totals add
    up class by class as the cells come. A plan whose mean, standard
    deviation or percentiles overflow is a :class:`SimulationError`.
    """
    runs, size = config.runs, chunk_runs(config)
    plans = catalog.switch_candidates()
    totals = np.zeros((len(plans), runs))
    with np.errstate(over="ignore", invalid="ignore"):
        for chunk, lo in enumerate(range(0, runs, size)):
            n = min(size, runs - lo)
            for ci, cell in enumerate(config.cells):
                counts, minutes = generate_months(cell, n, substream(config.seed, chunk, ci))
                np.ceil(minutes, out=minutes)
                np.maximum(minutes, 1, out=minutes)
                minutes = minutes.astype(np.int64)
                run_ids = np.repeat(np.arange(n), counts)
                for pi, costs in enumerate(_bill(catalog, plans, cell.call_class, minutes, config.billing_mode)):
                    totals[pi, lo : lo + n] += np.bincount(run_ids, weights=costs, minlength=n)
                    del costs  # free before the next plan's costs are drawn
                del minutes, run_ids  # free before the next cell is drawn

        means = totals.mean(axis=1).tolist()
        # row by row: each contiguous row sums pairwise as along axis 1, without
        # a (plans x runs) array of deviations
        stddevs = [float(row.std(ddof=1)) for row in totals] if runs > 1 else [0.0] * len(plans)
        # last: partitioning in place reorders each row
        percentiles = np.percentile(totals, PERCENTILES, axis=1, overwrite_input=True).T.tolist()
    samples = []
    for plan, mean, stddev, p in zip(plans, means, stddevs, percentiles):
        if not all(map(math.isfinite, (mean, stddev, *p))):
            raise SimulationError(f"plan {plan.id} ({plan.name!r}): its simulated monthly cost statistics overflow")
        samples.append(
            PlanSample(
                plan_id=plan.id,
                mean=mean,
                stddev=stddev,
                stderr=stddev / math.sqrt(runs),
                percentiles=tuple(p),
            )
        )
    return SimResult(seed=config.seed, runs=config.runs, billing_mode=config.billing_mode, plans=tuple(samples))


def replay_trace(
    catalog: Catalog,
    calls: CallTable,
    months: float,
    mode: str = LOOKUP,
) -> dict[int, float]:
    """Bill the historical call trace through every switch candidate:
    rubles/month per plan.

    A model-free cross-check of both the analytic engine and the synthetic
    generator. Each plan bills all the calls in one gather on its
    (call class x interval) table and one sum.
    """
    check_billing_mode(mode)
    if not (math.isfinite(months) and months > 0):
        raise SimulationError(f"months must be positive and finite, got {months}")
    plans = catalog.switch_candidates()
    bills = _bill(catalog, plans, calls.call_class, calls.minute, mode)
    return {plan.id: float(costs.sum()) / months for plan, costs in zip(plans, bills)}
