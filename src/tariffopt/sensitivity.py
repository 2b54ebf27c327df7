"""Traffic-growth sensitivity: cost sweeps over a traffic multiplier,
switch-point detection, and polynomial regression of the cost curves.

Every plan's full cost is affine in the traffic multiplier k (fixed fees do
not scale), so the optimal-cost curve is the lower envelope of the plans'
cost lines, and its breakpoints are exactly where the best plan changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .catalog import Catalog, SubscriberContext
from .cost import LOOKUP, cost_lines
from .traffic import ProfileError, TrafficProfile


@dataclass(frozen=True)
class SweepPoint:
    """The optimum and the stay-put cost at one traffic multiplier.

    `lines` maps each candidate's id to its cost line ``(fixed, variable)``,
    in :func:`~tariffopt.cost.full_costs`' order; every point of one sweep
    shares the one mapping.
    """

    k: float
    optimal_plan_id: int
    optimal_full_cost: float
    stay_cost: float  # full cost of keeping the current plan
    current_plan_id: int
    lines: dict[int, tuple[float, float]]

    def __post_init__(self):
        if self.optimal_full_cost > self.stay_cost + 1e-9:
            raise ValueError(
                f"optimal cost {self.optimal_full_cost} above stay cost "
                f"{self.stay_cost} at k={self.k}"
            )

    @property
    def plan_costs(self) -> dict[int, float]:
        """Every candidate's full cost ``variable * k + fixed`` at this point."""
        return {pid: variable * self.k + fixed for pid, (fixed, variable) in self.lines.items()}


@dataclass(frozen=True)
class SwitchInterval:
    """Maximal k-range over which one plan stays optimal."""

    k_start: float
    k_end: float
    plan_id: int


@dataclass(frozen=True)
class RegressionFit:
    degree: int
    intercept: bool
    coefficients: tuple[float, ...]  # constant term first when intercept is set
    r_squared: float

    def __post_init__(self):
        expected = self.degree + (1 if self.intercept else 0)
        if len(self.coefficients) != expected:
            raise ValueError(
                f"degree-{self.degree} fit needs {expected} coefficients, "
                f"got {len(self.coefficients)}"
            )


#: most points :func:`k_grid` builds; a mistyped step fails before any list
#: is allocated
MAX_GRID_POINTS = 10**6


def k_grid(start: float = 0.5, stop: float = 10.0, step: float = 0.5) -> list[float]:
    """Inclusive multiplier grid, built without floating-point drift.

    Each point is rounded to 12 decimals, so a step below that resolution
    would repeat points; such a grid, and one of more than
    :data:`MAX_GRID_POINTS` points, is a :class:`ProfileError`.
    """
    if not (0 < start <= stop < math.inf and 0 < step < math.inf):
        raise ProfileError(f"bad grid spec start={start} stop={stop} step={step}")
    steps = (stop - start) / step + 1e-9  # inf when step is tiny
    if steps >= MAX_GRID_POINTS:
        raise ProfileError(
            f"grid from {start} to {stop} by {step} has more than {MAX_GRID_POINTS} points"
        )
    grid = [round(start + i * step, 12) for i in range(int(steps) + 1)]
    if len(set(grid)) < len(grid):
        raise ProfileError(f"grid step {step} is too fine: points rounded to 12 decimals coincide")
    return grid


def sweep(
    catalog: Catalog,
    context: SubscriberContext,
    profile: TrafficProfile,
    grid: Sequence[float],
    mode: str = LOOKUP,
) -> list[SweepPoint]:
    """Read every candidate's cost line from one pricing
    (:func:`~tariffopt.cost.cost_lines`), then evaluate the lines
    ``fixed + k * variable`` as one (plans x grid) array. Right after
    :func:`~tariffopt.cost.full_costs` or another sweep on the same catalog,
    profile, context and mode, that pricing is the one they made.

    Each point's optimum is the first minimum of its column, with the rows
    taken in :func:`rank`'s tie order (the current plan, then ascending id),
    so it is the plan ``rank`` picks from the same costs. Fees and variable
    costs are never negative, so the grid's last k holds every plan's
    largest cost; a cost that overflows there is a :class:`ProfileError`.
    """
    if not grid:
        raise ProfileError("empty multiplier grid")
    ks = np.array(grid, dtype=float)
    if not np.isfinite(ks).all():
        bad = next(k for k in grid if not math.isfinite(k))
        raise ProfileError(f"traffic multiplier must be finite, got {bad}")
    if list(grid) != sorted(grid):
        raise ProfileError("multiplier grid must be sorted")
    if grid[0] <= 0:
        raise ProfileError(f"traffic multiplier must be positive, got {grid[0]}")
    lines = {pid: (fixed, variable) for pid, fixed, variable in cost_lines(catalog, context, profile, mode)}
    ids = list(lines)
    stay = ids.index(context.current_plan_id)
    tie_order = np.array(sorted(range(len(ids)), key=lambda i: (i != stay, ids[i])))
    fixed, variable = np.array(list(lines.values())).T
    with np.errstate(over="ignore"):
        costs = variable[:, None] * ks + fixed[:, None]
    if not np.isfinite(costs[:, -1]).all():
        raise ProfileError(f"plan costs overflow at traffic multiplier {grid[-1]}")
    optimal = tie_order[costs[tie_order].argmin(axis=0)]
    best_costs = costs[optimal, np.arange(ks.size)]
    return [
        SweepPoint(k, ids[best], best_cost, stay_cost, ids[stay], lines)
        for k, best, best_cost, stay_cost in zip(
            ks.tolist(), optimal.tolist(), best_costs.tolist(), costs[stay].tolist()
        )
    ]


#: crossings closer than this to each other or to the grid's ends, relative
#: to the grid's largest |k|, are one point: where three or more lines meet,
#: the rounding of each crossing would otherwise leave slivers up to ~1e-12
#: wide for the lines that only touch the envelope there
_TOUCH = 1e-9


def switch_points(points: Sequence[SweepPoint]) -> list[SwitchInterval]:
    """Exact breakpoints of the lower envelope of the plans' cost lines.

    The walk reads the sweep's exact lines (``SweepPoint.lines``). From the
    optimum at the first point, it moves to the line that first undercuts
    the one it is on, and lines that only touch the envelope there get no
    interval. Of the lines that undercut it at one crossing, the one first
    in :func:`rank`'s order past that crossing wins: the flattest, then the
    cheapest, then the current plan, then the lowest id.
    """
    if not points:
        return []
    first, last = points[0], points[-1]
    lines, current = first.lines, first.current_plan_id
    touch = _TOUCH * max(1.0, abs(first.k), abs(last.k))
    plan_id, start, intervals = first.optimal_plan_id, first.k, []
    while True:
        fixed, slope = lines[plan_id]
        below = [((f - fixed) / (slope - v), v, f, pid) for pid, (f, v) in lines.items() if v < slope]
        crossing = min((c for c, *_ in below), default=math.inf)
        if crossing >= last.k - touch:
            intervals.append(SwitchInterval(start, last.k, plan_id))
            return intervals
        if crossing > start + touch:
            intervals.append(SwitchInterval(start, crossing, plan_id))
            start = crossing
        *_, plan_id = min((v, f, pid != current, pid) for c, v, f, pid in below if c <= crossing + touch)


def _powers(x: np.ndarray, degree: int) -> np.ndarray:
    """The columns ``x**0 ... x**degree``, one row per point."""
    return np.column_stack([x**p for p in range(degree + 1)])


def _span(powers: np.ndarray) -> str:
    """The range of k that `powers` (see :func:`_powers`) was built over."""
    k = powers[:, 1]
    return f"grid from k={k.min()} to k={k.max()}"


class _Series:
    """A response vector with the sums of squares its fits need, each
    computed once."""

    def __init__(self, y: np.ndarray):
        self.y = y
        self.ss = float(y @ y)

    @cached_property
    def ss_centered(self) -> float:
        centered = self.y - self.y.mean()
        return float(centered @ centered)


def _fit(powers: np.ndarray, series: _Series, degree: int, intercept: bool) -> RegressionFit:
    """Least-squares fit of `series` on the columns of `powers` (see
    :func:`_powers`) up to `degree`, from column 0 with an intercept and
    from column 1 without."""
    # C-contiguous, as np.column_stack builds it: `design @ coef` must sum
    # in the same order whichever caller built the columns
    design = np.ascontiguousarray(powers[:, (0 if intercept else 1) : degree + 1])
    y = series.y
    coef, _, rank_, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank_ < design.shape[1]:
        raise ProfileError(
            f"{_span(powers)} cannot be fitted to degree {degree}: its powers of k are "
            "numerically dependent (rank-deficient design matrix)"
        )
    residuals = y - design @ coef
    ss_res = float(residuals @ residuals)
    ss_tot = series.ss_centered if intercept else series.ss
    if ss_tot <= 1e-12 * max(1.0, series.ss):
        r_squared = 0.0  # constant response: no variance to explain
    else:
        r_squared = 1.0 - ss_res / ss_tot
    return RegressionFit(
        degree=degree,
        intercept=intercept,
        coefficients=tuple(float(c) for c in coef),
        r_squared=r_squared,
    )


#: model forms fitted by :func:`fit_report`
FIT_FORMS = (
    ("stay_linear_origin", "stay", 1, False),
    ("optimal_linear_origin", "optimal", 1, False),
    ("optimal_linear", "optimal", 1, True),
    ("optimal_quadratic", "optimal", 2, True),
    ("optimal_cubic", "optimal", 3, True),
)


def fit_report(points: Sequence[SweepPoint]) -> dict[str, RegressionFit]:
    """Regress the stay-put and optimally-switched cost curves against k.

    The stay curve gets a through-origin line; the optimal curve gets a
    through-origin line, a line with intercept, a quadratic, and a cubic,
    so the gain from each extra term is visible in the R^2 progression.
    A grid whose powers of k overflow, or are numerically dependent (points
    too close together, or spread over too many orders of magnitude), is a
    :class:`ProfileError`.
    """
    if len(points) < 5:
        raise ProfileError(f"need at least 5 sweep points, got {len(points)}")
    k = np.array([p.k for p in points], dtype=float)
    if np.all(k == k[0]):
        raise ValueError("x values are all identical")
    with np.errstate(over="ignore"):
        powers = _powers(k, max(degree for _, _, degree, _ in FIT_FORMS))
    if not np.isfinite(powers).all():
        raise ProfileError(f"{_span(powers)} is too wide to fit: its powers of k overflow")
    series = {
        "stay": _Series(np.array([p.stay_cost for p in points], dtype=float)),
        "optimal": _Series(np.array([p.optimal_full_cost for p in points], dtype=float)),
    }
    return {
        name: _fit(powers, series[which], degree, intercept)
        for name, which, degree, intercept in FIT_FORMS
    }
