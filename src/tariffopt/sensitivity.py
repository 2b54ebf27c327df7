"""Traffic-growth sensitivity: cost sweeps over a traffic multiplier,
switch-point detection, and polynomial regression of the cost curves.

Every plan's full cost is affine in the traffic multiplier k (fixed fees do
not scale), so the optimal-cost curve is the lower envelope of the plans'
cost lines, and its breakpoints are exactly where the best plan changes.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .catalog import Catalog, SubscriberContext, _Record
from .cost import LOOKUP, NEAR, cheapest_first, full_costs, tie_order
from .traffic import ProfileError, TrafficProfile


class Grid(_Record, Sequence):
    """The traffic multipliers of a sweep: an immutable sequence of floats.

    `points` holds them as given, each as a float; `ks` holds them as a
    read-only float64 array, built once with the grid and not a field, so
    every sweep on the grid shares it. A grid is one-dimensional, non-empty
    and finite; order and sign are what :func:`sweep` requires of it.
    Pickling and copying rebuild the grid from its points.
    """

    def __init__(self, points: Sequence[float]):
        ks = np.array(points, dtype=float)
        if ks.ndim != 1:
            raise ProfileError(f"multiplier grid must be one-dimensional, got shape {ks.shape}")
        if not len(ks):
            raise ProfileError("empty multiplier grid")
        finite = np.isfinite(ks)
        if not finite.all():
            raise ProfileError(f"traffic multiplier must be finite, got {points[int(finite.argmin())]}")
        ks.flags.writeable = False
        vars(self).update(points=tuple(ks.tolist()), ks=ks)

    def __reduce__(self):
        """Pickle and copy through the constructor, so a copy's `ks` is read-only and its designs not yet built."""
        return type(self), (self.points,)

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, i):
        return self.points[i]

    def __iter__(self):
        return iter(self.points)

    @cached_property
    def designs(self) -> MappingProxyType:
        """The design matrix of each form of :data:`FIT_FORMS`, by name:
        ``k**0 ... k**degree`` with an intercept, ``k**1 ... k**degree``
        without (see :func:`_powers`). Built on first use, and read-only, as
        every fit on the grid shares them. A grid of fewer than 5 points, of
        one value, or whose powers of k overflow is a :class:`ProfileError`
        on every use."""
        ks = self.ks
        if ks.size < 5:
            raise ProfileError(f"need at least 5 sweep points, got {ks.size}")
        if np.all(ks == ks[0]):  # a grid need not be sorted, so its ends can be equal
            raise ProfileError("x values are all identical")
        with np.errstate(over="ignore"):
            powers = _powers(ks, max(degree for _, _, degree, _ in FIT_FORMS))
        # a power overflows only where |k| > 1, and there the highest is the largest
        if not np.isfinite(powers[:, -1]).all():
            raise ProfileError(f"{_span(ks)} is too wide to fit: its powers of k overflow")
        designs = {}
        for name, _, degree, intercept in FIT_FORMS:
            # C-contiguous, as np.column_stack builds it: `design @ coef` must
            # sum in the same order whichever caller built the columns
            design = designs[name] = np.ascontiguousarray(powers[:, (0 if intercept else 1) : degree + 1])
            design.flags.writeable = False
        return MappingProxyType(designs)


class Sweep(_Record):
    """Every candidate's cost over a grid of traffic multipliers.

    Row i of `costs` is candidate ``plan_ids[i]``, the rows in
    :func:`~tariffopt.cost.tie_order`, so `stay`, the current plan's row,
    is 0. Column j is multiplier ``ks[j]``, the `grid`'s point j, and
    ``costs[i, j] = variable[i] * ks[j] + fixed[i]``. `optimal` holds the
    row of the line exactly lowest at each multiplier, the first of exact
    ties. ``len()`` is the number of multipliers, and :meth:`table` the rows
    that reports print. A sweep compares by identity.
    """

    __eq__ = object.__eq__
    __hash__ = object.__hash__
    stay = 0

    def __init__(self, grid: Grid, plan_ids: tuple[int, ...], fixed: np.ndarray, variable: np.ndarray,
                 costs: np.ndarray, optimal: np.ndarray):
        vars(self).update(grid=grid, plan_ids=plan_ids, fixed=fixed, variable=variable, costs=costs, optimal=optimal)

    def __len__(self) -> int:
        return len(self.grid)

    @property
    def ks(self) -> np.ndarray:
        """The multipliers, the grid's read-only array."""
        return self.grid.ks

    @property
    def optimal_costs(self) -> np.ndarray:
        """The optimum's cost at each multiplier."""
        return self.costs[self.optimal, np.arange(self.ks.size)]

    def table(self) -> tuple[list[int], list[list]]:
        """The plan ids in ascending order, and per multiplier a row: k, the
        optimum's id, its cost, the stay cost, then each plan's cost by id."""
        plan_ids = sorted(self.plan_ids)
        by_id = [self.plan_ids.index(pid) for pid in plan_ids]
        return plan_ids, [
            [k, self.plan_ids[best], at_k[best], at_k[self.stay], *(at_k[i] for i in by_id)]
            for k, best, at_k in zip(self.grid, self.optimal.tolist(), self.costs.T.tolist())
        ]


class SwitchInterval(_Record):
    """Maximal k-range over which one plan stays optimal."""

    def __init__(self, k_start: float, k_end: float, plan_id: int):
        vars(self).update(k_start=k_start, k_end=k_end, plan_id=plan_id)


class RegressionFit(_Record):
    """A polynomial fit of a cost curve; `coefficients` start with the
    constant term when `intercept` is set."""

    def __init__(self, degree: int, intercept: bool, coefficients: tuple[float, ...], r_squared: float):
        vars(self).update(degree=degree, intercept=intercept, coefficients=coefficients, r_squared=r_squared)
        expected = self.degree + (1 if self.intercept else 0)
        if len(self.coefficients) != expected:
            raise ValueError(
                f"degree-{self.degree} fit needs {expected} coefficients, "
                f"got {len(self.coefficients)}"
            )


#: most points :func:`k_grid` builds; a mistyped step fails before any list
#: is allocated
MAX_GRID_POINTS = 10**6


def k_grid(start: float = 0.5, stop: float = 10.0, step: float = 0.5) -> Grid:
    """Inclusive multiplier grid, built without floating-point drift.

    Each point is a float rounded to 12 decimals, and the last does not
    exceed `stop` at that resolution. So a start that rounds to 0 or a step
    below it would give a zero multiplier or repeat points; such a grid, and
    one of more than :data:`MAX_GRID_POINTS` points, is a
    :class:`ProfileError`.
    """
    if not (0 < round(start, 12) and start <= stop < math.inf and 0 < step < math.inf):
        raise ProfileError(f"bad grid spec start={start} stop={stop} step={step}")
    steps = (stop - start) / step + 1e-9  # inf when step is tiny
    if steps >= MAX_GRID_POINTS:
        raise ProfileError(
            f"grid from {start} to {stop} by {step} has more than {MAX_GRID_POINTS} points"
        )
    points = [round(start + i * step, 12) for i in range(int(steps) + 1)]
    if points[-1] > round(stop, 12):  # the slack above admitted a point past the stop
        points.pop()
    if len(set(points)) < len(points):
        raise ProfileError(f"grid step {step} is too fine: points rounded to 12 decimals coincide")
    return Grid(points)


def sweep(
    catalog: Catalog,
    context: SubscriberContext,
    profile: TrafficProfile,
    grid: Sequence[float],
    mode: str = LOOKUP,
) -> Sweep:
    """Read every candidate's cost line ``fixed + k * variable`` from the
    breakdowns of :func:`~tariffopt.cost.full_costs`, sorted by
    :func:`~tariffopt.cost.tie_order`, then evaluate the lines as one
    (plans x grid) array. So the sweep does not depend on the order in which
    the catalog lists its plans. Right after ``full_costs`` or another
    sweep on the same catalog, profile, context and mode, those breakdowns
    are the ones they got. The sweep's arrays are read-only.

    Each point's optimum is the line exactly lowest there, ties to the
    first row: the column's float minimum, re-judged by
    :func:`~tariffopt.cost.cheapest_first` at near-ties, so at k = 1 it is
    :func:`~tariffopt.cost.rank`'s pick. Fees and variable costs are never
    negative, so the grid's last k holds every plan's largest cost; a cost
    that overflows there is a :class:`ProfileError`.
    ``grid`` is a :class:`Grid`, used as it is, or a sequence or a
    one-dimensional array of multipliers, made one; it must be sorted and
    start above 0.
    """
    if not isinstance(grid, Grid):
        grid = Grid(grid)
    ks = grid.ks
    if (ks[1:] < ks[:-1]).any():
        raise ProfileError("multiplier grid must be sorted")
    if ks[0] <= 0:
        raise ProfileError(f"traffic multiplier must be positive, got {grid[0]}")
    lines = sorted(full_costs(catalog, context, profile, mode), key=tie_order)
    fixed = np.array([b.fixed for b in lines])
    variable = np.array([b.variable for b in lines])
    with np.errstate(over="ignore"):
        costs = variable[:, None] * ks + fixed[:, None]
    if not np.isfinite(costs[:, -1]).all():
        raise ProfileError(f"plan costs overflow at traffic multiplier {grid[-1]}")
    optimal = costs.argmin(axis=0)
    near = costs <= costs.min(axis=0) * NEAR
    if np.count_nonzero(near) > ks.size:
        for j in np.flatnonzero(np.count_nonzero(near, axis=0) > 1).tolist():
            k, rows = Fraction(float(ks[j])), np.flatnonzero(near[:, j]).tolist()
            exact = {i: Fraction(lines[i].fixed) + k * Fraction(lines[i].variable) for i in rows}  # all one run
            optimal[j] = cheapest_first(rows, costs[rows, j].tolist(), exact.get, lambda i: (i,))[0]
    for array in (fixed, variable, costs, optimal):
        array.flags.writeable = False
    return Sweep(grid, tuple(b.plan_id for b in lines), fixed, variable, costs, optimal)


#: crossings closer than this to each other or to the grid's ends, relative
#: to the grid's largest |k|, are one point: where three or more lines meet,
#: the rounding of each crossing would otherwise leave slivers up to ~1e-12
#: wide for the lines that only touch the envelope there
_TOUCH = 1e-9


def switch_points(swept: Sweep) -> list[SwitchInterval]:
    """Exact breakpoints of the lower envelope of the plans' cost lines.

    The walk reads the sweep's exact lines, not its cost matrix. It starts
    on the sweep's optimum at the first point, the line exactly lowest there,
    and moves to the line that first undercuts the one it is on; lines that
    only touch the envelope get no interval. Of the lines that undercut it
    at one crossing, the first in :func:`~tariffopt.cost.rank`'s order past
    it wins: the flattest, then the cheapest, then the first row, as the
    rows are in rank's tie order. So a flatter line tied with the optimum at
    the first point, which meets it there, takes over at once.
    """
    ids = swept.plan_ids
    fixed, variable = swept.fixed.tolist(), swept.variable.tolist()
    first, last = swept.grid[0], swept.grid[-1]
    touch = _TOUCH * max(1.0, abs(first), abs(last))
    start, row, intervals = first, int(swept.optimal[0]), []
    while True:
        on_fixed, slope = fixed[row], variable[row]
        below = [((fixed[i] - on_fixed) / (slope - variable[i]), i) for i in range(len(ids)) if variable[i] < slope]
        crossing = min((c for c, _ in below), default=math.inf)
        if crossing >= last - touch:
            intervals.append(SwitchInterval(start, last, ids[row]))
            return intervals
        if crossing > start + touch:
            intervals.append(SwitchInterval(start, crossing, ids[row]))
            start = crossing
        *_, row = min((variable[i], fixed[i], i) for c, i in below if c <= crossing + touch)


def _powers(x: np.ndarray, degree: int) -> np.ndarray:
    """The columns ``x**0 ... x**degree``, one row per point."""
    return np.column_stack([x**p for p in range(degree + 1)])


def _span(k: np.ndarray) -> str:
    """The range of the multipliers `k`."""
    return f"grid from k={k.min()} to k={k.max()}"


class _Series:
    """A response vector with the sums of squares its fits need, each
    computed once. It is held scaled by ``2**-shift`` to below 1 in magnitude,
    so no square overflows; the scaling is exact, so a fit of it is the fit
    of the vector with coefficients and residuals scaled alike, and one R^2."""

    def __init__(self, y: np.ndarray):
        self.shift = max(0, math.frexp(float(np.abs(y).max()))[1])
        self.y = np.ldexp(y, -self.shift)
        self.ss = float(self.y @ self.y)
        self.one = math.ldexp(1.0, -2 * self.shift)  # a sum of squares of 1 in the original units

    @cached_property
    def ss_centered(self) -> float:
        centered = self.y - self.y.sum() / self.y.size  # the mean, as np.mean takes it
        return float(centered @ centered)


def _fit(name: str, design: np.ndarray, series: _Series, degree: int, intercept: bool) -> RegressionFit:
    """Least-squares fit `name` of `series` on the columns of `design`:
    ``k**0 ... k**degree`` with an intercept, ``k**1 ... k**degree`` without
    (see :func:`_powers`). A coefficient past the float range, as a curve
    that is almost flat gives a through-origin line on a grid of small k, is
    a :class:`ProfileError`."""
    y = series.y
    coef, _, rank_, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank_ < design.shape[1]:
        raise ProfileError(
            f"{_span(design[:, int(intercept)])} cannot be fitted to degree {degree}: its powers of k are "
            "numerically dependent (rank-deficient design matrix)"
        )
    residuals = y - design @ coef
    ss_res = float(residuals @ residuals)
    ss_tot = series.ss_centered if intercept else series.ss
    if ss_tot <= 1e-12 * max(series.one, series.ss):
        r_squared = 0.0  # constant response: no variance to explain
    else:
        r_squared = 1.0 - ss_res / ss_tot
    try:
        coefficients = tuple(math.ldexp(c, series.shift) for c in coef.tolist())
    except OverflowError:
        raise ProfileError(f"{name} over the {_span(design[:, int(intercept)])}: a coefficient overflows") from None
    return RegressionFit(degree, intercept, coefficients, r_squared)


#: model forms fitted by :func:`fit_report`
FIT_FORMS = (
    ("stay_linear_origin", "stay", 1, False),
    ("optimal_linear_origin", "optimal", 1, False),
    ("optimal_linear", "optimal", 1, True),
    ("optimal_quadratic", "optimal", 2, True),
    ("optimal_cubic", "optimal", 3, True),
)


def fit_report(swept: Sweep) -> dict[str, RegressionFit]:
    """Regress the stay-put and optimally-switched cost curves against k.

    The stay curve gets a through-origin line; the optimal curve gets a
    through-origin line, a line with intercept, a quadratic, and a cubic,
    so the gain from each extra term is visible in the R^2 progression.
    A grid whose powers of k overflow, or are numerically dependent (points
    too close together, or spread over too many orders of magnitude), is a
    :class:`ProfileError`, as is a fit with a coefficient past the float
    range.
    """
    designs = swept.grid.designs
    series = {"stay": _Series(swept.costs[swept.stay]), "optimal": _Series(swept.optimal_costs)}
    return {
        name: _fit(name, designs[name], series[which], degree, intercept)
        for name, which, degree, intercept in FIT_FORMS
    }
