"""Expected-cost engine: one-call averages, monthly variable and fixed
expenses, full costs, and plan ranking.

The central quantity is the expected cost of one random call under a
piecewise-constant price schedule v and a duration distribution f:
``s = sum_t v(t) f(t)`` over billing minutes t. Monthly variable expenses
weight these averages by each subgroup's call rate; adding the fixed fees
of adopting a plan gives the full cost that ranks the candidates.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Sequence

from .catalog import (
    BillingPlan,
    Catalog,
    CatalogError,
    PayoffFunction,
    PricingTable,
    SubscriberContext,
    _Record,
)

if TYPE_CHECKING:
    from .traffic import DurationModel, TrafficProfile

LOOKUP = "lookup"
CUMULATIVE = "cumulative"
BILLING_MODES = (LOOKUP, CUMULATIVE)


def check_billing_mode(mode: str) -> None:
    """Raise ValueError unless `mode` is one of :data:`BILLING_MODES`."""
    if mode not in BILLING_MODES:
        raise ValueError(f"unknown billing mode {mode!r}")


class SubgroupCost(_Record):
    """One subgroup's share of a plan's variable expenses; `one_call_cost` is
    None when the subgroup sees no traffic."""

    def __init__(self, name: str, calls_per_month: float, one_call_cost: float | None, monthly_cost: float):
        vars(self).update(name=name, calls_per_month=calls_per_month, one_call_cost=one_call_cost,
                          monthly_cost=monthly_cost)


class CostBreakdown(_Record):
    """Everything that prices one candidate plan for the coming month."""

    def __init__(self, plan_id: int, plan_name: str, is_current: bool, subgroups: tuple[SubgroupCost, ...],
                 variable: float, fixed: float):
        vars(self).update(plan_id=plan_id, plan_name=plan_name, is_current=is_current, subgroups=subgroups,
                          variable=variable, fixed=fixed)

    @property
    def full(self) -> float:
        return self.variable + self.fixed


class Ranking(_Record):
    def __init__(self, order: tuple[int, ...], optimal_id: int):
        vars(self).update(order=order, optimal_id=optimal_id)


# --------------------------------------------------------------------------
# the pricing kernel


def _rows(table: PricingTable, mode: str) -> tuple[dict, Callable[[DurationModel], list[float]]]:
    """The table's payoffs for `mode`, and how to build a duration model's
    row for them.

    Every duration model is priced through its survival function
    ``S(t) = P(billed minute > t)``. In `lookup` mode the final minute's
    rate is charged, so segment [a, b] weighs its rate by
    ``S(a-1) - S(b)``: the row is S over the table's points. The
    non-default `cumulative` mode prices every elapsed minute, and minute m
    is elapsed with probability ``S(m-1)``, so the segment weighs its rate
    by ``S(a-1) + ... + S(b-1)``: the row holds that sum for each of the
    table's spans. Either row ends in 0, for the open tail.
    """
    check_billing_mode(mode)
    if mode == LOOKUP:
        return table.by_point, lambda durations: durations.survivals(table.points) + [0.0]
    return table.by_span, lambda durations: durations.survival_sums(table.spans) + [0.0]


def _one_call(segments: tuple[tuple[int, int, float], ...], row: list[float]) -> float:
    """Expected cost of one call under a payoff's segments, given its row."""
    total = 0.0
    for first, second, rate in segments:
        total += rate * (row[first] - row[second])
    return total


#: the last pricing: ``(catalog, context, profile, mode, breakdowns)``, read
#: and replaced whole, so a concurrent caller finds a whole entry or prices
#: again. It holds its catalog and profile, so no other object takes their
#: ids while it stands.
_last: tuple | None = None


def expected_call_cost(
    payoff: PayoffFunction, durations: DurationModel, mode: str = LOOKUP
) -> float:
    """Expected cost of one random call: E[v(t)] over billing minutes t."""
    table = PricingTable.of({None: [payoff]})
    by_key, row_of = _rows(table, mode)
    return _one_call(by_key[None][0], row_of(durations))


def _fee(target: BillingPlan, context: SubscriberContext) -> float:
    """Fees of adopting `target` for a month, given what is already owned.

    The switch fee applies only when leaving the current plan; the purchase
    cost only when no SIM of the target's provider is on hand.
    """
    fee = target.fixed.subscription_fee
    if target.id != context.current_plan_id:
        fee += target.fixed.switch_fee
    if target.provider not in context.owned_sim_providers:
        fee += target.fixed.purchase_cost
    return float(fee)


def full_costs(
    catalog: Catalog,
    context: SubscriberContext,
    profile: TrafficProfile,
    mode: str = LOOKUP,
) -> list[CostBreakdown]:
    """Cost breakdown per switch candidate (active plans plus the current
    one). The candidates depend on whose current plan it is.

    Each traffic cell is priced with one row per distinct duration model
    through the catalog's own table, which holds each plan's payoff per
    call class under its id; its cost counts toward the subgroup its class
    routes to. A subgroup aggregating several cells reports the
    rate-weighted average one-call cost. A candidate whose full cost
    overflows is a :class:`CatalogError` that names it.

    The breakdowns of the last call are kept (:data:`_last`): a call on the
    same `catalog` and `profile` objects with an equal `context` and `mode`
    returns them without pricing again, so the sweeps that follow a pricing
    on one profile share its breakdowns. Any other call prices and replaces
    them. The list is new on each call.
    """
    global _last
    last = _last
    if last is not None:
        last_catalog, last_context, last_profile, last_mode, kept = last
        if last_catalog is catalog and last_profile is profile and last_context == context and last_mode == mode:
            return list(kept)
    catalog.check_context(context)
    by_plan, row_of = _rows(catalog.pricing, mode)
    rows, cells = {}, []
    for cell in profile.cells:
        if cell.rate == 0:
            continue
        key = id(cell.durations)
        if key not in rows:
            rows[key] = row_of(cell.durations)
        cells.append((cell.call_class, cell.rate, rows[key]))
    priced = []
    for plan in catalog.switch_candidates(context):
        payoffs, routes = by_plan[plan.id], plan.routes
        rates = [0.0] * len(plan.subgroups)
        costs = [0.0] * len(plan.subgroups)
        for k, rate, row in cells:
            j = routes[k]
            rates[j] += rate
            costs[j] += rate * _one_call(payoffs[k], row)
        variable, fee = sum(costs), _fee(plan, context)
        if not math.isfinite(variable + fee):
            raise CatalogError(f"plan {plan.id} ({plan.name!r}): its expected monthly cost overflows")
        subgroups = tuple([
            SubgroupCost(rule.subgroup_name, rate, cost / rate if rate > 0 else None, cost)
            for (rule, _), rate, cost in zip(plan.subgroups, rates, costs)
        ])
        priced.append(CostBreakdown(plan.id, plan.name, plan.id == context.current_plan_id, subgroups, variable, fee))
    _last = (catalog, context, profile, mode, tuple(priced))
    return priced


def tie_order(b: CostBreakdown) -> tuple[bool, int]:
    """Rank's order among equal costs: the current plan first (no point
    paying a switch fee for nothing), then the lowest plan id."""
    return not b.is_current, b.plan_id


#: float costs within this factor of each other may be in either order exactly:
#: none is negative, and a float sum of products lies within a few ulps of the exact sum
NEAR = 1 + 2**-50


def cheapest_first(items: Sequence, costs: list[float], exact: Callable, key: Callable) -> list:
    """`items` by ascending float `costs` (none negative), except that each
    run of neighbours whose costs are within :data:`NEAR` of each other, as
    equal costs are, is sorted by ``(exact(item), *key(item))``: an exact
    cost is computed only inside such a run."""
    order = sorted(range(len(items)), key=costs.__getitem__)
    ordered = [items[i] for i in order]
    ends = [n for n in range(1, len(order)) if costs[order[n]] > costs[order[n - 1]] * NEAR]
    if len(ends) < len(order) - 1:  # some run holds two or more
        for start, end in zip([0, *ends], [*ends, len(order)]):
            if end - start > 1:
                ordered[start:end] = sorted(ordered[start:end], key=lambda item: (exact(item), *key(item)))
    return ordered


def rank(breakdowns: list[CostBreakdown]) -> Ranking:
    """Order candidates by ascending full cost, exact where the float sums
    are near-ties (:func:`cheapest_first`), ties in :func:`tie_order`."""
    if not breakdowns:
        raise ValueError("nothing to rank")
    ordered = cheapest_first(
        breakdowns, [b.full for b in breakdowns], lambda b: Fraction(b.fixed) + Fraction(b.variable), tie_order
    )
    return Ranking(order=tuple(b.plan_id for b in ordered), optimal_id=ordered[0].plan_id)
