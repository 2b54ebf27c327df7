"""Expected-cost engine: one-call averages, monthly variable and fixed
expenses, full costs, and plan ranking.

The central quantity is the expected cost of one random call under a
piecewise-constant price schedule v and a duration distribution f:
``s = sum_t v(t) f(t)`` over billing minutes t. Monthly variable expenses
weight these averages by each subgroup's call rate; adding the fixed fees
of adopting a plan gives the full cost that ranks the candidates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .catalog import BillingPlan, Catalog, PayoffFunction, SubscriberContext
from .traffic import DurationModel, TrafficProfile

LOOKUP = "lookup"
CUMULATIVE = "cumulative"
BILLING_MODES = (LOOKUP, CUMULATIVE)


def expected_call_cost(
    payoff: PayoffFunction, durations: DurationModel, mode: str = LOOKUP
) -> float:
    """Expected cost of one random call: E[v(t)] over billing minutes t.

    Every duration model is priced through its survival function
    ``S(t) = P(billed minute > t)``. In `lookup` mode the final minute's
    rate is charged, so segment [a, b] weighs its rate by
    ``S(a-1) - S(b)``; the non-default `cumulative` mode prices every
    elapsed minute, and minute m is elapsed with probability ``S(m-1)``,
    so the segment weighs its rate by ``S(a-1) + ... + S(b-1)``.
    """
    if mode not in BILLING_MODES:
        raise ValueError(f"unknown billing mode {mode!r}")
    total = 0.0
    for from_minute, to_minute, rate in payoff.float_segments:
        if mode == LOOKUP:
            weight = durations.survival(from_minute - 1) - durations.survival(to_minute)
        else:
            weight = durations.survival_sum(from_minute - 1, to_minute)
        total += rate * weight
    return total


@dataclass(frozen=True)
class SubgroupCost:
    """One subgroup's share of a plan's variable expenses."""

    name: str
    calls_per_month: float
    one_call_cost: float | None  # None when the subgroup sees no traffic
    monthly_cost: float


@dataclass(frozen=True)
class CostBreakdown:
    """Everything that prices one candidate plan for the coming month."""

    plan_id: int
    plan_name: str
    is_current: bool
    subgroups: tuple[SubgroupCost, ...]
    variable: float
    fixed: float

    @property
    def full(self) -> float:
        return self.variable + self.fixed


@dataclass(frozen=True)
class Ranking:
    order: tuple[int, ...]
    optimal_id: int


def variable_cost(
    plan: BillingPlan, profile: TrafficProfile, mode: str = LOOKUP
) -> tuple[float, tuple[SubgroupCost, ...]]:
    """Expected monthly traffic cost of a plan: sum of rate * one-call cost.

    Each traffic cell is priced under the subgroup its calls route to, so a
    subgroup aggregating several cells reports the rate-weighted average
    one-call cost.
    """
    n = len(plan.subgroups)
    rates = [0.0] * n
    costs = [0.0] * n
    for cell in profile.cells:
        if cell.rate == 0:
            continue
        j = plan.subgroup_index(cell.destination_class, cell.day_class)
        _, payoff = plan.subgroups[j]
        rates[j] += cell.rate
        costs[j] += cell.rate * expected_call_cost(payoff, cell.durations, mode)
    breakdown = tuple(
        SubgroupCost(
            name=rule.subgroup_name,
            calls_per_month=rates[j],
            one_call_cost=costs[j] / rates[j] if rates[j] > 0 else None,
            monthly_cost=costs[j],
        )
        for j, (rule, _) in enumerate(plan.subgroups)
    )
    return sum(costs), breakdown


def fixed_cost(
    target: BillingPlan, context: SubscriberContext, catalog: Catalog
) -> float:
    """Fees of adopting `target` for a month, given what is already owned.

    The switch fee applies only when leaving the current plan; the purchase
    cost only when no SIM of the target's provider is on hand.
    """
    catalog.plan(context.current_plan_id)  # context must be valid
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
    """Cost breakdown per switch candidate (active plans plus the current one)."""
    breakdowns = []
    # the candidate set depends on whose current plan it is
    for plan in replace(catalog, context=context).switch_candidates():
        variable, subgroups = variable_cost(plan, profile, mode)
        breakdowns.append(
            CostBreakdown(
                plan_id=plan.id,
                plan_name=plan.name,
                is_current=plan.id == context.current_plan_id,
                subgroups=subgroups,
                variable=variable,
                fixed=fixed_cost(plan, context, catalog),
            )
        )
    return breakdowns


def rank(breakdowns: list[CostBreakdown]) -> Ranking:
    """Order candidates by ascending full cost.

    Ties prefer the current plan (no point paying a switch fee for nothing),
    then the lowest plan id.
    """
    if not breakdowns:
        raise ValueError("nothing to rank")
    ordered = sorted(
        breakdowns, key=lambda b: (b.full, not b.is_current, b.plan_id)
    )
    return Ranking(
        order=tuple(b.plan_id for b in ordered), optimal_id=ordered[0].plan_id
    )
