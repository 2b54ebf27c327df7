"""Billing-plan switching optimizer.

Given a call-detail printout and a catalog of candidate plans, compute each
plan's expected full monthly cost, pick the cheapest, validate the choice by
Monte-Carlo simulation, and study how it shifts as traffic grows.
"""

from .catalog import (
    ANY,
    DAY_CLASSES,
    DESTINATION_CLASSES,
    BillingPlan,
    Catalog,
    CatalogError,
    FixedCostSpec,
    PayoffFunction,
    RateSegment,
    SubgroupRule,
    SubscriberContext,
    load_catalog,
    serialize_catalog,
)
from .cost import (
    BILLING_MODES,
    CostBreakdown,
    Ranking,
    SubgroupCost,
    expected_call_cost,
    full_costs,
    rank,
)
from .sensitivity import (
    RegressionFit,
    SweepPoint,
    SwitchInterval,
    fit_report,
    k_grid,
    sweep,
    switch_points,
)
from .simulate import (
    PlanSample,
    SimConfig,
    SimResult,
    SimulationError,
    replay_trace,
    run,
)
from .traffic import (
    CallLog,
    CallRecord,
    CallTable,
    CdrError,
    Empirical,
    Exponential,
    ExponentialFit,
    PrefixTable,
    ProfileError,
    TrafficCell,
    TrafficProfile,
    WorkdayCalendar,
    build_histogram,
    classify_calls,
    estimate_profile,
    fit_exponential,
    observation_months,
    parse_cdr,
)

__version__ = "0.1.0"
