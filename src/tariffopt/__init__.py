"""Billing-plan switching optimizer.

Given a call-detail printout and a catalog of candidate plans, compute each
plan's expected full monthly cost, pick the cheapest, validate the choice by
Monte-Carlo simulation, and study how it shifts as traffic grows.

``import tariffopt`` loads no submodule: each public name below is imported
from its defining module on first use (PEP 562), so a process compiles only
the modules it runs.
"""

from importlib import import_module

#: the public names, by the submodule that defines them
_EXPORTS = {
    "catalog": (
        "ANY",
        "DAY_CLASSES",
        "DESTINATION_CLASSES",
        "BillingPlan",
        "Catalog",
        "CatalogError",
        "CdrError",
        "FixedCostSpec",
        "PayoffFunction",
        "RateSegment",
        "SubgroupRule",
        "SubscriberContext",
        "load_catalog",
        "serialize_catalog",
    ),
    "cdr": ("CallLog", "CallRecord", "parse_cdr"),
    "classify": ("CallTable", "PrefixTable", "WorkdayCalendar", "classify_calls"),
    "cost": (
        "BILLING_MODES",
        "CostBreakdown",
        "Ranking",
        "SubgroupCost",
        "expected_call_cost",
        "full_costs",
        "rank",
    ),
    "sensitivity": (
        "RegressionFit",
        "Sweep",
        "SwitchInterval",
        "fit_report",
        "k_grid",
        "sweep",
        "switch_points",
    ),
    "simulate": ("PlanSample", "SimConfig", "SimResult", "SimulationError", "replay_trace", "run"),
    "traffic": (
        "Empirical",
        "Exponential",
        "ExponentialFit",
        "ProfileError",
        "TrafficCell",
        "TrafficProfile",
        "build_histogram",
        "estimate_profile",
        "fit_exponential",
        "observation_months",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import a public name from its defining module on first use and keep it."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
