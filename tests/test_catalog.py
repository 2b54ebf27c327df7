"""Catalog parsing, validation, and rate-lookup tests."""

from __future__ import annotations

import copy
import importlib
import inspect
import json
import pickle
from decimal import Decimal

import numpy as np
import pytest

from tariffopt import (
    BillingPlan,
    CallLog,
    CallRecord,
    CallTable,
    Catalog,
    CatalogError,
    CostBreakdown,
    Empirical,
    Exponential,
    ExponentialFit,
    FixedCostSpec,
    PayoffFunction,
    PlanSample,
    PrefixTable,
    Ranking,
    RateSegment,
    RegressionFit,
    SimConfig,
    SimResult,
    SubgroupCost,
    SubgroupRule,
    SubscriberContext,
    Sweep,
    SwitchInterval,
    TrafficCell,
    TrafficProfile,
    WorkdayCalendar,
    build_histogram,
    classify_calls,
    estimate_profile,
    fit_exponential,
    fit_report,
    full_costs,
    k_grid,
    load_catalog,
    parse_cdr,
    rank,
    run,
    serialize_catalog,
    sweep,
    switch_points,
)
from tariffopt.catalog import DESTINATION_CLASSES, PricingTable, _Record

from conftest import CATALOG_PATH, CDR_PATH, MALFORMED_CATALOGS, PREFIXES_PATH, charges


def seg(a, b, rate):
    return RateSegment(from_minute=a, to_minute=b, rate=Decimal(str(rate)))


def minimal_catalog(**overrides):
    doc = {
        "plans": [
            {
                "id": 1,
                "name": "Free",
                "provider": "ACME",
                "active": True,
                "fixed": {"subscription_fee": 0, "switch_fee": 0, "purchase_cost": 0},
                "subgroups": [
                    {
                        "name": "All",
                        "destination_class": "any",
                        "day_class": "any",
                        "segments": [{"from": 1, "to": "open", "rate": "0"}],
                    }
                ],
            }
        ],
        "context": {"current_plan_id": 1, "owned_sim_providers": ["ACME"]},
    }
    doc.update(overrides)
    return doc


def test_load_six_plan_catalog(mts_catalog):
    assert [p.id for p in mts_catalog.plans] == [1, 2, 3, 4, 5, 6]
    assert [p.active for p in mts_catalog.plans] == [True] * 5 + [False]
    assert mts_catalog.context.current_plan_id == 6
    assert mts_catalog.plan(2).fixed.subscription_fee == Decimal("225")
    assert mts_catalog.plan(5).fixed.purchase_cost == Decimal("1300")


def test_single_free_plan_is_valid():
    catalog = load_catalog(json.dumps(minimal_catalog()))
    assert len(catalog.plans) == 1
    assert catalog.plans[0].subgroups[0][1].rate_at(1) == 0.0


def test_segment_gap_rejected():
    doc = minimal_catalog()
    doc["plans"][0]["subgroups"][0]["segments"] = [
        {"from": 1, "to": 5, "rate": "1"},
        {"from": 7, "to": "open", "rate": "1"},
    ]
    with pytest.raises(CatalogError, match="minute 6"):
        load_catalog(json.dumps(doc))


def test_duplicate_plan_id_rejected():
    doc = minimal_catalog()
    doc["plans"].append(json.loads(json.dumps(doc["plans"][0])))
    with pytest.raises(CatalogError, match="duplicate plan id"):
        load_catalog(json.dumps(doc))


def test_missing_catch_all_rejected():
    doc = minimal_catalog()
    doc["plans"][0]["subgroups"][0]["day_class"] = "workday"
    with pytest.raises(CatalogError, match="weekend"):
        load_catalog(json.dumps(doc))


def test_unknown_current_plan_rejected():
    doc = minimal_catalog()
    doc["context"]["current_plan_id"] = 9
    with pytest.raises(CatalogError, match="current_plan_id 9"):
        load_catalog(json.dumps(doc))


def test_two_wildcard_rules_rejected():
    doc = minimal_catalog()
    doc["plans"][0]["subgroups"].append(json.loads(json.dumps(doc["plans"][0]["subgroups"][0])))
    with pytest.raises(CatalogError, match="catch-all"):
        load_catalog(json.dumps(doc))


def test_two_subgroups_with_one_name_rejected():
    doc = json.loads(CATALOG_PATH.read_text(encoding="utf-8"))
    doc["plans"][0]["subgroups"][1]["name"] = "To MTS Numbers"
    with pytest.raises(CatalogError, match="plan 1 .* two subgroups named 'To MTS Numbers'"):
        load_catalog(json.dumps(doc))


@pytest.mark.parametrize("encode", [str, str.encode], ids=["str", "bytes"])
def test_catalog_read_with_a_byte_order_mark(encode):
    text = CATALOG_PATH.read_text(encoding="utf-8")
    assert load_catalog(encode("\ufeff" + text)) == load_catalog(encode(text))


def test_malformed_json_rejected():
    with pytest.raises(CatalogError, match="not valid JSON"):
        load_catalog(b"{nope")


def test_integer_past_the_digit_limit_is_not_valid_json():
    text = CATALOG_PATH.read_text(encoding="utf-8").replace('"id": 1,', '"id": 1' + "0" * 5000 + ",", 1)
    with pytest.raises(CatalogError, match="^catalog is not valid JSON: Exceeds the limit"):
        load_catalog(text)


@pytest.mark.parametrize("edit, message", MALFORMED_CATALOGS.values(), ids=MALFORMED_CATALOGS)
def test_malformed_catalog_names_the_plan_and_field(edit, message):
    doc = json.loads(CATALOG_PATH.read_text(encoding="utf-8"))
    edit(doc)
    with pytest.raises(CatalogError) as raised:
        load_catalog(json.dumps(doc))
    assert str(raised.value) == message


@pytest.mark.parametrize("value", [1, 1.0, "1", " 1 "])
def test_integer_valued_numbers_and_integer_strings_are_integers(value):
    doc = minimal_catalog()
    doc["plans"][0]["id"] = value
    doc["plans"][0]["subgroups"][0]["segments"] = [
        {"from": value, "to": value, "rate": "1"},
        {"from": 2, "to": "open", "rate": "2"},
    ]
    doc["context"]["current_plan_id"] = value
    catalog = load_catalog(json.dumps(doc))
    assert catalog.plans[0].id == catalog.context.current_plan_id == 1
    assert catalog.plans[0].subgroups[0][1].segments[0] == seg(1, 1, 1)


def test_active_and_owned_providers_keep_their_meaning():
    doc = minimal_catalog()
    doc["plans"][0]["active"] = False
    doc["context"]["owned_sim_providers"] = ["ACME", "MTS"]
    catalog = load_catalog(json.dumps(doc))
    assert catalog.plans[0].active is False
    assert catalog.context.owned_sim_providers == {"ACME", "MTS"}
    del doc["plans"][0]["active"], doc["context"]["owned_sim_providers"]
    catalog = load_catalog(json.dumps(doc))
    assert catalog.plans[0].active is True
    assert catalog.context.owned_sim_providers == frozenset()


def test_rate_lookup_values(mts_catalog):
    bp1_mts = mts_catalog.plan(1).subgroups[0][1]
    assert bp1_mts.rate_at(1) == 2.5
    assert bp1_mts.rate_at(3) == 0.0
    assert bp1_mts.rate_at(6) == 2.5
    bp2_all = mts_catalog.plan(2).subgroups[0][1]
    assert bp2_all.rate_at(150) == 0.0
    assert bp2_all.rate_at(151) == 2.2


def test_rate_lookup_rejects_minute_zero(mts_catalog):
    payoff = mts_catalog.plan(1).subgroups[0][1]
    with pytest.raises(ValueError):
        payoff.rate_at(0)


def test_minutes_partition(mts_catalog):
    """Each minute in [1, 1e6] belongs to exactly one segment."""
    for plan in mts_catalog.plans:
        for _, payoff in plan.subgroups:
            minutes = np.unique(
                np.concatenate(
                    [
                        np.array([1, 2, 59, 60, 61, 10**6]),
                        np.random.default_rng(plan.id).integers(1, 10**6, 200),
                    ]
                )
            )
            for m in minutes:
                containing = [
                    s
                    for s in payoff.segments
                    if s.from_minute <= m and (s.to_minute is None or m <= s.to_minute)
                ]
                assert len(containing) == 1
                assert payoff.rate_at(int(m)) == float(containing[0].rate)


def test_rate_constant_within_segment(mts_catalog):
    payoff = mts_catalog.plan(3).subgroups[0][1]
    for s in payoff.segments:
        hi = s.to_minute if s.to_minute is not None else s.from_minute + 500
        assert payoff.rate_at(s.from_minute) == payoff.rate_at(hi)


def test_round_trip(mts_catalog):
    again = load_catalog(serialize_catalog(mts_catalog))
    assert again == mts_catalog


def test_vectorized_rates_match_scalar(mts_catalog):
    payoff = mts_catalog.plan(3).subgroups[0][1]
    minutes = np.arange(1, 100)
    vec = charges(payoff, minutes, "lookup")
    assert [payoff.rate_at(int(m)) for m in minutes] == list(vec)


def test_cumulative_prefix_sums(mts_catalog):
    payoff = mts_catalog.plan(3).subgroups[0][1]
    minutes = np.arange(1, 120)
    expected = np.cumsum(charges(payoff, minutes, "lookup"))
    assert np.allclose(charges(payoff, minutes, "cumulative"), expected, atol=1e-12)


def test_payoff_requires_open_tail():
    with pytest.raises(CatalogError, match="open"):
        PayoffFunction((seg(1, 5, 1),))


def test_payoff_requires_start_at_one():
    with pytest.raises(CatalogError, match="not 1"):
        PayoffFunction((RateSegment(2, None, Decimal("1")),))


def test_negative_rate_rejected():
    with pytest.raises(CatalogError, match="negative rate"):
        RateSegment(1, None, Decimal("-1"))


def test_switch_candidates_exclude_inactive(mts_catalog):
    ids = [p.id for p in mts_catalog.switch_candidates()]
    assert ids == [1, 2, 3, 4, 5, 6]  # 6 inactive but current

    # move the subscriber onto plan 1: plan 6 is no longer a candidate
    from tariffopt import Catalog, SubscriberContext

    moved = Catalog(
        plans=mts_catalog.plans,
        context=SubscriberContext(current_plan_id=1, owned_sim_providers=frozenset({"MTS"})),
    )
    assert [p.id for p in moved.switch_candidates()] == [1, 2, 3, 4, 5]


def test_routes_and_pricing_are_read_only_and_not_fields(mts_catalog):
    plan = mts_catalog.plan(6)
    with pytest.raises(AttributeError):
        plan.routes = ()
    with pytest.raises(AttributeError):
        mts_catalog.pricing = None
    for obj, name in ((plan, "routes"), (mts_catalog, "pricing")):
        assert name not in obj.__match_args__
        assert f"{name}=" not in repr(obj)
        other = copy.copy(obj)
        vars(other)[name] = None
        assert other == obj  # equality does not see it


def _bundled_records() -> dict:
    """One record of each class, built from the bundled inputs."""
    catalog = load_catalog(CATALOG_PATH.read_bytes())
    plan = catalog.plans[0]
    rule, payoff = plan.subgroups[0]
    prefixes = PrefixTable.from_csv(PREFIXES_PATH.read_bytes())
    calendar = WorkdayCalendar.from_file(b"2010-03-08\n")
    log = parse_cdr(CDR_PATH.read_bytes())
    calls = classify_calls(log, prefixes, calendar)
    profile = estimate_profile(calls, catalog, 6.0)
    breakdowns = full_costs(catalog, catalog.context, profile)
    swept = sweep(catalog, catalog.context, profile, k_grid())
    config = SimConfig.from_profile(profile, seed=7, runs=20)
    result = run(config, catalog)
    records = [payoff.segments[0], payoff, catalog.pricing, rule, plan.fixed, plan, catalog.context, catalog,
               calls, prefixes, calendar, log[0], log, build_histogram(calls, int(calls.minute.max())),
               profile.cells[0].durations, fit_exponential(calls.duration / 60.0), profile.cells[0], profile,
               breakdowns[0].subgroups[0], breakdowns[0], rank(breakdowns), swept, switch_points(swept)[0],
               fit_report(swept)["optimal_cubic"], config, result.plans[0], result]
    return {type(record).__name__: record for record in records}


RECORD_CLASSES = (RateSegment, PayoffFunction, PricingTable, SubgroupRule, FixedCostSpec, BillingPlan,
                  SubscriberContext, Catalog, CallTable, PrefixTable, WorkdayCalendar, CallRecord, CallLog,
                  Empirical, Exponential, ExponentialFit, TrafficCell, TrafficProfile, SubgroupCost, CostBreakdown,
                  Ranking, Sweep, SwitchInterval, RegressionFit, SimConfig, PlanSample, SimResult)


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__name__)
def test_input_records_are_values_over_their_fields(cls):
    """Each record's fields are its constructor's parameters, in order. It
    compares, hashes and prints by those fields, refuses changes to them,
    and survives pickle and deepcopy. A printout log, a call table and a
    sweep compare by identity, and a prefix table, whose unmapped count
    grows, has no hash."""
    record = _bundled_records()[cls.__name__]
    names = cls.__match_args__
    values = [getattr(record, name) for name in names]
    assert list(inspect.signature(cls).parameters) == list(names)
    by_position, by_name = cls(*values), cls(**dict(zip(names, values)))
    assert repr(record) == f"{cls.__name__}({', '.join(f'{n}={v!r}' for n, v in zip(names, values))})"
    assert repr(by_position) == repr(by_name) == repr(record)
    for name in names:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(record, name)
    copies = [pickle.loads(pickle.dumps(record)), copy.deepcopy(record)]
    assert all(repr(other) == repr(record) for other in copies)
    if cls in (CallLog, CallTable, Sweep):
        assert by_position != record and hash(record) == object.__hash__(record)
        return
    assert by_position == by_name == record
    assert all(other == record for other in copies)
    if cls is PrefixTable:
        assert cls.__hash__ is None
        assert all(other._lookup("+79161234567") == DESTINATION_CLASSES.index("same-network") for other in copies)
        return
    try:
        hash(tuple(values))
    except TypeError:  # a pricing table's payoffs are dicts
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(by_position) == hash(by_name) == hash(record) == hash(copies[0]) == hash(copies[1])


def _subclasses(cls: type) -> list[type]:
    return [sub for direct in cls.__subclasses__() for sub in (direct, *_subclasses(direct))]


def test_every_record_lists_its_constructor_parameters_as_its_fields():
    """Every record class of the package, the report columns and the CLI's
    inputs too, lists its constructor's parameters, in order, as its fields,
    and takes no `*args`, `**kwargs` or keyword-only parameter, which
    equality, hash and repr would not see."""
    for module in ("catalog", "cdr", "classify", "cli", "cost", "sensitivity", "simulate", "traffic"):
        importlib.import_module(f"tariffopt.{module}")
    records = [cls for cls in _subclasses(_Record) if cls.__module__.startswith("tariffopt.")]
    assert {"Column", "Report", "Inputs"} | {cls.__name__ for cls in RECORD_CLASSES} <= {
        cls.__name__ for cls in records
    }
    for cls in records:
        parameters = inspect.signature(cls).parameters.values()
        assert [p.kind for p in parameters] == [inspect.Parameter.POSITIONAL_OR_KEYWORD] * len(parameters), cls
        assert tuple(p.name for p in parameters) == cls.__match_args__, cls


def test_catalog_file_on_disk_loads():
    with CATALOG_PATH.open("rb") as fh:
        catalog = load_catalog(fh)
    assert len(catalog.plans) == 6
