"""The package namespace: `import tariffopt` loads no submodule, each public
name resolves on first use to the object its defining module holds, and a
command loads only the modules it runs."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tariffopt

from conftest import CATALOG_PATH, CDR_PATH, PREFIXES_PATH

SRC = Path(tariffopt.__file__).resolve().parents[1]

#: every public name, by the module that defines it
DEFINED_IN = {
    "catalog": [
        "ANY", "DAY_CLASSES", "DESTINATION_CLASSES", "BillingPlan", "Catalog", "CatalogError",
        "CdrError", "FixedCostSpec", "PayoffFunction", "RateSegment", "SubgroupRule",
        "SubscriberContext", "load_catalog", "serialize_catalog",
    ],
    "cdr": ["CallLog", "CallRecord", "parse_cdr"],
    "classify": ["CallTable", "PrefixTable", "WorkdayCalendar", "classify_calls"],
    "cost": [
        "BILLING_MODES", "CostBreakdown", "Ranking", "SubgroupCost", "expected_call_cost",
        "full_costs", "rank",
    ],
    "sensitivity": [
        "RegressionFit", "Sweep", "SwitchInterval", "fit_report", "k_grid", "sweep",
        "switch_points",
    ],
    "simulate": ["PlanSample", "SimConfig", "SimResult", "SimulationError", "replay_trace", "run"],
    "traffic": [
        "Empirical", "Exponential", "ExponentialFit", "ProfileError", "TrafficCell",
        "TrafficProfile", "build_histogram", "estimate_profile", "fit_exponential",
        "observation_months",
    ],
}

#: the names the package exported when it imported every submodule eagerly
EXPORTED = [
    "ANY", "BILLING_MODES", "BillingPlan", "CallLog", "CallRecord", "CallTable", "Catalog",
    "CatalogError", "CdrError", "CostBreakdown", "DAY_CLASSES", "DESTINATION_CLASSES",
    "Empirical", "Exponential", "ExponentialFit", "FixedCostSpec", "PayoffFunction",
    "PlanSample", "PrefixTable", "ProfileError", "Ranking", "RateSegment", "RegressionFit",
    "SimConfig", "SimResult", "SimulationError", "SubgroupCost", "SubgroupRule",
    "SubscriberContext", "Sweep", "SwitchInterval", "TrafficCell", "TrafficProfile",
    "WorkdayCalendar", "build_histogram", "classify_calls", "estimate_profile",
    "expected_call_cost", "fit_exponential", "fit_report", "full_costs", "k_grid",
    "load_catalog", "observation_months", "parse_cdr", "rank", "replay_trace", "run",
    "serialize_catalog", "sweep", "switch_points",
]


def test_all_lists_the_exported_names_once():
    assert len(EXPORTED) == 51
    assert sorted(tariffopt.__all__) == EXPORTED
    assert sorted(name for names in DEFINED_IN.values() for name in names) == EXPORTED


@pytest.mark.parametrize("module", sorted(DEFINED_IN))
def test_each_name_is_its_defining_modules_object(module):
    defining = importlib.import_module(f"tariffopt.{module}")
    for name in DEFINED_IN[module]:
        assert getattr(tariffopt, name) is getattr(defining, name), name


def test_dir_lists_every_name():
    assert set(EXPORTED) <= set(dir(tariffopt))


def test_unknown_name_is_an_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="^module 'tariffopt' has no attribute 'no_such_name'$"):
        tariffopt.no_such_name


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from tariffopt import *", namespace)
    for name in EXPORTED:
        assert namespace[name] is getattr(tariffopt, name), name


def test_input_errors_share_one_base():
    from tariffopt.catalog import InputError

    for error in (tariffopt.CatalogError, tariffopt.CdrError, tariffopt.ProfileError, tariffopt.SimulationError):
        assert issubclass(error, InputError)
    assert issubclass(InputError, ValueError)


# --------------------------------------------------------------------------
# what a fresh process loads

PROBE = """
import contextlib, io, json, sys

def loaded():
    return sorted(m for m in sys.modules if m == "tariffopt" or m.startswith("tariffopt."))

import tariffopt
steps = {"import": (loaded(), "numpy" in sys.modules)}
step = sys.argv[1]
if step == "inputs":
    catalog = tariffopt.load_catalog(open(sys.argv[2], "rb"))
    assert catalog.plans[0].subgroups[0][1].rate_at(2) == 0.0
    tariffopt.PrefixTable.from_csv(open(sys.argv[3], "rb"))
    tariffopt.WorkdayCalendar.from_file(b"2010-03-08\\n")
else:
    from tariffopt import cli
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(sys.argv[2:])
    assert code == 0, code
    steps["stdout"] = out.getvalue()
steps[step] = (loaded(), "numpy" in sys.modules)
steps["modules"] = {name: name in sys.modules for name in ("dataclasses", "inspect")}
print(json.dumps(steps))
"""


def _loaded_by(*argv: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_import_then_input_readers_load_catalog_and_classification_only():
    steps = _loaded_by("inputs", str(CATALOG_PATH), str(PREFIXES_PATH))
    assert steps["import"] == [["tariffopt"], False]
    # a catalog, its rates, a prefix table and a holiday list are plain data: no
    # numpy, and plain records, so neither dataclasses nor the inspect it imports
    assert steps["inputs"] == [["tariffopt", "tariffopt.catalog", "tariffopt.classify"], False]
    assert steps["modules"] == {"dataclasses": False, "inspect": False}


def test_validate_loads_the_reader_but_no_classification_profile_sensitivity_or_oracle():
    steps = _loaded_by("validate", "validate", "--catalog", str(CATALOG_PATH), "--cdr", str(CDR_PATH))
    assert steps["validate"] == [
        ["tariffopt", "tariffopt.catalog", "tariffopt.cdr", "tariffopt.cli", "tariffopt.cost"], True,
    ]


def test_validate_of_a_catalog_alone_loads_no_numpy():
    steps = _loaded_by("validate", "validate", "--catalog", str(CATALOG_PATH))
    assert steps["validate"] == [["tariffopt", "tariffopt.catalog", "tariffopt.cli", "tariffopt.cost"], False]
    assert steps["modules"] == {"dataclasses": False, "inspect": False}
    assert steps["stdout"] == "catalog: 6 plans, 1 inactive\ncontext: current plan 6, owned SIMs: MTS\nok\n"


def test_rank_loads_no_sensitivity_or_oracle():
    steps = _loaded_by("rank", "rank", "--catalog", str(CATALOG_PATH), "--cdr", str(CDR_PATH),
                       "--prefixes", str(PREFIXES_PATH))
    assert steps["rank"][0] == [
        "tariffopt", "tariffopt.catalog", "tariffopt.cdr", "tariffopt.classify", "tariffopt.cli",
        "tariffopt.cost", "tariffopt.traffic",
    ]
