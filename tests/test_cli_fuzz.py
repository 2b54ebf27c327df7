"""Mutation fuzz of the command line.

Each example mutates one input of the bundled worked example (a node of the
catalog's JSON tree, or one to three lines of the printout, the prefix table
or a holiday list) and runs one command in process. Whatever the input, the
run exits 0, 1 (input it cannot use) or 2 (a file it cannot read), never 3
(an engine fault); a failed run writes nothing to stdout and one `error:`
line to stderr, and a JSON report is strict JSON, with no `Infinity` or
`NaN`. A mutated catalog that loads survives `serialize_catalog`, and its
names, providers and classes are JSON strings. The grid fuzz runs `sweep`
and `fit` over drawn multiplier grids, and each run exits 0 or 1.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from tariffopt import load_catalog, serialize_catalog
from tariffopt.catalog import CatalogError
from tariffopt.cli import FORMATS, main
from tariffopt.cost import BILLING_MODES
from tariffopt.sensitivity import MAX_GRID_POINTS

from conftest import CATALOG_PATH, CDR_PATH, PREFIXES_PATH

CATALOG_TEXT = CATALOG_PATH.read_text(encoding="utf-8")
CATALOG = json.loads(CATALOG_TEXT)
LINES = {
    "cdr": CDR_PATH.read_text(encoding="utf-8").splitlines(),
    "prefixes": PREFIXES_PATH.read_text(encoding="utf-8").splitlines(),
    "holidays": ["# public holidays", "2010-03-08", "2010-05-03", "2010-05-10", "2010-06-14"],
}
COMMANDS = {
    "rank": [],
    "sweep": [],
    "fit": [],
    "analyze": [],
    "simulate": ["--runs", "50"],
}
#: the value a catalog edit sets to delete its node
DELETE = "<delete>"

#: field texts near the edges of what each reader accepts
TOKENS = [
    "", " ", "01.01.0001", "31.12.9999", "29.02.2011", "29.02.2000", "31.04.2010", "00.00.0000",
    "24:00:00", "23:59:60", "00:00:00", "1000000:00", "0:00", "0:01", "-1:00", "1:60", "99999999999999999999:00",
    "Tel", "SMS", "+7916", "+79161234567", "+7", "same-network", "landline", "other-mobile", "workday",
    "9999-12-31", "0001-01-01", "2010-02-29", "2010-03-08", '"', "nan", "inf", "1e400", "-0", "\ufeff",
]
texts = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
fields = st.sampled_from(TOKENS) | texts


def _nodes(node, path=()):
    """The path of every node of a JSON tree, the root first."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _get(tree, path):
    for key in path:
        tree = tree[key]
    return tree


PATHS = list(_nodes(CATALOG))[1:]
#: a node's new value: an edge value, any number or text, a subtree of the
#: catalog itself, or DELETE
json_values = (
    st.sampled_from([None, True, False, 0, -1, 1, 2, 6, 10**20, 2**63, 1.5, float("inf"), float("nan"),
                     "open", "any", "1e400", "1e307", "-0", "0.05", [], {}, ["MTS"], [None, 5], DELETE])
    | st.integers()
    | st.floats()
    | fields
    | st.sampled_from([_get(CATALOG, path) for path in PATHS])
)
catalog_edits = st.tuples(st.just("catalog"), st.tuples(st.sampled_from(PATHS), json_values))


@st.composite
def line_edits(draw, name):
    """One to three lines of input `name` rewritten, or added after its end:
    one field set to a drawn text, or the whole line."""
    lines, edits = LINES[name], []
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines)))
        parts = (lines[i] if i < len(lines) else lines[-1]).split(";")
        if draw(st.booleans()):
            parts[draw(st.integers(0, len(parts) - 1))] = draw(fields)
            edits.append((i, ";".join(parts)))
        else:
            edits.append((i, draw(fields)))
    return name, tuple(edits)


mutations = catalog_edits | line_edits("cdr") | line_edits("prefixes") | line_edits("holidays")


def _mutated(mutation) -> tuple[str, str]:
    """The name of the one input `mutation` edits, and its text."""
    name, edit = mutation
    if name == "catalog":
        path, value = edit
        tree = json.loads(CATALOG_TEXT)
        parent = _get(tree, path[:-1])
        if value == DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        return name, json.dumps(tree)
    lines = list(LINES[name])
    for i, line in edit:
        lines[i:i + 1] = [line]
    return name, "\n".join(lines) + "\n"


def _refuse(constant):
    raise ValueError(f"not strict JSON: {constant}")


def _checked_main(argv, fmt: str) -> int:
    """The exit code of one in-process run, which is not 3. A failed run
    writes nothing to stdout and one `error:` line to stderr, and a JSON
    report is strict JSON."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code != 3, err.getvalue()
    if code:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, err.getvalue()
    elif fmt == "json":
        json.loads(out.getvalue(), parse_constant=_refuse)
    return code


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The path of each unmutated input, by option name."""
    root = tmp_path_factory.mktemp("fuzz")
    paths = {"catalog": CATALOG_PATH, "cdr": CDR_PATH, "prefixes": PREFIXES_PATH, "holidays": root / "holidays"}
    paths["holidays"].write_text("\n".join(LINES["holidays"]) + "\n", encoding="utf-8")
    return root, paths


@settings(max_examples=1000, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(mutations, st.sampled_from(sorted(COMMANDS)), st.sampled_from(BILLING_MODES), st.sampled_from(FORMATS))
@example(("cdr", ((2, "01.01.0001;10:44:13;+791655583;Moscow;Tel;1:22;3.000"),)), "rank", "lookup", "table")
@example(("cdr", ((246, "31.12.9999;19:37:23;+798522193;Moscow;Tel;0:16;3.000"),)), "sweep", "cumulative", "table")
@example(("cdr", ((2, "02.03.2010;24:00:00;+791655583;Moscow;Tel;1:22;3.000"),)), "analyze", "lookup", "table")
@example(("cdr", ((2, "02.03.2010;10:44:13;+791655583;Moscow;Tel;1000000:00;3.000"),)), "simulate", "cumulative",
         "table")
@example(("catalog", (("plans", 0, "provider"), None)), "rank", "lookup", "table")
@example(("catalog", (("context", "owned_sim_providers"), [None, 5])), "rank", "cumulative", "table")
@example(("catalog", (("plans", 0, "subgroups", 0, "segments", 0, "rate"), "1e307")), "rank", "cumulative", "json")
@example(("catalog", (("plans", 0, "subgroups", 0, "segments", 0, "rate"), "1e307")), "simulate", "lookup", "json")
def test_one_mutated_input_is_a_result_or_an_input_error(inputs, mutation, command, mode, fmt):
    root, paths = inputs
    name, text = _mutated(mutation)
    mutated = root / f"mutated-{name}"
    mutated.write_text(text, encoding="utf-8")
    argv = [command, "--billing-mode", mode, "--format", fmt, *COMMANDS[command]]
    for option, path in paths.items():
        argv += [f"--{option}", str(mutated if option == name else path)]
    assert _checked_main(argv, fmt) in (0, 1, 2)
    if name == "catalog":
        try:
            catalog = load_catalog(text)
        except CatalogError:
            return
        assert load_catalog(serialize_catalog(catalog)) == catalog
        doc = json.loads(text)  # it loaded, so every field the loader reads is there
        words = [plan[key] for plan in doc["plans"] for key in ("name", "provider")]
        words += [sub[key] for plan in doc["plans"] for sub in plan["subgroups"]
                  for key in ("name", "destination_class", "day_class")]
        words += doc["context"].get("owned_sim_providers", [])
        assert all(isinstance(word, str) for word in words), words


#: grid option texts at the edges of what `k_grid` takes: starts that round
#: to 0 at 12 decimals, steps near that resolution, stops near the float
#: range, texts that read as inf or nan, and negative values
GRID_EDGES = ["0", "-0", "1e-13", "4e-13", "5e-13", "1e-12", "1.5e-12", "1e-11", "0.01", "0.5", "1", "10", "-1",
              "-0.5", "-1e-12", "1e300", "1e307", "1.7e308", "1e400", "inf", "-inf", "nan", "NaN", "Infinity"]
grid_values = st.sampled_from(GRID_EDGES) | st.floats().map(repr)
#: positive starts and steps, so that many drawn grids are built
positive_values = (st.floats(1e-14, 1e-10) | st.floats(1e-3, 1e3)).map(repr)


def _small_or_refused(start: str, stop: str, step: str) -> bool:
    """Whether `k_grid` refuses the grid before it builds a list, or builds
    at most about 2,000 points."""
    first, last, by = float(start), float(stop), float(step)
    if not (0 < round(first, 12) and first <= last < math.inf and 0 < by < math.inf):
        return True
    steps = (last - first) / by
    return steps <= 2000 or steps >= MAX_GRID_POINTS


@st.composite
def grids(draw):
    """`--k-from`, `--k-to` and `--k-step` texts. One stop in three is an
    edge value or any float, the others the start plus up to 2,000 steps; a
    grid of more points that `k_grid` would still build is not drawn."""
    start, step = draw(positive_values | grid_values), draw(positive_values | grid_values)
    if not draw(st.integers(0, 2)):
        stop = draw(grid_values)
    else:
        stop = repr(float(start) + draw(st.integers(0, 2000)) * float(step))
    assume(_small_or_refused(start, stop, step))
    return start, stop, step


@pytest.fixture(scope="module")
def heavy_fee_catalog(inputs):
    """The bundled catalog with plan 6, the current plan, at a fee of 1e307."""
    doc = json.loads(CATALOG_TEXT)
    doc["plans"][5]["fixed"]["subscription_fee"] = "1e307"
    path = inputs[0] / "heavy-fee-catalog"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.booleans(), st.sampled_from(["sweep", "fit"]), st.sampled_from(BILLING_MODES), st.sampled_from(FORMATS),
       grids())
@example(True, "fit", "lookup", "json", ("0.01", "0.05", "0.01"))
def test_a_drawn_grid_is_a_result_or_an_input_error(inputs, heavy_fee_catalog, heavy_fee, command, mode, fmt, grid):
    """`sweep` and `fit` over a drawn grid exit 0 or 1, on the bundled
    catalog or on one whose current plan has a fee of 1e307 (on a grid of
    small k, its stay curve's slope overflows)."""
    _, paths = inputs
    catalog = heavy_fee_catalog if heavy_fee else paths["catalog"]
    argv = [command, "--billing-mode", mode, "--format", fmt, "--catalog", str(catalog), "--cdr", str(paths["cdr"]),
            "--prefixes", str(paths["prefixes"])]
    # `--option=value`, as argparse reads a value such as -inf as an option
    argv += [f"--{option}={value}" for option, value in zip(("k-from", "k-to", "k-step"), grid)]
    assert _checked_main(argv, fmt) in (0, 1)
