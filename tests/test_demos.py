"""Each demo script runs to completion on the bundled data and prints
exactly its pinned output, `tests/golden/demo-0N.txt`; the `sweep.csv` that
demo 05 writes is pinned in `tests/golden/demo-05-sweep.csv`.

The demos run from a copy of `demos/` and `data/`, so that files they write
(demo 05 writes `sweep.csv` next to itself) stay out of the checkout. No
demo prints where it runs, so the copy's output is compared byte for byte.
After a deliberate output change, regenerate the pinned files from the
repository root with:  PYTHONPATH=src python tests/test_demos.py
"""

from __future__ import annotations

import difflib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import tariffopt

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(tariffopt.__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0*.py"))
SWEEP_CSV = GOLDEN / "demo-05-sweep.csv"


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


def _copy_inputs(root: Path) -> None:
    shutil.copytree(ROOT / "demos", root / "demos", ignore=shutil.ignore_patterns("sweep.csv", "__pycache__"))
    shutil.copytree(ROOT / "data", root / "data")


def _run_demo(demo: str, root: Path) -> str:
    """Stdout of `demo` run from the copy at `root`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, str(root / "demos" / demo)],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def _golden(demo: str) -> Path:
    return GOLDEN / f"demo-{demo[:2]}.txt"


@pytest.fixture(scope="module")
def demo_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("demo-run")
    _copy_inputs(root)
    return root


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, demo_root):
    out = _run_demo(demo, demo_root)
    path = _golden(demo)
    expected = path.read_text(encoding="utf-8")
    if out != expected:
        diff = difflib.unified_diff(
            expected.splitlines(keepends=True),
            out.splitlines(keepends=True),
            fromfile=str(path),
            tofile="stdout",
        )
        pytest.fail("output differs from the golden file:\n" + "".join(diff), pytrace=False)
    if demo.startswith("05"):
        assert (demo_root / "demos" / "sweep.csv").read_bytes() == SWEEP_CSV.read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        _copy_inputs(Path(tmp))
        for demo in DEMOS:
            _golden(demo).write_text(_run_demo(demo, Path(tmp)), encoding="utf-8", newline="")
        shutil.copyfile(Path(tmp) / "demos" / "sweep.csv", SWEEP_CSV)
