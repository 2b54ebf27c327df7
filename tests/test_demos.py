"""Each demo script runs to completion on the bundled data.

The demos run from a copy of `demos/` and `data/`, so that files they write
(demo 05 writes `sweep.csv` next to itself) stay out of the checkout.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tariffopt

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(tariffopt.__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0*.py"))


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.fixture(scope="module")
def demo_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("demo-run")
    shutil.copytree(ROOT / "demos", root / "demos", ignore=shutil.ignore_patterns("sweep.csv", "__pycache__"))
    shutil.copytree(ROOT / "data", root / "data")
    return root


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, demo_root):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, str(demo_root / "demos" / demo)],
        cwd=demo_root,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout
    if demo.startswith("05"):
        assert (demo_root / "demos" / "sweep.csv").read_text().startswith("k,optimal_plan,")
