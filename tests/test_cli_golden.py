"""The exact stdout of every report command in every format, on the bundled
data (lookup billing, six months, `simulate --runs 200 --seed 7`), and of
`rank` and `simulate` under cumulative billing (files `<command>-cumulative.*`).

A mismatch prints a unified diff against the pinned file in `tests/golden/`.
After a deliberate output change, regenerate the files from the repository
root with:  PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import difflib
from pathlib import Path

import pytest

from tariffopt.cli import FORMATS, main

from conftest import CATALOG_PATH, CDR_PATH, PREFIXES_PATH

GOLDEN = Path(__file__).resolve().parent / "golden"

BASE = [
    "--catalog", str(CATALOG_PATH),
    "--cdr", str(CDR_PATH),
    "--prefixes", str(PREFIXES_PATH),
    "--months", "6",
]

SIMULATE = ["--runs", "200", "--seed", "7"]
CUMULATIVE = ["--billing-mode", "cumulative"]

# golden file stem -> command line after the shared inputs
COMMANDS = {
    "analyze": ["analyze"],
    "rank": ["rank"],
    "sweep": ["sweep"],
    "fit": ["fit"],
    "simulate": ["simulate", *SIMULATE],
    "rank-cumulative": ["rank", *CUMULATIVE],
    "simulate-cumulative": ["simulate", *SIMULATE, *CUMULATIVE],
}

CASES = [(name, fmt) for name in COMMANDS for fmt in FORMATS]


def _argv(name: str, fmt: str) -> list[str]:
    command, *extra = COMMANDS[name]
    return [command, *BASE, *extra, "--format", fmt]


@pytest.mark.parametrize("command,fmt", CASES)
def test_stdout_matches_golden(command, fmt, capsys):
    assert main(_argv(command, fmt)) == 0
    out = capsys.readouterr().out
    path = GOLDEN / f"{command}.{fmt}"
    expected = path.read_text(encoding="utf-8")
    if out != expected:
        diff = difflib.unified_diff(
            expected.splitlines(keepends=True),
            out.splitlines(keepends=True),
            fromfile=str(path),
            tofile="stdout",
        )
        pytest.fail("output differs from the golden file:\n" + "".join(diff), pytrace=False)


if __name__ == "__main__":
    import contextlib
    import io

    GOLDEN.mkdir(exist_ok=True)
    for command, fmt in CASES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(_argv(command, fmt)) == 0
        (GOLDEN / f"{command}.{fmt}").write_text(buf.getvalue(), encoding="utf-8", newline="")
