"""The exact stdout of every report command in every format, on the bundled
data (lookup billing, six months, `simulate --runs 200 --seed 7`), and of
`rank`, `sweep`, `fit` and `simulate` under cumulative billing (files
`<command>-cumulative.*`).

A mismatch prints a unified diff against the pinned file in `tests/golden/`.
After a deliberate output change, regenerate the files from the repository
root with:  PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import difflib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tariffopt.cli import FORMATS, main

from conftest import CATALOG_PATH, CDR_PATH, PREFIXES_PATH

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"

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
    "sweep-cumulative": ["sweep", *CUMULATIVE],
    "fit-cumulative": ["fit", *CUMULATIVE],
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


def _refuse(constant):
    raise ValueError(f"not strict JSON: {constant}")


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda path: path.name)
def test_json_goldens_are_strict_json(path):
    """No golden JSON holds `Infinity` or `NaN`, which JSON does not define."""
    json.loads(path.read_text(encoding="utf-8"), parse_constant=_refuse)


def test_rank_reads_inputs_that_start_with_a_byte_order_mark(tmp_path, capsys):
    """Spreadsheet tools often save a UTF-8 byte-order mark ahead of the text."""
    catalog, cdr = tmp_path / "catalog.json", tmp_path / "cdr.csv"
    catalog.write_bytes("\ufeff".encode() + CATALOG_PATH.read_bytes())
    cdr.write_bytes("\ufeff".encode() + CDR_PATH.read_bytes())
    assert main(["rank", "--catalog", str(catalog), "--cdr", str(cdr), *BASE[4:]]) == 0
    assert capsys.readouterr().out == (GOLDEN / "rank.table").read_text(encoding="utf-8")


def _fresh_stdout(argv: list[str]) -> str:
    """Stdout of the command run by `main` in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", "import sys; from tariffopt.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_calls_in_one_process_share_no_state(capsys):
    """main() keeps its parser between calls; no call's options, defaults or
    failure may leak into the next one."""
    unscaled = BASE[:-2]  # without `--months 6`: the window comes from the CDR
    calls = [
        (["rank", *BASE], (GOLDEN / "rank.table").read_text(encoding="utf-8")),
        (["sweep", *BASE, "--k-step", "0.25"], None),
        (["sweep", *BASE], (GOLDEN / "sweep.table").read_text(encoding="utf-8")),
        (["fit", *unscaled], None),
    ]
    for argv, expected in calls:
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == (expected if expected is not None else _fresh_stdout(argv)), argv
    with pytest.raises(SystemExit) as rejected:
        main(["rank", *BASE, "--format", "xml"])
    assert rejected.value.code == 2
    assert capsys.readouterr().out == ""
    assert main(["rank", *BASE]) == 0
    assert capsys.readouterr().out == calls[0][1]


if __name__ == "__main__":
    import contextlib
    import io

    GOLDEN.mkdir(exist_ok=True)
    for command, fmt in CASES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(_argv(command, fmt)) == 0
        (GOLDEN / f"{command}.{fmt}").write_text(buf.getvalue(), encoding="utf-8", newline="")
