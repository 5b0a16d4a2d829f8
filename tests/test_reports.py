"""Golden reports: the CLI's output on the small inputs in tests/data.

`sample`, `resources`, `cg` and `--schema` are pinned byte for byte.
`dist`, `full` and `oracle` print floats that depend on BLAS rounding, so
their keys, labels, paths, strings and integers are pinned exactly and
their floats within FLOAT_TOL.  The commands run inside tests/data with
relative input paths, so the `config` of every report is fixed.

After a deliberate report change, rewrite the goldens with

    PYTHONPATH=src python tests/test_reports.py [NAME ...]

Given names, only those goldens are rewritten; the others keep their
bytes, so the floats of `dist`, `full` and `oracle` do not move with the
BLAS of the machine that rewrites them.
"""

import json
import math
import os
import sys
from pathlib import Path

import pytest

from schurstream.cli import run

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden_reports.json"
FLOAT_TOL = 1e-15

EXACT = {
    "sample-d2-json": ["sample", "--stream", "qubits.json", "--seed", "5",
                       "--trials", "4"],
    "sample-d2-csv": ["sample", "--stream", "qubits.json", "--seed", "5",
                      "--trials", "4", "--format", "csv"],
    "sample-d3-json": ["sample", "--d", "3", "--stream", "qutrits.json",
                       "--seed", "2"],
    "resources-d2-json": ["resources", "--n", "6", "--epsilon", "0.01"],
    "resources-d2-csv": ["resources", "--n", "6", "--epsilon", "0.01",
                         "--format", "csv"],
    "resources-d3-json": ["resources", "--n", "6", "--d", "3",
                          "--epsilon", "0.01", "--p", "2.5"],
    "resources-d3-csv": ["resources", "--n", "6", "--d", "3",
                         "--epsilon", "0.01", "--format", "csv"],
    "cg-d2": ["cg", "--d", "2", "--lambda", "2,1"],
    "cg-d3": ["cg", "--d", "3", "--lambda", "2,1,0"],
    "cg-d4": ["cg", "--d", "4", "--lambda", "1,1,0,0"],
    "sample-iid-json": ["sample", "--stream", "iid.json", "--seed", "5",
                        "--trials", "4"],
    "sample-iid-d3-json": ["sample", "--d", "3", "--stream", "iid_d3.json",
                           "--seed", "7", "--trials", "3"],
    "schema": ["--schema"],
}

CLOSE = {
    "dist-json": ["dist", "--stream", "qubits.json"],
    "dist-csv": ["dist", "--stream", "qubits.json", "--format", "csv"],
    "dist-d3-json": ["dist", "--d", "3", "--stream", "qutrits.json"],
    "dist-iid-json": ["dist", "--stream", "iid.json"],
    "full-json": ["full", "--state", "state.json"],
    "full-csv": ["full", "--state", "state.json", "--format", "csv"],
    "oracle-json": ["oracle", "--n", "3", "--state", "state.json",
                    "--compare", "iid.json"],
    "oracle-csv": ["oracle", "--n", "3", "--format", "csv"],
    "oracle-d3-json": ["oracle", "--d", "3", "--n", "4", "--state", "state_d3.json",
                       "--compare", "qutrits.json"],
}


def _render(argv: list[str]) -> str:
    code, out = run(argv)
    assert code == 0, out
    return out


def _close(got, want, where: str = "") -> None:
    """Equal up to FLOAT_TOL on floats and exactly on everything else."""
    if isinstance(want, float):
        assert isinstance(got, float) and math.isclose(
            got, want, rel_tol=0.0, abs_tol=FLOAT_TOL), f"{where}: {got} != {want}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for key in want:
            _close(got[key], want[key], f"{where}/{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _close(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def _csv_cells(text: str) -> list[list]:
    """CSV rows with every cell that parses as a number read as a float."""
    def cell(s):
        try:
            return float(s)
        except ValueError:
            return s
    return [[cell(s) for s in line.split(",")] for line in text.split("\n")]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture
def in_data(monkeypatch):
    monkeypatch.chdir(DATA)


@pytest.mark.parametrize("name", EXACT)
def test_exact_report(name, golden, in_data):
    assert _render(EXACT[name]) == golden[name]


@pytest.mark.parametrize("name", CLOSE)
def test_close_report(name, golden, in_data):
    got, want = _render(CLOSE[name]), golden[name]
    if name.endswith("-csv"):
        _close(_csv_cells(got), _csv_cells(want))
    else:
        _close(json.loads(got), json.loads(want))


if __name__ == "__main__":
    os.chdir(DATA)
    commands = {**EXACT, **CLOSE}
    reports = json.loads(GOLDEN.read_text()) if sys.argv[1:] else {}
    reports.update({name: _render(commands[name]) for name in sys.argv[1:] or commands})
    GOLDEN.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n")
