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
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest

from cg_reference import haar_state
from schurstream import __version__
from schurstream.cli import _emit_dist, run
from schurstream.partitions import Partition, one_box
from schurstream.sampler import BranchDistribution, branch_distribution, run_full_state

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


def reference_dist_report(args, dist) -> str:
    """The `dist`/`full` report as it was written from the path tuples:
    each path's text joined from a table of the step names, and the whole
    report through json's indenting encoder; the CSV rows a cell at a
    time, floats to 17 significant digits and ';' for the commas inside a
    label or path."""
    names = [str(j) for j in range(dist.d)]
    entries = dist.entries
    if args.format == "csv":
        lines = ["lambda,path,probability"]
        for s, p in entries.items():
            lam = ",".join([str(s.count(j) + (j == 0)) for j in range(dist.d)])
            path = ",".join([names[j] for j in s])
            lines.append(f"{lam.replace(',', ';')},{path.replace(',', ';')},{p:.17g}")
        return "\n".join(lines) + "\n"
    config = {k: v for k, v in vars(args).items() if k != "schema"}
    return json.dumps({
        "version": __version__, "config": config,
        "paths": {",".join([names[j] for j in s]): p for s, p in entries.items()},
        "marginal": {str(lam): p for lam, p in dist.marginal.items()},
        "pruned": dist.pruned,
    }, sort_keys=True, indent=2)


def synthetic(d: int, paths, weights, pruned: float = 0.0) -> BranchDistribution:
    """A distribution of the given paths, put in the walk's sorted order,
    with the mass of each in one label's marginal."""
    paths = np.array(paths, dtype=np.min_scalar_type(d - 1))
    order = sorted(range(len(paths)), key=lambda i: paths[i].tolist())
    weights = np.array(weights, dtype=float)[order]
    marginal = {one_box(d): float(weights.sum())} if len(weights) else {}
    return BranchDistribution(d=d, paths=paths[order], weights=weights,
                              marginal=marginal, pruned=pruned)


def _steps_past_nine():
    """Paths at d = 13 whose steps include 10 to 12, so the order of their
    texts is not the order of their steps ("10" < "2")."""
    rng = np.random.default_rng(4)
    paths = np.unique(rng.choice([0, 1, 2, 9, 10, 11, 12], size=(300, 4)), axis=0)
    return synthetic(13, paths, rng.random(len(paths)) / len(paths))


def _walk(d: int, n: int):
    rng = np.random.default_rng(d)
    return branch_distribution([haar_state(d, rng) for _ in range(n)], d)


def _full(n: int):
    return run_full_state(haar_state(2 ** n, np.random.default_rng(n)), 2)


DISTRIBUTIONS = {
    "steps-past-nine": _steps_past_nine,
    "one-qudit": lambda: synthetic(2, np.zeros((1, 0)), [1.0]),
    "all-pruned": lambda: synthetic(3, np.zeros((0, 4)), [], pruned=1.0),
    "nan-and-inf": lambda: synthetic(
        3, [[0, 0], [0, 1], [0, 2], [1, 0], [1, 2]],
        [float("nan"), float("inf"), -float("inf"), 0.25, 1e-300]),
    "walk-d2": lambda: _walk(2, 9),
    "walk-d3": lambda: _walk(3, 6),
    "walk-d4": lambda: _walk(4, 5),
    "walk-d11": lambda: _walk(11, 4),  # two-byte step names, steps below 4
    "full-d2": lambda: _full(7),
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name", DISTRIBUTIONS)
def test_dist_report_is_the_tuple_formula(name, fmt):
    """The report spelled from the sorted arrays is byte for byte the one
    spelled from the path tuples, in JSON and CSV: string order past step
    9, the empty path of one qudit, an empty "paths" object, NaN and
    infinite weights, and real walks."""
    dist = DISTRIBUTIONS[name]()
    args = Namespace(command="dist", d=dist.d, format=fmt, prune=1e-12, stream="s.json")
    assert _emit_dist(args, dist) == reference_dist_report(args, dist)


def test_the_text_order_differs_from_the_step_order():
    """The d = 13 case tests what it is meant to: its rows, in step order,
    are not in the order of their texts."""
    texts = list(json.loads(reference_dist_report(
        Namespace(format="json"), _steps_past_nine()))["paths"])
    steps = [tuple(s) for s in _steps_past_nine().paths.tolist()]
    assert texts == sorted(texts)
    assert [",".join(map(str, s)) for s in steps] != texts


if __name__ == "__main__":
    os.chdir(DATA)
    commands = {**EXACT, **CLOSE}
    reports = json.loads(GOLDEN.read_text()) if sys.argv[1:] else {}
    reports.update({name: _render(commands[name]) for name in sys.argv[1:] or commands})
    GOLDEN.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n")
