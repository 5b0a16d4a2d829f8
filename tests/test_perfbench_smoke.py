"""A smoke run of the benchmark's own checks: each workload's op runs once
under the benchmark's tracer, and its correctness and trace checks find
nothing.  This catches a broken tracer contract (one `cg_transform` build
per distinct label, the branch-node counts) without a timed run.
`perfbench/` is only read."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import checks  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from schurstream import cli  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_checks_pass(workload, tmp_path):
    op = gen.generate(workload, 1, str(tmp_path))["op"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        out = [cli.run(call["argv"]) for call in op]
    finally:
        tracer.uninstall()
    metrics = tracing.reduce(tracer.take())
    assert checks.check_op(op, out, out) == []
    assert checks.check_trace(op, out, metrics, cold=True) == []
