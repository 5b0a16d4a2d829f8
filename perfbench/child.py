"""One fresh-interpreter measurement of a workload's op.

    python3 perfbench/child.py --spec SPEC --spawned T [--trace 0|1]
    python3 perfbench/child.py --environment

The parent passes `time.monotonic()` read just before it started this
process, so `setup_s` covers interpreter start, importing schurstream
and loading the input files.  Then the op runs once cold (every cache
empty: nothing ran before it in this process) and repeatedly warm.  The
reference loop (reference.py) runs right after set-up and after every
untraced op, and each time is also reported scaled by the median of this
process's reference times.  Peak
RSS is read here, after the cold op, from this process: RUSAGE_CHILDREN
in the parent reports the maximum over all children so far.  Correctness
checks and the trace self-test run after the timed region.  The result
is one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)
sys.path.insert(1, HERE)

from schurstream import cli  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from reference import REF_S, reference  # noqa: E402

if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
    sys.exit(f"schurstream imported from {cli.__file__}, not from {SRC}")

# Warm reps per process: at least WARM_MIN, then more while the warm
# phase is shorter than WARM_SECONDS, at most WARM_MAX.  Process-to-process
# noise exceeds rep-to-rep noise, so runs favour more processes.
WARM_MIN, WARM_SECONDS, WARM_MAX = 1, 0.5, 50


def run_op(op: list) -> list:
    """One op: its CLI calls in order; an exception counts as a failure."""
    out = []
    for call in op:
        try:
            out.append(cli.run(call["argv"]))
        except Exception as e:  # noqa: BLE001 - any crash is a failed op
            out.append((-1, f"{type(e).__name__}: {e}"))
    return out


def timed(op: list) -> tuple[float, list]:
    start = time.perf_counter()
    out = run_op(op)
    return time.perf_counter() - start, out


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--spec")
    p.add_argument("--spawned", type=float, help="parent's time.monotonic()")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--check-invariance", action="store_true")
    p.add_argument("--spans-out", default=None)
    p.add_argument("--environment", action="store_true",
                   help="print the versions and thread settings, run nothing")
    args = p.parse_args()
    if args.environment:
        import numpy as np
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        print(json.dumps({
            "python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {k: os.environ.get(k) for k in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}))
        return

    with open(args.spec) as f:
        spec = json.load(f)
    op = spec["op"]
    for item in spec["inputs"]:
        if item["kind"] == "stream":
            cli.load_stream(item["path"], item["d"])
        else:
            cli.load_state(item["path"])
    setup_s = time.monotonic() - args.spawned
    refs = [reference()]

    tracer = tracing.Tracer() if args.trace else None
    layers = {"cold": None, "warm": []}
    kept_spans = []
    if tracer:
        tracer.install()
    cold_s, cold_out = timed(op)
    # The peak of one CLI call: read before the warm reps, whose count
    # varies and whose heap reuse can raise the high-water mark.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    refs.append(reference())
    outputs = [cold_out]
    if tracer:
        kept_spans.append(tracer.take())
        layers["cold"] = tracing.reduce(kept_spans[0])

    # Warm reps; a traced run pairs each untraced rep with a traced one
    # so that the tracing overhead is measured in the same process.
    warm, warm_traced = [], []
    start = time.perf_counter()
    while len(warm) < WARM_MAX and (
            len(warm) < WARM_MIN or time.perf_counter() - start < WARM_SECONDS):
        if tracer:
            tracer.uninstall()
        t, out = timed(op)
        refs.append(reference())
        warm.append(t)
        outputs.append(out)
        if tracer:
            tracer.op = len(warm)
            tracer.install()
            t, out = timed(op)
            warm_traced.append(t)
            outputs.append(out)
            spans = tracer.take()
            layers["warm"].append(tracing.reduce(spans))
            if len(kept_spans) < 2:
                kept_spans.append(spans)
    if tracer:
        tracer.uninstall()

    # outputs[0] is the cold op; in a traced run the traced warm ops are
    # outputs[2], outputs[4], ...
    errors = {i: checks.check_op(op, out, cold_out) for i, out in enumerate(outputs)}
    if args.check_invariance:
        errors[0] += checks.check_invariance(op, cold_out, cli)
    if tracer:
        traced = [0] + list(range(2, len(outputs), 2))
        for i, m in zip(traced, [layers["cold"]] + layers["warm"]):
            errors[i] += checks.check_trace(op, outputs[i], m, cold=i == 0)
        if args.spans_out:
            tracing.dump(args.spans_out, kept_spans)
    failed = sum(bool(e) for e in errors.values())

    speed = REF_S / statistics.median(refs)
    print(json.dumps({
        "scaled": {"setup_s": setup_s * speed, "cold_s": cold_s * speed,
                   "warm_s": [t * speed for t in warm]},
        "ref_s": refs,
        "setup_s": setup_s,
        "cold_s": cold_s,
        "warm_s": warm,
        "warm_traced_s": warm_traced,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(outputs),
        "failed": failed,
        "errors": [e for errs in errors.values() for e in errs][:20],
        "digest": hashlib.sha256(
            json.dumps(cold_out).encode()).hexdigest(),
        "layers": layers,
    }))


if __name__ == "__main__":
    main()
