"""Cold/warm benchmark of the `schur` commands.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; NAME is one of workloads.WORKLOADS, or `all`.
run.py is a closed loop with one client: it starts one fresh
interpreter (perfbench/child.py) at a time, and each runs the workload's
op cold once and then warm, each op only after the previous one returned.
Children are started until the next one would end after S seconds (at
least MIN_CHILDREN).  Each end-to-end metric is the median over children
(`warm_s`: over all warm ops); the times are the scaled ones (see
reference.py), and their raw medians are printed beside them.  Every
metric is printed with its sample count; the last line of stdout is the
result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
children run traced (see tracing.py) and the metrics are the per-layer
ones, each as `<name>.cold` and `<name>.warm`, plus `trace.overhead_s`.
Everything the run writes goes under .perfbench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402
MIN_CHILDREN = 3
RUN_LIMIT_S = 170  # the whole run, generation included, ends within this

END_TO_END = {"setup_s": "s", "cold_s": "s", "warm_s": "s", "peak_rss_mb": "MB"}

# BLAS threads change the oracle's time by ~40% on two cores.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class BenchError(RuntimeError):
    pass


def python(script: str, args: list[str], timeout: float) -> str:
    """Run a perfbench script in a fresh interpreter; its stdout."""
    env = dict(os.environ, **CHILD_ENV)
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, script), *args],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{script} timed out after {e.timeout:.0f} s") from e
    if proc.returncode != 0:
        raise BenchError(f"{script} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def tail(samples: list[float]) -> dict:
    """Median, quartiles and the highest of p90/p75 that has at least
    ten samples beyond it."""
    out = {"n": len(samples), "median": statistics.median(samples)}
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        out.update(q1=q1, q3=q3)
    for p in (90, 75):
        if len(samples) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(samples, n=100)[p - 1]
            break
    return out


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    begin = time.monotonic()
    work = os.path.join(WORK, workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    python("gen.py", ["--workload", workload, "--seed", str(seed), "--out",
                      os.path.relpath(work, ROOT)], timeout=60)
    spec = os.path.join(work, "spec.json")
    # Untimed first child: it compiles the bytecode, so no setup_s pays it.
    env_info = last_json(python("child.py", ["--environment"], timeout=60))

    children, durations = [], []
    start = time.monotonic()
    while len(children) < MIN_CHILDREN or (
            time.monotonic() - start + statistics.median(durations) <= seconds):
        args = ["--spec", spec, "--trace", str(int(traced))]
        if not children:
            # Outputs are byte-identical across processes (checked below),
            # so the costly checks run in the first process only.
            args.append("--check-invariance")
            if traced:
                args += ["--spans-out", os.path.join(work, "spans.jsonl")]
        t0 = time.monotonic()
        children.append(last_json(python(
            "child.py", args + ["--spawned", repr(t0)],
            timeout=RUN_LIMIT_S - (t0 - begin))))
        durations.append(time.monotonic() - t0)

    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    errors = [e for c in children for e in c["errors"]]
    digests = {c["digest"] for c in children}
    if len(digests) > 1:
        odd = [c for c in children if c["digest"] != children[0]["digest"]]
        failed += sum(c["attempted"] - c["failed"] for c in odd)
        errors.append(f"cold outputs differ across processes: {len(digests)} digests")

    def gather(pick):
        return {"setup_s": [pick(c)["setup_s"] for c in children],
                "cold_s": [pick(c)["cold_s"] for c in children],
                "warm_s": [t for c in children for t in pick(c)["warm_s"]]}

    stats = {k: tail(v) for k, v in gather(lambda c: c["scaled"]).items()}
    stats["peak_rss_mb"] = tail([c["peak_rss_mb"] for c in children])
    raw_stats = {k: tail(v) for k, v in gather(lambda c: c).items()}
    raw_stats["reference_s"] = tail([t for c in children for t in c["ref_s"]])
    if traced:
        cold = [c["layers"]["cold"] for c in children]
        warm = [w for c in children for w in c["layers"]["warm"]]
        metrics = {}
        for name, unit in tracing.METRICS.items():
            for which, ops in (("cold", cold), ("warm", warm)):
                metrics[f"{name}.{which}"] = {
                    "value": statistics.median(m[name] for m in ops), "unit": unit}
        traced_warm = [t for c in children for t in c["warm_traced_s"]]
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced_warm) - raw_stats["warm_s"]["median"],
            "unit": "s"}
    else:
        metrics = {k: {"value": stats[k]["median"], "unit": u}
                   for k, u in END_TO_END.items()}
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "traced": traced,
        "children": len(children), "measured_s": time.monotonic() - start,
        "failed_ratio": failed / attempted, "errors": errors[:20],
        "environment": dict(env_info, nproc=os.cpu_count(),
                            usable_cpus=len(os.sched_getaffinity(0))),
        "stats": stats, "raw_stats": raw_stats,
    }
    with open(os.path.join(work, "report.json"), "w") as f:
        json.dump({"report": report, "children": children}, f, indent=1)
    return {"report": report,
            "result": {"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics}}


def describe(report: dict) -> str:
    env = report["environment"]
    lines = [f"{report['workload']} (seed {report['seed']}): {report['children']} processes"
             f" in {report['measured_s']:.1f} s, failed_ratio {report['failed_ratio']:.3g}",
             f"  nproc {env['nproc']}, Python {env['python']}, numpy {env['numpy']},"
             f" {env['blas']}, threads {env['threads']}"]
    lines += [f"  error: {e}" for e in report["errors"]]
    def line(label: str, unit: str, s: dict) -> str:
        extra = "".join(f" {k} {v:.4g}" for k, v in s.items() if k not in ("n", "median"))
        return f"  {label:16s} {unit:3s} median {s['median']:.4g} (n={s['n']}){extra}"

    lines += [line(name, END_TO_END[name], s) for name, s in report["stats"].items()]
    lines += [line(f"raw {name}", "s", s) for name, s in report["raw_stats"].items()]
    return "\n".join(lines)


def main() -> None:
    p = argparse.ArgumentParser(description="cold/warm benchmark of the schur commands")
    p.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "schurstream", "cli.py")):
        sys.exit(f"no schurstream sources under {ROOT}/src; run from a checkout")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            out = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print(describe(out["report"]))
            results[name] = out["result"]
    except BenchError as e:
        sys.exit(f"benchmark failed: {e}")
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items()
                    for k, v in r["metrics"].items()}}))


if __name__ == "__main__":
    main()
