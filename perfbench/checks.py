"""Seed-independent correctness checks on op outputs and on the trace.

Every function returns a list of error strings; an op with any error
counts as failed.  They run after the timed region.
"""

from __future__ import annotations

import json
import math

TOTAL_TOL = 1e-9       # |total + pruned - 1| for dist and full
INVARIANCE_TOL = 1e-9  # full marginal under U^(x)n
ORACLE_TOL = 1e-12     # oracle marginal vs the exact Schur-Weyl weight
DEVIATION_TOL = 1e-9   # oracle --compare max_deviation


def _steps(path: str) -> tuple[int, ...]:
    return tuple(int(x) for x in path.split(",")) if path else ()


def _walk(steps, d: int):
    """The labels lambda^1 .. lambda^n along a path, or None when a step
    leaves Young's lattice."""
    parts = [1] + [0] * (d - 1)
    labels = [tuple(parts)]
    for j in steps:
        if not 0 <= j < d or (j > 0 and parts[j - 1] == parts[j]):
            return None
        parts[j] += 1
        labels.append(tuple(parts))
    return labels


def _sample(call, body) -> list[str]:
    d, n = call["d"], call["n"]
    errs = []
    if len(body["trials"]) != call["trials"]:
        errs.append(f"sample: {len(body['trials'])} trials, want {call['trials']}")
    for t in body["trials"]:
        lam = tuple(int(x) for x in t["lambda"].split(","))
        steps = _steps(t["path"])
        labels = _walk(steps, d)
        if len(lam) != d or sum(lam) != n or any(
                a < b for a, b in zip(lam, lam[1:])) or min(lam) < 0:
            errs.append(f"sample: {t['lambda']} is not a partition of {n}")
        if len(steps) != n - 1 or labels is None or labels[-1] != lam:
            errs.append(f"sample: path {t['path']} does not end at {t['lambda']}")
    return errs


def _branches(call, body) -> list[str]:
    total = math.fsum(body["paths"].values())
    pruned = body["pruned"]
    errs = []
    if not 0.0 <= pruned <= 1.0:
        errs.append(f"{call['kind']}: pruned mass {pruned} outside [0, 1]")
    if abs(total + pruned - 1.0) > TOTAL_TOL:
        errs.append(f"{call['kind']}: total {total} + pruned {pruned} != 1")
    return errs


def _oracle(call, body) -> list[str]:
    from schurstream.partitions import partitions_of, schur_weyl_weight

    want = {str(lam): float(schur_weyl_weight(lam))
            for lam in partitions_of(call["n"], call["d"])}
    got = body["marginal"]
    errs = []
    if set(got) != set(want):
        errs.append(f"oracle: labels {sorted(got)} != {sorted(want)}")
    for lam in set(got) & set(want):
        if abs(got[lam] - want[lam]) > ORACLE_TOL:
            errs.append(f"oracle: p({lam}) = {got[lam]}, Schur-Weyl weight {want[lam]}")
    if not body.get("max_deviation", math.inf) <= DEVIATION_TOL:
        errs.append(f"oracle: max_deviation {body.get('max_deviation')}")
    return errs


CONTENT = {"sample": _sample, "dist": _branches, "full": _branches,
           "oracle": _oracle}


def check_op(op: list, out: list, reference: list) -> list[str]:
    """Exit codes, output content, and byte-identity with the cold op
    (every op is a deterministic function of its input files)."""
    errs = []
    for call, (code, text) in zip(op, out):
        if code != 0:
            errs.append(f"{call['kind']}: exit {code}: {text[:300]}")
            continue
        try:
            body = json.loads(text)
        except ValueError:
            errs.append(f"{call['kind']}: output is not JSON")
            continue
        errs.extend(CONTENT[call["kind"]](call, body))
    if out != reference:
        errs.append("output differs from the cold op's")
    return errs


def check_invariance(op: list, out: list, cli) -> list[str]:
    """The `full` lambda marginal is unchanged when U^(x)n is applied to
    the input state (the generator wrote the rotated copy)."""
    errs = []
    for call, (code, text) in zip(op, out):
        if call["kind"] != "full" or code != 0:
            continue
        argv = list(call["argv"])
        argv[argv.index("--state") + 1] = call["rotated"]
        code2, text2 = cli.run(argv)
        if code2 != 0:
            errs.append(f"full (rotated input): exit {code2}: {text2[:300]}")
            continue
        a, b = json.loads(text)["marginal"], json.loads(text2)["marginal"]
        if set(a) != set(b) or any(abs(a[k] - b[k]) > INVARIANCE_TOL for k in a):
            errs.append("full: marginal changed under U^(x)n")
    return errs


def check_trace(op: list, out: list, m: dict, cold: bool) -> list[str]:
    """Trace counts against what the outputs imply: one `step` per box
    after the first, one CG build per distinct non-final label (cold op),
    one branch node per distinct proper prefix of the leaves (exact
    when nothing was pruned)."""
    errs = []
    steps = sum(c["trials"] * (c["n"] - 1) for c in op if c["kind"] == "sample")
    if m["sampler.steps"] != steps:
        errs.append(f"trace: sampler.steps {m['sampler.steps']} != {steps}")
    for call, (code, text) in zip(op, out):
        if code != 0:
            continue
        body = json.loads(text)
        kind = call["kind"]
        if kind == "sample" and cold:
            labels = set()
            for t in body["trials"]:
                labels.update((_walk(_steps(t["path"]), call["d"]) or [])[:-1])
            if m["cg.builds"] != len(labels):
                errs.append(f"trace: cg.builds {m['cg.builds']} != {len(labels)} labels")
        if kind in ("dist", "full") and body["pruned"] == 0:
            leaves = [_steps(p) for p in body["paths"]]
            prefixes = {s[:k] for s in leaves for k in range(len(s))}
            if m[f"sampler.{kind}_nodes"] != len(prefixes):
                errs.append(f"trace: sampler.{kind}_nodes {m[f'sampler.{kind}_nodes']}"
                            f" != {len(prefixes)} prefixes")
            if kind == "dist" and m["sampler.dist_leaves"] != len(leaves):
                errs.append(f"trace: sampler.dist_leaves {m['sampler.dist_leaves']}"
                            f" != {len(leaves)}")
    return errs
