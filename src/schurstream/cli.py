"""Command-line front end.

All reports are JSON by default (canonical: sorted keys, no trailing
whitespace) and include the tool version, the resolved configuration and
the RNG seed, so identical (config, seed) runs are byte-identical.
`--format csv` emits a flat projection of the same numbers.

Exit codes: 0 success, 1 validation error, 2 guardrail/size-limit error.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

import numpy as np

from . import __version__
from .cg import cg_transform, verify_sparsity
from .errors import BranchExplosionError, InvalidInputError, SizeLimitError
from .gt_basis import build_irrep
from .oracle import schur_transform, weak_schur_probs
from .partitions import LatticePath, Partition
from .resources import (memory_profile, qubit_gate_count, qudit_gate_bound,
                        two_level_total)
from .sampler import branch_distribution, run_full_state, run_stream

STREAM_SCHEMA = {
    "stream.json": {
        "oneOf": [
            "list of qudit states; each state is a list of amplitudes "
            "(numbers or [re, im] pairs), or {'vector': ...}, or "
            "{'rho': square density matrix of such entries}",
            {"iid": {"rho": "density matrix (entries as above)", "n": "int"}},
        ]
    },
    "state.json": {
        "oneOf": [
            "bare list: amplitude vector of length d^n",
            {"vector": "amplitude vector"},
            {"rho": "d^n x d^n density matrix"},
        ]
    },
}


def _complex_entry(x):
    if isinstance(x, (int, float)):
        return complex(x)
    if isinstance(x, list) and len(x) == 2 and all(
            isinstance(t, (int, float)) for t in x):
        return complex(x[0], x[1])
    raise InvalidInputError(f"bad amplitude entry {x!r}; use a number or [re, im]")


def _parse_array(data, matrix: bool = False):
    """A vector or matrix with entries as numbers or [re, im] pairs.

    A bare nested list is read as a vector of [re, im] pairs; density
    matrices must be requested explicitly (the iid form, or {"rho": ...})
    to keep 2x2 inputs unambiguous.
    """
    if isinstance(data, dict):
        if "vector" in data:
            return _parse_array(data["vector"])
        if "rho" in data:
            return _parse_array(data["rho"], matrix=True)
        raise InvalidInputError("dict state needs 'vector' or 'rho'")
    if not isinstance(data, list) or not data:
        raise InvalidInputError("expected a non-empty list")
    if matrix:
        return np.array([[_complex_entry(x) for x in row] for row in data])
    return np.array([_complex_entry(x) for x in data])


def load_stream(path: str, d: int) -> list[np.ndarray]:
    with open(path) as f:
        data = json.load(f)
    if isinstance(data, dict) and "iid" in data:
        spec = data["iid"]
        rho = _parse_array(spec["rho"], matrix=True)
        return [rho] * int(spec["n"])
    if not isinstance(data, list):
        raise InvalidInputError("stream file must be a list or {'iid': ...}")
    out = []
    for i, item in enumerate(data):
        try:
            out.append(_parse_array(item))
        except InvalidInputError as e:
            raise InvalidInputError(f"stream element {i}: {e}") from e
    return out


def load_state(path: str):
    with open(path) as f:
        data = json.load(f)
    if isinstance(data, dict) and not ("vector" in data or "rho" in data):
        raise InvalidInputError("state file needs 'vector' or 'rho'")
    return _parse_array(data)


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _report(config: dict, body: dict) -> dict:
    return {"version": __version__, "config": config, **body}


def _emit_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2)


def _dist_rows(dist) -> list[tuple[str, str, float]]:
    rows = []
    for steps in sorted(dist.entries):
        path = LatticePath(steps)
        rows.append((str(path.endpoint(dist.d)), str(path), dist.entries[steps]))
    return rows


def _dist_body(dist) -> dict:
    return {
        "paths": {str(LatticePath(s)): dist.entries[s] for s in sorted(dist.entries)},
        "marginal": {str(lam): p for lam, p in dist.marginal.items()},
        "pruned": dist.pruned,
    }


def _csv(header: list[str], rows) -> str:
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(x) if isinstance(x, float) else str(x)
                           for x in row) + "\n")
    return buf.getvalue()


def cmd_sample(args) -> tuple[int, str]:
    stream = load_stream(args.stream, args.d)
    config = {"command": "sample", "d": args.d, "stream": args.stream,
              "seed": args.seed, "trials": args.trials, "format": args.format}
    trials = []
    for t in range(args.trials):
        res = run_stream(stream, args.d, seed=args.seed + t)
        trials.append({"trial": t, "seed": args.seed + t,
                       "lambda": str(res.lam), "path": str(res.path)})
    counts: dict[str, int] = {}
    for t in trials:
        counts[t["lambda"]] = counts.get(t["lambda"], 0) + 1
    if args.format == "csv":
        rows = [(t["trial"], t["lambda"].replace(",", ";"),
                 t["path"].replace(",", ";")) for t in trials]
        return 0, _csv(["trial", "lambda", "path"], rows)
    body = {"seed": args.seed, "trials": trials, "counts": counts}
    if args.trials == 1:
        body.update({"lambda": trials[0]["lambda"], "path": trials[0]["path"]})
    return 0, _emit_json(_report(config, body))


def cmd_dist(args) -> tuple[int, str]:
    stream = load_stream(args.stream, args.d)
    config = {"command": "dist", "d": args.d, "stream": args.stream,
              "prune": args.prune, "branch_cap": args.branch_cap,
              "format": args.format}
    dist = branch_distribution(stream, args.d, prune=args.prune,
                               branch_cap=args.branch_cap)
    if args.format == "csv":
        rows = [(lam.replace(",", ";"), path.replace(",", ";"), p)
                for lam, path, p in _dist_rows(dist)]
        return 0, _csv(["lambda", "path", "probability"], rows)
    return 0, _emit_json(_report(config, _dist_body(dist)))


def cmd_full(args) -> tuple[int, str]:
    state = load_state(args.state)
    config = {"command": "full", "d": args.d, "state": args.state,
              "prune": args.prune, "limit": args.limit, "format": args.format}
    dist = run_full_state(state, args.d, prune=args.prune, limit=args.limit)
    if args.format == "csv":
        rows = [(lam.replace(",", ";"), path.replace(",", ";"), p)
                for lam, path, p in _dist_rows(dist)]
        return 0, _csv(["lambda", "path", "probability"], rows)
    return 0, _emit_json(_report(config, _dist_body(dist)))


def cmd_oracle(args) -> tuple[int, str]:
    config = {"command": "oracle", "d": args.d, "n": args.n,
              "state": args.state, "compare": args.compare,
              "limit": args.limit, "format": args.format}
    su = schur_transform(args.n, args.d, limit=args.limit)
    if args.state:
        state = load_state(args.state)
    else:
        size = args.d ** args.n
        state = np.eye(size) / size
    probs = weak_schur_probs(state, su)
    body = {"marginal": {str(lam): p for lam, p in probs.items()}}
    if args.compare:
        stream = load_stream(args.compare, args.d)
        dist = branch_distribution(stream, args.d)
        marg = dist.marginal
        dev = max(abs(marg.get(lam, 0.0) - p) for lam, p in probs.items())
        body["sampler_marginal"] = {str(lam): p for lam, p in marg.items()}
        body["max_deviation"] = dev
    if args.format == "csv":
        rows = [(str(lam).replace(",", ";"), p) for lam, p in probs.items()]
        return 0, _csv(["lambda", "probability"], rows)
    return 0, _emit_json(_report(config, body))


def cmd_cg(args) -> tuple[int, str]:
    lam = Partition.from_string(args.lam)
    config = {"command": "cg", "d": args.d, "lambda": args.lam,
              "dump": args.dump, "dump_irrep": args.dump_irrep}
    t = cg_transform(lam, args.d)
    report = verify_sparsity(t)
    body = {
        "size": t.size,
        "blocks": [{"j": b.j, "target": str(b.target), "offset": b.offset,
                    "dim": b.dim} for b in t.blocks],
        "sparsity": report.to_dict(),
        "matrix": [[[float(x.real), float(x.imag)] for x in row]
                   for row in t.matrix],
    }
    out = _emit_json(_report(config, body))
    if args.dump:
        with open(args.dump, "w") as f:
            f.write(out)
    if args.dump_irrep:
        with open(args.dump_irrep, "w") as f:
            f.write(build_irrep(lam, args.d).to_json())
    return 0, out


def cmd_resources(args) -> tuple[int, str]:
    config = {"command": "resources", "n": args.n, "d": args.d,
              "epsilon": args.epsilon, "p": args.p, "c": args.c,
              "format": args.format}
    profile = memory_profile(args.n, args.d)
    if args.d == 2:
        model = qubit_gate_count(args.n, args.epsilon, c=args.c).to_dict()
    else:
        model = qudit_gate_bound(args.n, args.d, args.epsilon,
                                 p=args.p, c=args.c).to_dict()
    if args.format == "csv":
        rows = [(r.k, r.width, int(r.removal)) for r in profile]
        return 0, _csv(["k", "width", "removal"], rows)
    body = {
        "profile": [r.to_dict() for r in profile],
        "peak_width": max(r.width for r in profile),
        "two_level_total": two_level_total(args.n) if args.d == 2 else None,
        "gate_model": model,
    }
    return 0, _emit_json(_report(config, body))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="schur",
                                description="streaming weak Schur sampling tools")
    p.add_argument("--version", action="version", version=__version__)
    p.add_argument("--schema", action="store_true",
                   help="print the input-file JSON schemas and exit")
    sub = p.add_subparsers(dest="command")

    def common(sp, stream=False, state=False):
        sp.add_argument("--d", type=int, default=2)
        sp.add_argument("--format", choices=["json", "csv"], default="json")
        if stream:
            sp.add_argument("--stream", required=True)
        if state:
            sp.add_argument("--state", required=True)

    sp = sub.add_parser("sample", help="sample trajectories from a stream")
    common(sp, stream=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=int, default=1)

    sp = sub.add_parser("dist", help="exact branch distribution of a stream")
    common(sp, stream=True)
    sp.add_argument("--prune", type=float, default=1e-12)
    sp.add_argument("--branch-cap", type=int, default=10 ** 6)

    sp = sub.add_parser("full", help="full-state simulation (entangled inputs)")
    common(sp, state=True)
    sp.add_argument("--prune", type=float, default=1e-12)
    sp.add_argument("--limit", type=int, default=None)

    sp = sub.add_parser("oracle", help="brute-force distribution, optional compare")
    sp.add_argument("--d", type=int, default=2)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--state", default=None)
    sp.add_argument("--compare", default=None)
    sp.add_argument("--limit", type=int, default=None)
    sp.add_argument("--format", choices=["json", "csv"], default="json")

    sp = sub.add_parser("cg", help="emit a Clebsch-Gordan transform")
    sp.add_argument("--d", type=int, default=2)
    sp.add_argument("--lambda", dest="lam", required=True)
    sp.add_argument("--dump", default=None)
    sp.add_argument("--dump-irrep", dest="dump_irrep", default=None)
    sp.add_argument("--format", choices=["json"], default="json")

    sp = sub.add_parser("resources", help="memory/gate-count report")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, default=2)
    sp.add_argument("--epsilon", type=float, required=True)
    sp.add_argument("--p", type=float, default=4.0)
    sp.add_argument("--c", type=float, default=1.0)
    sp.add_argument("--format", choices=["json", "csv"], default="json")

    return p


COMMANDS = {
    "sample": cmd_sample,
    "dist": cmd_dist,
    "full": cmd_full,
    "oracle": cmd_oracle,
    "cg": cmd_cg,
    "resources": cmd_resources,
}


def run(argv: list[str]) -> tuple[int, str]:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "schema", False):
        return 0, json.dumps(STREAM_SCHEMA, sort_keys=True, indent=2)
    if not args.command:
        parser.print_usage()
        return 1, ""
    try:
        return COMMANDS[args.command](args)
    # InvalidInputError, InvalidPartitionError and json.JSONDecodeError
    # are ValueErrors
    except (ValueError, OSError) as e:
        return 1, json.dumps({"error": str(e)})
    except (SizeLimitError, BranchExplosionError) as e:
        return 2, json.dumps({"error": str(e)})


def main(argv: list[str] | None = None) -> int:
    code, out = run(sys.argv[1:] if argv is None else argv)
    if out:
        print(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
