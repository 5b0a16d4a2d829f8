"""Command-line front end.

All reports are JSON by default (canonical: sorted keys, no trailing
whitespace) and include the tool version and, as `config`, every parsed
argument (the RNG seed among them), so identical (config, seed) runs are
byte-identical.  `--format csv` emits a flat projection of the same
numbers, with `;` in place of the commas inside a label or path.

Exit codes: 0 success, 1 validation error, 2 over the memory budget.
"""

from __future__ import annotations

import argparse
import functools
import io
import itertools
import json
import os
import sys
from collections import Counter
from dataclasses import asdict

import numpy as np

from . import __version__
from .cg import cg_transform, verify_sparsity
from .errors import (InvalidInputError, SizeLimitError, check_budget, check_state,
                     check_stream)
from .oracle import _probs, check_size
from .partitions import Partition, _path_texts, dim_unitary
from .resources import (check_profile, memory_profile, peak_width, qubit_gate_count,
                        qudit_gate_bound, two_level_total)
from .sampler import (DEFAULT_PRUNE, branch_distribution, run_full_state,
                      run_stream)

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
    # by type, not isinstance: JSON true and false load as bools, which
    # are ints to isinstance
    if type(x) in (int, float):
        return complex(x)
    if isinstance(x, list) and len(x) == 2 and all(type(t) in (int, float) for t in x):
        return complex(x[0], x[1])
    raise InvalidInputError(f"bad amplitude entry {x!r}; use a number or [re, im]")


_NUMBERS = {int, float}


def _parse_array(data, matrix: bool = False):
    """A vector or matrix, given as a list, with entries as numbers or
    [re, im] pairs.  When every entry is a number, or every entry a pair
    of numbers, numpy reads the whole list, the types checked by C-level
    maps; otherwise each entry is read on its own, which refuses the
    first bad one by name and reads a mix of numbers and pairs."""
    if not isinstance(data, list) or not data:
        raise InvalidInputError("expected a non-empty list")
    entries = data
    if matrix:
        if not all(isinstance(row, list) and row for row in data):
            raise InvalidInputError("each density matrix row must be a non-empty list")
        if len({len(row) for row in data}) > 1:
            raise InvalidInputError("density matrix rows differ in length: "
                                    f"{[len(row) for row in data]}")
        entries = list(itertools.chain.from_iterable(data))
    kinds = set(map(type, entries))
    if kinds <= _NUMBERS:
        return np.array(data, dtype=float).astype(complex)
    if (kinds == {list} and set(map(len, entries)) == {2}
            and set(map(type, itertools.chain.from_iterable(entries))) <= _NUMBERS):
        parts = np.array(data, dtype=float)  # (..., 2): real and imaginary parts
        return parts.view(complex).reshape(parts.shape[:-1])
    if matrix:
        return np.array([[_complex_entry(x) for x in row] for row in data])
    return np.array([_complex_entry(x) for x in data])


def _parse_state(data):
    """A bare list, read as a vector, or {"vector": list} or {"rho": list of
    rows}.  A bare nested list is a vector of [re, im] pairs; density
    matrices must be asked for by {"rho": ...} (or the iid form) to keep 2x2
    inputs unambiguous."""
    if not isinstance(data, dict):
        return _parse_array(data)
    if "vector" in data:
        return _parse_array(data["vector"])
    if "rho" in data:
        return _parse_array(data["rho"], matrix=True)
    raise InvalidInputError("dict state needs 'vector' or 'rho'")


def load_stream(path: str, d: int) -> list[np.ndarray]:
    with open(path) as f:
        data = json.load(f)
    if isinstance(data, dict) and "iid" in data:
        spec = data["iid"]
        if not (isinstance(spec, dict) and "rho" in spec
                and isinstance(spec.get("n"), int) and not isinstance(spec["n"], bool)):
            raise InvalidInputError("the iid form needs {'rho': [[...]], 'n': <integer>}")
        # the list holds n references, 8 bytes each
        check_budget(f"iid stream of n={spec['n']}", 8 * spec["n"])
        try:
            return [_parse_array(spec["rho"], matrix=True)] * spec["n"]
        except InvalidInputError as e:
            raise InvalidInputError(f"iid rho: {e}") from e
    if not isinstance(data, list):
        raise InvalidInputError("stream file must be a list or {'iid': ...}")
    out = []
    for i, item in enumerate(data):
        try:
            out.append(_parse_state(item))
        except InvalidInputError as e:
            raise InvalidInputError(f"stream element {i}: {e}") from e
    return out


def load_state(path: str):
    with open(path) as f:
        data = json.load(f)
    try:
        return _parse_state(data)
    except InvalidInputError as e:
        raise InvalidInputError(f"state file: {e}") from e


def _emit(args, body: dict) -> str:
    """The canonical JSON report: the version, every parsed argument as the
    config, then the body."""
    config = {k: v for k, v in vars(args).items() if k != "schema"}
    return json.dumps({"version": __version__, "config": config, **body},
                      sort_keys=True, indent=2)


def _csv(header: list[str], rows) -> str:
    """One line per row: floats to 17 significant digits, and every other
    cell as text with its commas turned into ';'."""
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(format(x, ".17g") if isinstance(x, float)
                           else str(x).replace(",", ";") for x in row) + "\n")
    return buf.getvalue()


def _emit_dist(args, dist) -> str:
    """The `dist` and `full` report: every path in sorted order, then the
    label marginal and the pruned mass, spelled from the distribution's
    sorted arrays.  The path texts come from partitions._path_texts, and a
    CSV label from the path's step counts, as the walk emits only valid
    paths.  In JSON, the floats come from one call of json's C encoder,
    which spells them (NaN and Infinity included) as the indenting encoder
    that `_emit` runs does, and the "paths" object is written line by line
    into `_emit`'s report, its keys in sort_keys order: the texts sort in
    path order for d <= 10, which Timsort takes in linear time."""
    texts = _path_texts(dist.paths, dist.d)
    if args.format == "csv":
        m, length = dist.paths.shape
        counts = np.bincount((np.arange(m)[:, None] * dist.d + dist.paths).ravel(),
                             minlength=m * dist.d).reshape(m, dist.d)
        counts[:, 0] += 1  # the box every path starts from
        return _csv(["lambda", "path", "probability"],
                    zip(_path_texts(counts, length + 2), texts, dist.weights.tolist()))
    out = _emit(args, {
        "paths": {},
        "marginal": {str(lam): p for lam, p in dist.marginal.items()},
        "pruned": dist.pruned,
    })
    if not texts:
        return out
    floats = json.dumps(dist.weights.tolist())[1:-1].split(", ")
    lines = ",\n".join([f'    "{text}": {x}' for text, x in sorted(zip(texts, floats))])
    head, tail = out.split('\n  "paths": {}', 1)
    return f'{head}\n  "paths": {{\n{lines}\n  }}{tail}'


def _trial_bytes(n: int) -> int:
    """Bytes one `sample` trial on n qudits holds with its share of the
    report: its record and its lines of JSON or CSV (measured 1240 B plus
    6.1 B per qudit of its path, at n = 2 to 3000)."""
    return 1300 + 8 * n


def cmd_sample(args) -> str:
    if args.trials < 1:
        raise InvalidInputError(f"trials={args.trials}: need trials >= 1")
    stream = load_stream(args.stream, args.d)
    check_budget(f"sample report of {args.trials} trials on n={len(stream)}",
                 args.trials * _trial_bytes(len(stream)))
    check_stream(stream, args.d)  # each distinct array once, before any trial
    trials = []
    for t in range(args.trials):
        res = run_stream(stream, args.d, seed=args.seed + t)
        trials.append({"trial": t, "seed": args.seed + t,
                       "lambda": str(res.lam), "path": str(res.path)})
    if args.format == "csv":
        return _csv(["trial", "lambda", "path"],
                    [(t["trial"], t["lambda"], t["path"]) for t in trials])
    body = {"seed": args.seed, "trials": trials,
            "counts": Counter(t["lambda"] for t in trials)}
    if args.trials == 1:
        body.update({"lambda": trials[0]["lambda"], "path": trials[0]["path"]})
    return _emit(args, body)


def cmd_dist(args) -> str:
    stream = load_stream(args.stream, args.d)
    return _emit_dist(args, branch_distribution(stream, args.d, prune=args.prune))


def cmd_full(args) -> str:
    state = load_state(args.state)
    return _emit_dist(args, run_full_state(state, args.d, prune=args.prune))


def cmd_oracle(args) -> str:
    if args.compare and args.format == "csv":  # before the stream is read
        raise InvalidInputError("--compare needs the JSON report: the CSV one "
                                "holds only lambda,probability")
    if args.compare:  # refused before the oracle's work
        stream = load_stream(args.compare, args.d)
        if len(stream) != args.n:
            raise InvalidInputError(f"compare stream has {len(stream)} qudits, "
                                    f"not --n {args.n}")
        try:
            check_stream(stream, args.d)
        except InvalidInputError as e:
            raise InvalidInputError(f"compare {e}") from e
    state = None
    if args.state:  # also refused before the oracle's work
        state = load_state(args.state)
        try:
            # no state file holds 2^64 amplitudes, so past n = 64 the length
            # check fails either way, and the power stays small
            state = check_state(state, args.d ** min(args.n, 64), keep_real=True)
        except InvalidInputError as e:
            raise InvalidInputError(f"state file: {e}") from e
    if args.n < 1:  # before I/D is formed
        raise InvalidInputError("n >= 1 required")
    # the oracle's estimate, then the compare walk under its own: either
    # refusal comes before the oracle's work, which the walk never runs beside
    check_size(args.n, args.d)
    if args.compare:
        marg = branch_distribution(stream, args.d).marginal
    if state is None:  # I/D, divided in place: no second D x D array
        state = np.eye(args.d ** args.n)
        state /= len(state)
    probs = _probs(state, args.n, args.d)  # the state and the size are checked
    if args.format == "csv":
        return _csv(["lambda", "probability"], probs.items())
    body = {"marginal": {str(lam): p for lam, p in probs.items()}}
    if args.compare:
        body["sampler_marginal"] = {str(lam): p for lam, p in marg.items()}
        body["max_deviation"] = max(abs(marg.get(lam, 0.0) - p)
                                    for lam, p in probs.items())
    return _emit(args, body)


def cmd_cg(args) -> str:
    lam = Partition.from_string(getattr(args, "lambda"))
    if lam.d != args.d:
        raise InvalidInputError(f"partition has {lam.d} rows, expected {args.d}")
    size = args.d * dim_unitary(lam)
    # the JSON matrix report (measured 407 B per entry) and the build's rows
    check_budget(f"cg report of size {size} at lambda={lam}",
                 440 * size * size + 4096 * size)
    t = cg_transform(lam)
    out = _emit(args, {
        "size": t.size,
        "blocks": [{"j": b.j, "target": str(b.target), "offset": b.offset,
                    "dim": b.dim} for b in t.blocks],
        "sparsity": verify_sparsity(t).to_dict(),
        "matrix": [[[float(x.real), float(x.imag)] for x in row]
                   for row in t.matrix],
    })
    if args.dump:
        with open(args.dump, "w") as f:
            f.write(out)
    return out


def cmd_resources(args) -> str:
    # the profile's budget before the model's O(n) sum, and the model, which
    # may refuse, before the profile's records, each costing a few qudit_widths
    check_profile(args.n)
    if args.d == 2:
        model = qubit_gate_count(args.n, args.epsilon, c=args.c)
    else:
        model = qudit_gate_bound(args.n, args.d, args.epsilon, p=args.p, c=args.c)
    profile = memory_profile(args.n, args.d)
    if args.format == "csv":
        return _csv(["k", "width", "removal"],
                    [(r.k, r.width, int(r.removal)) for r in profile])
    return _emit(args, {
        "profile": [asdict(r) for r in profile],
        "peak_width": peak_width(args.n, args.d),
        "two_level_total": two_level_total(args.n) if args.d == 2 else None,
        "gate_model": asdict(model),
    })


@functools.cache  # parse_args fills a new namespace on every call
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="schur",
                                description="streaming weak Schur sampling tools")
    p.add_argument("--version", action="version", version=__version__)
    p.add_argument("--schema", action="store_true",
                   help="print the input-file JSON schemas and exit")
    sub = p.add_subparsers(dest="command")

    def common(sp, stream=False, state=False, formats=("json", "csv")):
        sp.add_argument("--d", type=int, default=2)
        sp.add_argument("--format", choices=formats, default="json")
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
    sp.add_argument("--prune", type=float, default=DEFAULT_PRUNE)

    sp = sub.add_parser("full", help="full-state simulation (entangled inputs)")
    common(sp, state=True)
    sp.add_argument("--prune", type=float, default=DEFAULT_PRUNE)

    sp = sub.add_parser("oracle", help="brute-force distribution, optional compare")
    common(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--state", default=None)
    sp.add_argument("--compare", default=None)

    sp = sub.add_parser("cg", help="emit a Clebsch-Gordan transform")
    common(sp, formats=("json",))
    sp.add_argument("--lambda", dest="lambda", required=True)
    sp.add_argument("--dump", default=None)

    sp = sub.add_parser("resources", help="memory/gate-count report")
    common(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--epsilon", type=float, required=True)
    sp.add_argument("--p", type=float, default=4.0)
    sp.add_argument("--c", type=float, default=1.0)

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
        return 0, COMMANDS[args.command](args)
    # InvalidInputError, InvalidPartitionError and json.JSONDecodeError
    # are ValueErrors; an OverflowError is a number past the float range
    except (ValueError, OverflowError, OSError) as e:
        return 1, json.dumps({"error": str(e)})
    except (SizeLimitError, MemoryError) as e:  # MemoryError: a backstop
        return 2, json.dumps({"error": str(e) or "out of memory"})


def main(argv: list[str] | None = None) -> int:
    code, out = run(sys.argv[1:] if argv is None else argv)
    try:
        if out:
            print(out)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe: send what is left to devnull, so that
        # the flush at interpreter exit raises no second error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
