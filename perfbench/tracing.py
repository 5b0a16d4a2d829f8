"""Span tracing of the schurstream layers, from outside the package.

`Tracer.install()` wraps every public function (and every public plain
method of a public class) defined in each layer module, and patches the
wrapper into every `schurstream` module namespace that imported the
function by name: `sampler.cg_transform` and `oracle.cg_transform` are
the same function object as `cg.cg_transform`, and patching only the
latter would miss their calls.  Nothing inside `src/` is modified on
disk.

A span is (name, start, end, parent, op id, info).  Spans are kept in
memory; `reduce()` turns one op's spans into the per-layer metrics and
`dump()` writes spans out when the benchmark ends.
"""

from __future__ import annotations

import importlib
import inspect
import json
from time import perf_counter

LAYERS = ("cli", "partitions", "gt_basis", "cg", "resources", "sampler", "oracle")

# Build functions keyed by (lambda, d): the first call with a key in a process
# is the build, later calls are cache hits.
KEYED = ("gt_basis.build_irrep", "cg.cg_transform", "resources.cg_givens_count")

METRICS = {  # name -> unit
    "cli.self_s": "s",
    "partitions.calls": "count",
    "partitions.self_s": "s",
    "gt_basis.builds": "count",
    "gt_basis.build_s": "s",
    "cg.lookups": "count",
    "cg.builds": "count",
    "cg.build_s": "s",
    "cg.max_size": "count",
    "resources.givens_calls": "count",
    "resources.givens_builds": "count",
    "resources.givens_s": "s",
    "resources.rotations": "count",
    "sampler.steps": "count",
    "sampler.step_self_s": "s",
    "sampler.dist_self_s": "s",
    "sampler.dist_nodes": "count",
    "sampler.dist_leaves": "count",
    "sampler.full_self_s": "s",
    "sampler.full_nodes": "count",
    "sampler.pruned_mass": "prob",
    "oracle.transform_s": "s",
    "oracle.projector_s": "s",
    "oracle.probs_self_s": "s",
}


def _key(args, kwargs):
    lam = args[0]
    d = args[1] if len(args) > 1 else kwargs.get("d")
    return lam.parts, lam.d if d is None else d


def _info(name, seen, args, kwargs, result):
    """What a span records beyond its timing, for the functions the
    per-layer metrics need: whether a keyed build function saw its key for the
    first time, the CG size, the Givens count, the branch totals."""
    if name in KEYED:
        key = _key(args, kwargs)
        first = key not in seen[name]
        seen[name].add(key)
        if name == "cg.cg_transform":
            return first, result.size
        if name == "resources.cg_givens_count":
            return first, result
        return first, None
    if name in ("sampler.branch_distribution", "sampler.run_full_state"):
        return len(result.entries), result.pruned
    return None


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = 0
        self._stack: list[int] = []
        self._seen = {name: set() for name in KEYED}
        self._patches: list[tuple[object, str, object, object]] = []
        modules = [importlib.import_module(f"schurstream.{m}") for m in LAYERS]
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(f"{layer}.{attr}", obj)
                    for owner in modules:
                        for name, value in vars(owner).items():
                            if value is obj:
                                self._patches.append((owner, name, obj, wrapper))
                elif inspect.isclass(obj):
                    for meth, fn in vars(obj).items():
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._patches.append(
                                (obj, meth, fn, self._wrap(f"{layer}.{attr}.{meth}", fn)))

    def _wrap(self, name, fn):
        spans, stack, seen = self.spans, self._stack, self._seen

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                info = _info(name, seen, args, kwargs, result) if ok else None
                spans[idx] = (name, start, end, parent, self.op, info)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def take(self) -> list:
        """The spans recorded since the last call, as a new list whose
        parent fields index into it; the tracer starts a fresh list."""
        spans = self.spans[:]
        del self.spans[:]
        return spans


def dump(path: str, ops: list[list]) -> None:
    """Write spans as JSON lines [name, start, end, parent, op]; parent
    indexes the spans of the same op, -1 for a root."""
    with open(path, "w") as f:
        for spans in ops:
            for s in spans:
                f.write(json.dumps(s[:5]) + "\n")


def reduce(spans: list) -> dict:
    """Per-layer metrics of one op (see METRICS).  `_self_s` metrics are
    span durations minus their child spans; the other times are whole
    span durations."""
    child: dict[int, float] = {}
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] = child.get(parent, 0.0) + (end - start)
    m = dict.fromkeys(METRICS, 0)
    for i, (name, start, end, parent, _, info) in enumerate(spans):
        dur = end - start
        own = dur - child.get(i, 0.0)
        layer = name.split(".", 1)[0]
        if layer == "cli":
            m["cli.self_s"] += own
        elif layer == "partitions":
            m["partitions.calls"] += 1
            m["partitions.self_s"] += own
        first = name in KEYED and info is not None and info[0]
        if name == "gt_basis.build_irrep" and first:
            m["gt_basis.builds"] += 1
            m["gt_basis.build_s"] += dur
        elif name == "cg.cg_transform":
            m["cg.lookups"] += 1
            if info is not None:
                m["cg.max_size"] = max(m["cg.max_size"], info[1])
            if first:
                m["cg.builds"] += 1
                m["cg.build_s"] += dur
            caller = spans[parent][0] if parent >= 0 else None
            if caller == "sampler.branch_distribution":
                m["sampler.dist_nodes"] += 1
            elif caller == "sampler.run_full_state":
                m["sampler.full_nodes"] += 1
        elif name == "resources.cg_givens_count":
            m["resources.givens_calls"] += 1
            m["resources.givens_s"] += dur
            if first:
                m["resources.givens_builds"] += 1
                m["resources.rotations"] += info[1]
        elif name == "sampler.step":
            m["sampler.steps"] += 1
            m["sampler.step_self_s"] += own
        elif name in ("sampler.branch_distribution", "sampler.run_full_state"):
            kind = "dist" if name == "sampler.branch_distribution" else "full"
            m[f"sampler.{kind}_self_s"] += own
            if info is not None:
                if kind == "dist":
                    m["sampler.dist_leaves"] += info[0]
                m["sampler.pruned_mass"] += info[1]
        elif name == "oracle.schur_transform":
            m["oracle.transform_s"] += dur
        elif name in ("oracle.isotypic_projector", "oracle.copy_projector"):
            m["oracle.projector_s"] += dur
        elif name == "oracle.weak_schur_probs":
            m["oracle.probs_self_s"] += own
    return m
