"""The streaming weak Schur sampling engine.

Each step couples one new qudit in with a Clebsch-Gordan transform and
measures the block label j.  Three execution modes share that step:

* trajectory mode (`step` / `run_stream`): the simulated state is the
  dim Q^d_lam amplitude vector (or, for `step`, density matrix) itself,
  and j is sampled.  `run_stream` unravels a density-matrix qudit into one
  eigenvector, drawn with its eigenvalue as probability, which gives the
  (lambda, path) law of the density-matrix step at the cost of a vector
  step;
* exhaustive branch enumeration (`branch_distribution`) over all
  measurement outcomes of a product-state stream;
* full-state mode (`run_full_state`) applying each step's CG transform to
  the leading qudits of a d^n state, which also handles entangled inputs.

The modes differ only in how many nodes a step expands and what they do
with the children.  Branch enumeration and full-state mode share
`_enumerate`, which walks every branch level by level: at each level it
groups the nodes by label and stacks a group's states along a trailing
batch axis, so that one transform call expands every node of the group
(`_expand`), coupling a product-state qudit into each column or rotating
the leading qudits of each.  Density-matrix nodes take the same walk a
run of columns at a time, each run's coupled states held to a fixed
number of entries.  `step` is the walk's one-node case: a density matrix
(or a vector meeting a mixed qudit) goes through `_expand` as one
column, so the sampler has one density-matrix kernel.  A vector meeting
a pure qudit keeps its own product step, split by `_split`: through a
one-column `_expand`, run_stream took about 1.2 times as long on iid
qubits and 1.9 times on Haar qutrits.  `_sample` draws one index from a
list of weights, for `step`'s label and `run_stream`'s unravelling alike.
The walk holds each level and the leaves to the memory budget and sorts
the leaves' paths once, at the end.  The distribution carries the
sorted paths and their weights as arrays, from which the `dist` and
`full` reports spell every path at once with the one path-text formula
that LatticePath uses (partitions._path_texts).

A step applies the CG transform with no dense matrix, through the two
kernels that each transform format owns (see cg): `_apply` on the
leading axis of a coupled state, on both sides of a density matrix, and
`_product` on a vector state coupled to a pure qudit, or on the columns
of a batch of them.  `_apply` on the second axis takes a trailing batch
axis, which a density-matrix run stacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import errors
from .cg import Transform, cg_transform
from .errors import (InvalidInputError, NumericalCollapseError, check_budget,
                     check_state, check_stream)
from .partitions import (LatticePath, Partition, dim_symmetric, dim_unitary,
                         one_box, partitions_of)

DEFAULT_PRUNE = 1e-12
_TINY = np.finfo(float).tiny  # the smallest normal float

# The most entries a run of density-matrix columns couples at once (at
# least one column), so that a run's four complex temporaries (the coupled
# states, each side's rotation and the shift copy between) take at most
# 64 KiB beside the stacks.  branch_distribution on iid I/2, in one
# process (2-vCPU VM, OPENBLAS_NUM_THREADS=1), at runs of 1 column, 256,
# 512, 1024, 2048 and 4096 entries: 16 qubits took 411, 278, 178, 115, 83
# and 62 ms at traced peaks of 4.99 to 5.22 MB, and 10 qubits 7.8, 4.3,
# 3.1, 2.7, 2.5 and 2.5 ms.  The warm traced peak of `dist --format json`
# on 11 such qubits is 192 KB at 512 entries, 221 KB at 1024, 287 KB at
# 2048 and 390 KB at 4096, against the 399 KB its 462 leaves may hold
# (_leaf_bytes): 1024 keeps a walk of that size at 0.55 of its leaves'
# bytes.  Runs of more than one column need sides up to 22, which few
# nodes of d = 3 and 4 walks have.
_RUN_ENTRIES = 1 << 10


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator so trajectories reproduce across platforms."""
    return np.random.Generator(np.random.Philox(seed))


def _is_matrix(x) -> bool:
    return np.asarray(x).ndim == 2


def _weight(x: np.ndarray) -> float:
    """Squared norm of a vector, trace of a density matrix."""
    return float(np.trace(x).real) if x.ndim == 2 else float(np.vdot(x, x).real)


def _split(t: Transform, rotated: np.ndarray) -> list[tuple[int, Partition, float, np.ndarray]]:
    """(j, lam+e_j, weight, unnormalized part) per block of t, j ascending,
    from a vector coupled to a pure qudit and rotated by t (t._product);
    a block's weight is its squared norm (np.vdot)."""
    out = []
    for b in t.blocks:
        sub = rotated[b.offset:b.offset + b.dim]
        out.append((b.j, b.target, _weight(sub), sub))
    return out


def _couple(states: np.ndarray, qudit: np.ndarray) -> np.ndarray:
    """The density matrices state (x) qudit, qudit index fastest, of m
    states stacked along the trailing axis of `states`, stacked the same
    way and formed by broadcasting; a pure factor is promoted to |v><v|."""
    a = states if states.ndim == 3 else states[:, None] * states.conj()
    q = qudit if qudit.ndim == 2 else qudit[:, None] * qudit.conj()
    side = len(a) * len(q)
    return (a[:, None, :, None] * q.reshape(len(q), 1, len(q), 1)
            ).reshape(side, side, a.shape[2])


def _sample(weights: list[float], rng: np.random.Generator) -> tuple[int, float]:
    """Inverse-CDF draw of an index over `weights` in order; returns the
    drawn index and its probability."""
    total = sum(weights)
    if not total >= 1e-12:
        raise NumericalCollapseError("all branch probabilities below 1e-12")
    r = rng.random() * total
    acc = 0.0
    chosen = len(weights) - 1
    for i, w in enumerate(weights):
        acc += w
        if r < acc:
            chosen = i
            break
    if not weights[chosen] >= 1e-12:
        raise NumericalCollapseError("sampled branch has vanishing probability")
    return chosen, weights[chosen] / total


@dataclass(eq=False)
class BranchDistribution:
    """Every kept branch of a walk: `paths`, an (m, n-1) small-int array of
    their steps, one row per branch in sorted order, and `weights`, their m
    probabilities (float64) in the same order; each label's probability,
    in the order of its first path; and the pruned mass."""

    d: int
    paths: np.ndarray
    weights: np.ndarray
    marginal: dict[Partition, float]  # label -> probability
    pruned: float = 0.0

    @cached_property
    def entries(self) -> dict[tuple[int, ...], float]:
        """Path steps -> probability, in sorted path order.  Made on first
        use; the reports read the arrays."""
        return dict(zip(map(tuple, self.paths.tolist()), self.weights.tolist()))


def _leaf_bytes(n: int) -> int:
    """Bytes a leaf holds with its share of the `dist` or `full` report:
    the traced peak of a whole `dist` call at n=16, over its 12,870
    leaves, was 388 B in JSON and in CSV on iid I/2, and 373 B and 333 B
    on Haar qubits (568-571 B when the report was spelled from a dict of
    path tuples)."""
    return 512 + 32 * n


def _path_counts(d: int, n: int):
    """The number of lattice paths of k boxes in at most d rows, the sum of
    dim P_lam over the labels, for k = 1 .. n.  Every label has a child, so
    no count is above the next."""
    for k in range(1, n + 1):
        yield sum(dim_symmetric(lam) for lam in partitions_of(k, d))


def _expand(t: Transform, states: np.ndarray, qudit: np.ndarray | None
            ) -> list[tuple[int, Partition, np.ndarray, np.ndarray]]:
    """The children of m nodes at t's label, whose unnormalized states are
    stacked along the trailing axis of `states`: (j, lam+e_j, their m
    weights, their m parts stacked the same way) per block of t, j
    ascending.  `qudit` is the product-state qudit that a `dist` level
    couples in; at a `full` level it is None, and t (x) I_rest rotates the
    leading qudits of states that hold them all.

    Vectors coupled to a pure qudit, or rotated, take one `_product` or
    `_apply` for all m columns, and a block's weights are the column sums
    of |x|^2 over its rows.  Density matrices (or vectors meeting a mixed
    qudit, promoted to |v><v|) go a run of columns at a time, each run's
    coupled states at most _RUN_ENTRIES entries and at least one column:
    a run is coupled to the qudit (`_couple`), rotated by one `_apply`
    on each side, and each block written into its stack; a block's
    weights are the traces of its stack.  Every entry is the product and
    rotation that one column alone would take, so the run length moves no
    bit."""
    m = states.shape[-1]
    if states.ndim == 2 and (qudit is None or qudit.ndim == 1):
        rotated = t._apply(states) if qudit is None else t._product(states, qudit)
        rest = len(rotated) // t.size
        starts = [b.offset * rest for b in t.blocks]
        sums = np.add.reduceat(np.square(rotated.view(float)), starts, axis=0)
        weights = sums[:, 0::2] + sums[:, 1::2]
        return [(b.j, b.target, w, rotated[lo:lo + b.dim * rest])
                for b, lo, w in zip(t.blocks, starts, weights)]
    rest = 1 if qudit is not None else len(states) // t.size
    side = t.size * rest
    run = max(1, _RUN_ENTRIES // (side * side))
    for lo in range(0, m, run):
        part = states[..., lo:lo + run]
        if qudit is not None:
            part = _couple(part, qudit)
        rotated = t._apply(part)
        del part  # the coupled states, before the second side's temporaries
        rotated = t._apply(rotated, axis=1)
        if not lo:  # once the first run's temporaries are freed
            stacks = [np.empty((b.dim * rest,) * 2 + (m,), dtype=complex) for b in t.blocks]
        for b, stack in zip(t.blocks, stacks):
            at = b.offset * rest
            stack[..., lo:lo + run] = rotated[at:at + b.dim * rest, at:at + b.dim * rest]
    return [(b.j, b.target, np.trace(stack).real, stack) for b, stack in zip(t.blocks, stacks)]


def _level_bytes(groups: list[tuple[Partition, int]], mixed: bool) -> int:
    """Bytes a `dist` level holds beside the leaves, from its (label,
    node count) groups, with s = d dim Q the side of a node's step: the
    level's states and the next level's, 16 (s/d + s) bytes a vector node
    and 16 ((s/d)^2 + s^2) a density-matrix one, a group's states again as
    it is stacked, and 8 KiB of objects; beside them, the temporaries of
    the largest vector group's product and weights, three times its
    product, or of the largest density-matrix run of columns, four
    complex arrays of at most _RUN_ENTRIES entries.  A node whose matrix
    alone is over _RUN_ENTRIES is a run of its own, and its lookup checks
    that run's temporaries (cg._step_bytes).  Traced peaks of Haar vector
    walks at d = 2 to 5 were 0.6 to 0.8 of this at levels over 100 KB."""
    sides = [(lam.d * dim_unitary(lam), m) for lam, m in groups]
    if mixed:
        run = max(min(m, _RUN_ENTRIES // (s * s)) * s * s for s, m in sides)
        return 32 * sum(s * s * m for s, m in sides) + 64 * run + 8192
    return 32 * sum(s * m for s, m in sides) + 48 * max(s * m for s, m in sides) + 8192


def _enumerate(d: int, n: int, root: np.ndarray, stream: list[np.ndarray] | None,
               prune: float, held: int = 0) -> BranchDistribution:
    """Every measurement branch of n qudits, walked level by level.  A
    node is an unnormalized state, whose weight is the accumulated branch
    probability.  With a `stream`, the walk couples stream[k] into each
    node after k qudits (`dist`); with None, `root` holds every qudit and
    each level rotates the leading ones (`full`).  Children lighter than
    `prune` are dropped and their weight is added to `pruned`; `prune`
    must lie in [0, 1).

    At each level the nodes are grouped by label and stacked along a
    trailing batch axis, and `_expand` forms one group's children at
    once, a density-matrix group's a run of columns at a time.  Each
    node's path is a row of a small-int array, one column per level.  The
    leaves' rows are sorted once at the end (np.lexsort), so the paths and
    weights are in sorted path order and each `marginal` sum runs over its
    paths in that order.  A weight is a column sum of |x|^2, or the trace
    of a stacked density matrix, where a node-at-a-time walk would take
    np.vdot or a 2-D trace, so the floats may move in the last bits; the
    depth-first walk kept in tests/reference_walk.py is the reference.

    The walk still looks up the transform once per node,
    `cg_transform(lam, mixed=...)`, and uses the one that the group's
    lookups return: a density-matrix lookup keeps its step check and
    eviction, and perfbench counts the lookups as branch nodes
    (`sampler.dist_nodes`, `sampler.full_nodes`).  The 7059 lookups of 15
    qubits take about 1 ms on a 2-vCPU VM; one lookup per (level, label)
    waits until that count is restated (ROADMAP O9 part 2).

    Two checks hold the walk to the memory budget, less the `held` bytes
    of the caller's states.  Before each `dist` level's products, its
    states and temporaries (`_level_bytes`); a `full` level holds at most
    the state's amplitudes, which `held` counts with a level's rotation.
    And the leaves: the walk is refused once they pass the room the
    budget leaves them, naming the first leaf past it.  With `prune` = 0
    the walk reaches every lattice path, and it is refused before it
    starts when their leaves are over the budget."""
    if not 0.0 <= prune < 1.0:  # NaN fails both comparisons
        raise InvalidInputError(f"prune={prune}: need 0 <= prune < 1")
    leaf = _leaf_bytes(n)
    if prune == 0.0:  # the first level over the budget refuses
        for count in _path_counts(d, n):
            check_budget(f"a walk of at least {count} leaves", held + count * leaf)
    room = (errors.MEMORY_BUDGET - held) // leaf  # the most leaves that fit

    def refuse():  # the first leaf past the room is over the budget
        count = max(room, 0) + 1
        check_budget(f"a walk of {count} leaves", held + count * leaf)

    step_type = np.min_scalar_type(d - 1)
    if n == 1:  # the root is the only leaf
        if room < 1:
            refuse()
        p = _weight(root)
        return BranchDistribution(d=d, paths=np.zeros((1, 0), step_type),
                                  weights=np.array([p]), marginal={one_box(d): p})
    # label parts -> the (states, paths) pieces of its nodes, to be stacked
    frontier = {one_box(d).parts: [(root[..., None], np.zeros((1, 0), step_type))]}
    leaves = []  # (paths, weights, label parts) per block of the last level
    count, pruned = 0, 0.0
    matrices = root.ndim == 2  # whether the nodes hold density matrices
    for k in range(1, n):
        qudit = None if stream is None else stream[k]
        mixed = qudit is not None and (matrices or qudit.ndim == 2)  # a density-matrix step
        matrices = matrices or mixed
        level, frontier = frontier, {}
        if not level:  # every node was pruned
            break
        if qudit is not None:
            groups = [(Partition(parts), sum(len(paths) for _, paths in pieces))
                      for parts, pieces in level.items()]
            check_budget(f"level {k} of a walk, {sum(m for _, m in groups)} nodes",
                         held + _level_bytes(groups, mixed))
        while level:
            parts, pieces = level.popitem()
            if len(pieces) == 1:
                (states, paths), = pieces
            else:
                states = np.concatenate([s for s, _ in pieces], axis=-1)
                paths = np.concatenate([p for _, p in pieces])
            del pieces
            lam = Partition(parts)
            for _ in range(len(paths)):  # one lookup per node
                t = cg_transform(lam, mixed=mixed)
            for j, target, w, sub in _expand(t, states, qudit):
                rows = paths
                if not w.min() >= prune:  # a weight under prune, or a NaN one
                    light = w < prune  # a NaN weight is kept, as a number would be
                    pruned += float(w[light].sum())
                    if light.all():
                        continue
                    keep = ~light
                    # compress keeps sub C-contiguous, where sub[..., keep] would not
                    w, sub, rows = w[keep], sub.compress(keep, axis=-1), paths[keep]
                child = np.empty((len(rows), k), step_type)
                child[:, :-1] = rows
                child[:, -1] = j
                if k + 1 < n:
                    frontier.setdefault(target.parts, []).append((sub, child))
                    continue
                leaves.append((child, w, target.parts))
                count += len(w)
                if count > room:
                    refuse()
    if not leaves:  # every leaf was pruned
        return BranchDistribution(d=d, paths=np.zeros((0, n - 1), step_type),
                                  weights=np.zeros(0), marginal={}, pruned=pruned)
    return _sorted_leaves(d, leaves, pruned)


def _sorted_leaves(d: int, leaves: list, pruned: float) -> BranchDistribution:
    """The distribution of the walk's leaves, given as (paths, weights,
    label parts) per block: the paths and weights in sorted path order,
    and each label's marginal summed over its paths in that order
    (np.bincount adds one weight at a time), the labels in the order of
    their first path."""
    ids: dict[tuple[int, ...], int] = {}
    labels = np.repeat([ids.setdefault(parts, len(ids)) for _, _, parts in leaves],
                       [len(w) for _, w, _ in leaves])
    paths = np.concatenate([p for p, _, _ in leaves])
    order = np.lexsort(paths.T[::-1])
    paths, labels = paths[order], labels[order]
    weights = np.concatenate([w for _, w, _ in leaves])[order]
    sums = np.bincount(labels, weights, minlength=len(ids)).tolist()
    parts = list(ids)
    marginal = {Partition(parts[i]): sums[i] for i in dict.fromkeys(labels.tolist())}
    return BranchDistribution(d=d, paths=paths, weights=weights, marginal=marginal,
                              pruned=pruned)


@dataclass
class StreamState:
    lam: Partition
    amplitudes: np.ndarray  # vector (pure) or density matrix (mixed)
    path: list[int] = field(default_factory=list)
    rng: np.random.Generator = None

    @property
    def d(self) -> int:
        return self.lam.d

    def check(self) -> None:
        """Refuse a state whose trace or norm has drifted from 1, or is NaN."""
        if self.amplitudes.ndim == 2:
            if not abs(np.trace(self.amplitudes).real - 1.0) <= 1e-9:
                raise NumericalCollapseError("state trace drifted from 1")
        elif not abs(math.sqrt(np.vdot(self.amplitudes, self.amplitudes).real) - 1.0) <= 1e-9:
            raise NumericalCollapseError("state norm drifted from 1")


def _normalized(vec: np.ndarray, p: float) -> np.ndarray:
    """vec / sqrt(p), dividing the real and imaginary parts (as complex
    division by a real does, several times faster), with the parts below
    the normal float range set to 0.  Their squares are 0 in every weight,
    and arithmetic on them is slow: 1794 of the 8001 amplitudes after 8000
    copies of (0.6, 0.8i) are subnormal, and they made each rotation 17
    times slower."""
    parts = vec.view(float) / math.sqrt(p)
    parts[np.abs(parts) < _TINY] = 0
    return parts.view(complex)


def init_state(qudit: np.ndarray, d: int, seed: int = 0) -> StreamState:
    """Absorb the first qudit: lam = (1, 0, ...) and Q^d_(1) = C^d.
    `run_stream` builds the same state on its run's own generator."""
    qudit = check_state(qudit, d)
    return StreamState(lam=one_box(d), amplitudes=qudit.copy(), rng=make_rng(seed))


def step(state: StreamState, qudit: np.ndarray) -> tuple[StreamState, int, float]:
    """One iteration: couple in the new qudit, measure the block label j by
    inverse-CDF sampling (j ascending), project and renormalize.  A vector
    state meeting a pure qudit takes the transform's product step, split
    by `_split`; a density matrix, or a vector meeting a mixed qudit, is
    the one-column case of the level walk's `_expand`."""
    qudit = check_state(qudit, state.d)
    state.check()
    mixed = state.amplitudes.ndim == 2 or qudit.ndim == 2
    t = cg_transform(state.lam, mixed=mixed)
    if mixed:
        outcomes = [(j, target, float(w[0]), sub[..., 0])
                    for j, target, w, sub in _expand(t, state.amplitudes[..., None], qudit)]
    else:
        outcomes = _split(t, t._product(state.amplitudes, qudit))
    i, prob = _sample([p for _, _, p, _ in outcomes], state.rng)
    j, target, p, sub = outcomes[i]
    state.amplitudes = sub / p if mixed else _normalized(sub, p)
    state.lam = target
    state.path.append(j)
    return state, j, prob


@dataclass
class RunResult:
    lam: Partition
    path: LatticePath
    amplitudes: np.ndarray  # for a mixed stream, the drawn unravelling's state


def run_stream(stream: list[np.ndarray], d: int, seed: int = 0) -> RunResult:
    """Run the sampler over a stream of qudits; deterministic in
    (stream, seed).

    A density-matrix element is unravelled: the run couples in one of its
    eigenvectors, drawn with its eigenvalue as probability.  The
    measurement is linear in each qudit, so the (lambda, path) law is the
    one of the density-matrix step, at the cost of a vector step.  Vector
    elements draw nothing.  Each element is checked as its step takes it,
    and an error names the element."""
    check_stream(stream[:1], d)  # refuses an empty stream, names a bad element 0
    rng = make_rng(seed)
    components = {}  # id of a density-matrix element -> (eigenvalues, eigenvectors)

    def pure(q):
        if not _is_matrix(q):
            return q
        if id(q) not in components:  # the iid form is n references to one array
            w, v = np.linalg.eigh(check_state(q, d))
            components[id(q)] = ([max(float(x), 0.0) for x in w],
                                 [v[:, i].copy() for i in range(d)])
        weights, vectors = components[id(q)]
        return vectors[_sample(weights, rng)[0]]

    # init_state's first state on the run's generator, which draws the
    # components and the labels (make_rng is 17 us a run)
    state = StreamState(one_box(d), check_state(pure(stream[0]), d).copy(), rng=rng)
    for k in range(1, len(stream)):
        try:
            state, _, _ = step(state, pure(stream[k]))
        except InvalidInputError as e:
            raise InvalidInputError(f"stream element {k}: {e}") from e
    return RunResult(lam=state.lam, path=LatticePath(tuple(state.path)),
                     amplitudes=state.amplitudes)


def branch_distribution(stream: list[np.ndarray], d: int,
                        prune: float = DEFAULT_PRUNE) -> BranchDistribution:
    """Every measurement branch of a product stream, with its probability."""
    stream = check_stream(stream, d)
    return _enumerate(d, len(stream), stream[0], stream, prune)


def run_full_state(state: np.ndarray, d: int,
                   prune: float = DEFAULT_PRUNE) -> BranchDistribution:
    """Couple the qudits of a full d^n state (vector or density matrix) in
    one by one, each CG transform acting on the leading qudits and the
    identity on the rest, enumerating all branches; handles entangled
    inputs."""
    if d < 2:
        raise InvalidInputError(f"d={d}: need d >= 2")
    state = np.asarray(state, dtype=complex)
    size = state.shape[0]
    n, power = 0, 1
    while power < size:
        n, power = n + 1, power * d
    if n < 1 or power != size:
        raise InvalidInputError(f"state size {size} is not d^n for d={d}, n >= 1")
    # the state and each level's rotation, beside which check_state holds
    # about 1 MiB: measured 3.0 to 3.3 times the state on top of it (a
    # density matrix at n=9 and 10, a vector at n=14 and 16)
    held = 64 * state.size
    check_budget(f"full state of n={n}, d={d}", held)
    state = check_state(state, size)
    return _enumerate(d, n, state, None, prune, held)

