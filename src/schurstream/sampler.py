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

The modes differ only in how they form one step's outcomes and what they
do with them.  Trajectory mode couples a product-state qudit in with
`_product_outcomes`, and `_sample` draws one branch.  Branch enumeration
and full-state mode share `_enumerate`, which walks every branch level by
level: at each level it groups the nodes by label and stacks a group's
states along a trailing batch axis, so that one transform call expands
every node of the group (`_expand`), coupling a product-state qudit into
each column or rotating the leading qudits of each.  Density-matrix
nodes take the same walk, their outcomes formed one column at a time.
The walk holds each level and the leaves to the memory budget and sorts
the leaves' paths once, at the end.  The `dist` and `full` reports spell
each path with the one path-string formula that LatticePath uses
(partitions._path_string).

A step applies the CG transform with no dense matrix, through the two
kernels that each transform format owns (see cg): `_apply` on the
leading axis of a coupled state, on both sides of a density matrix, and
`_product` on a vector state coupled to a pure qudit, or on the columns
of a batch of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import errors
from .cg import Transform, cg_transform
from .errors import (InvalidInputError, NumericalCollapseError, check_budget,
                     check_state, check_stream)
from .partitions import (LatticePath, Partition, dim_symmetric, dim_unitary,
                         one_box, partitions_of)

DEFAULT_PRUNE = 1e-12
_TINY = np.finfo(float).tiny  # the smallest normal float


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator so trajectories reproduce across platforms."""
    return np.random.Generator(np.random.Philox(seed))


def _is_matrix(x) -> bool:
    return np.asarray(x).ndim == 2


def _weight(x: np.ndarray) -> float:
    """Squared norm of a vector, trace of a density matrix."""
    return float(np.trace(x).real) if x.ndim == 2 else float(np.vdot(x, x).real)


def _outcomes(t: Transform, big: np.ndarray
              ) -> list[tuple[int, Partition, float, np.ndarray]]:
    """Rotate `big` (a vector or a density matrix of side t.size * rest) by
    t (x) I_rest, on both sides of a density matrix (t is real, so
    t^dag = t^T), and split it along the blocks of t: (j, lam+e_j, weight,
    unnormalized part) per block, j ascending.  `big` must be complex128,
    as every state from check_state is."""
    rotated = t._apply(big)
    if big.ndim == 2:
        rotated = t._apply(rotated, axis=1)
    return _split(t, rotated, len(big) // t.size)


def _split(t: Transform, rotated: np.ndarray, rest: int = 1
           ) -> list[tuple[int, Partition, float, np.ndarray]]:
    """(j, lam+e_j, weight, unnormalized part) per block of t, j ascending,
    from a vector or density matrix rotated by t (x) I_rest."""
    out = []
    for b in t.blocks:
        lo = b.offset * rest
        hi = lo + b.dim * rest
        sub = rotated[lo:hi] if rotated.ndim == 1 else rotated[lo:hi, lo:hi]
        out.append((b.j, b.target, _weight(sub), sub))
    return out


def _couple(state: np.ndarray, qudit: np.ndarray) -> np.ndarray:
    """The Kronecker product state (x) qudit, qudit index fastest, formed by
    broadcasting; a pure factor is promoted when the other one is mixed."""
    if not (_is_matrix(state) or _is_matrix(qudit)):
        return (state[:, None] * qudit).ravel()
    a, q = (x if _is_matrix(x) else np.outer(x, x.conj()) for x in (state, qudit))
    return (a[:, None, :, None] * q[None, :, None, :]).reshape(len(a) * len(q), -1)


def _product_outcomes(lam: Partition, amplitudes: np.ndarray, qudit: np.ndarray
                      ) -> list[tuple[int, Partition, float, np.ndarray]]:
    """The outcomes of coupling a product-state qudit into Q^d_lam.  A mixed
    factor is coupled with `_couple` and goes through `_outcomes`; a vector
    and a pure qudit go to the transform's own product step."""
    mixed = amplitudes.ndim == 2 or qudit.ndim == 2
    t = cg_transform(lam, mixed=mixed)
    if mixed:
        return _outcomes(t, _couple(amplitudes, qudit))
    return _split(t, t._product(amplitudes, qudit))


def _sample(outcomes: list, rng: np.random.Generator) -> tuple[tuple, float]:
    """Inverse-CDF draw over `outcomes` in order (j ascending), weighted by
    their third field; returns the drawn outcome and its probability."""
    total = sum(o[2] for o in outcomes)
    if not total >= 1e-12:
        raise NumericalCollapseError("all branch probabilities below 1e-12")
    r = rng.random() * total
    acc = 0.0
    chosen = outcomes[-1]
    for o in outcomes:
        acc += o[2]
        if r < acc:
            chosen = o
            break
    if not chosen[2] >= 1e-12:
        raise NumericalCollapseError("sampled branch has vanishing probability")
    return chosen, chosen[2] / total


@dataclass
class BranchDistribution:
    d: int
    entries: dict[tuple[int, ...], float]  # path steps -> probability, sorted
    marginal: dict[Partition, float]  # label -> probability
    pruned: float = 0.0


def _leaf_bytes(n: int) -> int:
    """Bytes a leaf holds with its share of the `dist` or `full` report
    (measured 573 B in JSON and 675 B in CSV at n=16)."""
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
    of |x|^2 over its rows.  Density matrices are coupled and rotated on
    both sides one column at a time, each block written into its stack as
    it comes, and a block's weights are the traces of its stack."""
    m = states.shape[-1]
    if states.ndim == 2 and (qudit is None or qudit.ndim == 1):
        rotated = t._apply(states) if qudit is None else t._product(states, qudit)
        rest = len(rotated) // t.size
        starts = [b.offset * rest for b in t.blocks]
        sums = np.add.reduceat(np.square(rotated.view(float)), starts, axis=0)
        weights = sums[:, 0::2] + sums[:, 1::2]
        return [(b.j, b.target, w, rotated[lo:lo + b.dim * rest])
                for b, lo, w in zip(t.blocks, starts, weights)]
    stacks = []
    for i in range(m):
        big = states[..., i] if qudit is None else _couple(states[..., i], qudit)
        rest = len(big) // t.size
        rotated = t._apply(t._apply(big), axis=1)
        if not i:
            stacks = [np.empty((b.dim * rest,) * 2 + (m,), dtype=complex) for b in t.blocks]
        for b, stack in zip(t.blocks, stacks):
            lo = b.offset * rest
            stack[..., i] = rotated[lo:lo + b.dim * rest, lo:lo + b.dim * rest]
    return [(b.j, b.target, np.trace(stack).real, stack) for b, stack in zip(t.blocks, stacks)]


def _level_bytes(groups: list[tuple[Partition, int]], mixed: bool) -> int:
    """Bytes a `dist` level holds beside the leaves, from its (label,
    node count) groups, with s = d dim Q the side of a node's step: the
    level's states and the next level's, 16 (s/d + s) bytes a vector node
    and 16 ((s/d)^2 + s^2) a density-matrix one, a group's states again as
    it is stacked, the temporaries of the largest vector group's product
    and weights, three times its product, and 8 KiB of objects.  A
    density-matrix step is taken one node at a time, and the node's
    lookup checks its temporaries (cg._step_bytes).  Traced peaks of Haar
    vector walks at d = 2 to 5 were 0.6 to 0.8 of this at levels over
    100 KB."""
    sides = [(lam.d * dim_unitary(lam), m) for lam, m in groups]
    if mixed:
        return 32 * sum(s * s * m for s, m in sides) + 8192
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
    once.  Each node's path is a row of a small-int array, one column per
    level.  The leaves' rows are sorted once at the end (np.lexsort), so
    `entries` is in sorted path order and each `marginal` sum runs over
    its paths in that order.  A weight is a column sum of |x|^2, where a
    node-at-a-time walk would take np.vdot, so the floats may move in the
    last bits; the depth-first walk kept in tests/reference_walk.py is
    the reference.

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

    if n == 1:  # the root is the only leaf
        if room < 1:
            refuse()
        p = _weight(root)
        return BranchDistribution(d=d, entries={(): p}, marginal={one_box(d): p})
    step_type = np.min_scalar_type(d - 1)
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
    return _sorted_leaves(d, leaves, pruned)


def _sorted_leaves(d: int, leaves: list, pruned: float) -> BranchDistribution:
    """The distribution of the walk's leaves, given as (paths, weights,
    label parts) per block: `entries` in sorted path order, and each
    label's marginal summed over its paths in that order (np.bincount
    adds one weight at a time), the labels in the order of their first
    path.  The path tuples are made a few hundred rows at a time: a list
    per row of the whole array would double the walk's peak."""
    if not leaves:
        return BranchDistribution(d=d, entries={}, marginal={}, pruned=pruned)
    ids: dict[tuple[int, ...], int] = {}
    labels = np.repeat([ids.setdefault(parts, len(ids)) for _, _, parts in leaves],
                       [len(w) for _, w, _ in leaves])
    paths = np.concatenate([p for p, _, _ in leaves])
    order = np.lexsort(paths.T[::-1])
    paths, labels = paths[order], labels[order]
    weights = np.concatenate([w for _, w, _ in leaves])[order]
    keys = (key for lo in range(0, len(paths), 256)
            for key in map(tuple, paths[lo:lo + 256].tolist()))
    entries = dict(zip(keys, weights.tolist()))
    sums = np.bincount(labels, weights, minlength=len(ids)).tolist()
    parts = list(ids)
    marginal = {Partition(parts[i]): sums[i] for i in dict.fromkeys(labels.tolist())}
    return BranchDistribution(d=d, entries=entries, marginal=marginal, pruned=pruned)


@dataclass
class StreamState:
    lam: Partition
    amplitudes: np.ndarray  # vector (pure) or density matrix (mixed)
    path: list[int] = field(default_factory=list)
    rng: np.random.Generator = None

    @property
    def d(self) -> int:
        return self.lam.d

    @property
    def mixed(self) -> bool:
        return _is_matrix(self.amplitudes)

    def check(self) -> None:
        """Refuse a state whose trace or norm has drifted from 1, or is NaN."""
        if self.mixed:
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
    """Absorb the first qudit: lam = (1, 0, ...) and Q^d_(1) = C^d."""
    qudit = check_state(qudit, d)
    return StreamState(lam=one_box(d), amplitudes=qudit.copy(), rng=make_rng(seed))


def step(state: StreamState, qudit: np.ndarray) -> tuple[StreamState, int, float]:
    """One iteration: couple in the new qudit, measure the block label j by
    inverse-CDF sampling (j ascending), project and renormalize."""
    qudit = check_state(qudit, state.d)
    state.check()
    (j, target, p, sub), prob = _sample(
        _product_outcomes(state.lam, state.amplitudes, qudit), state.rng)
    state.amplitudes = sub / p if _is_matrix(sub) else _normalized(sub, p)
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
    components = {}  # id of a density-matrix element -> (i, None, w_i, v_i)

    def pure(q):
        if not _is_matrix(q):
            return q
        if id(q) not in components:  # the iid form is n references to one array
            w, v = np.linalg.eigh(check_state(q, d))
            components[id(q)] = [(i, None, max(float(w[i]), 0.0), v[:, i].copy())
                                 for i in range(d)]
        return _sample(components[id(q)], rng)[0][3]

    state = init_state(pure(stream[0]), d)
    state.rng = rng  # one generator draws the components and the labels
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

