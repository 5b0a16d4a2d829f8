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
do with them.  Trajectory mode and branch enumeration couple a
product-state qudit in with `_product_outcomes`; full-state mode rotates
the leading qudits of the whole state with `_outcomes`.  `_enumerate`
walks every branch depth first, and `_sample` draws one.  The walk pushes
internal nodes only: a node after n - 1 qudits writes its children, the
leaves, straight into the result, and holds them to the memory budget by
a count of leaves fixed before the walk starts.  The `dist` and `full`
reports spell each path with the one path-string formula that
LatticePath uses (partitions._path_string).

A step applies the CG transform with no dense matrix, through the two
kernels that each transform format owns (see cg): `_apply` on the
leading axis of a coupled state, on both sides of a density matrix, and
`_product` on a vector state coupled to a pure qudit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import errors
from .cg import Transform, cg_transform
from .errors import (InvalidInputError, NumericalCollapseError, check_budget,
                     check_state, check_stream)
from .partitions import (LatticePath, Partition, dim_symmetric, one_box,
                         partitions_of)

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


def _enumerate(d: int, n: int, root: np.ndarray, outcomes_fn,
               prune: float, held: int = 0) -> BranchDistribution:
    """Depth-first enumeration of every measurement branch of n qudits.
    Nodes carry unnormalized states, whose weight is the accumulated branch
    probability; `outcomes_fn(k, lam, state)` gives the children of a node
    after k qudits.  Children lighter than `prune` are dropped and their
    weight is added to `pruned`; `prune` must lie in [0, 1).  The leaves,
    on top of the `held` bytes of the walk's states, are held to the
    memory budget: the walk is refused at the first leaf past the room
    the budget leaves them, naming that leaf's count.  With `prune` = 0
    the walk reaches every lattice path, and it is refused before it
    starts when their leaves are over the budget.

    Internal nodes are pushed in reverse, so each node's children are
    popped j ascending.  A node after n - 1 qudits writes its children,
    the leaves, straight into `entries` and `marginal`, j ascending, so
    the leaves arrive in sorted path order: `entries` is sorted, and each
    `marginal` sum runs over its paths in that order.  Every node adds its
    pruned children to `pruned` j descending, the order in which it
    pushes the others."""
    if not 0.0 <= prune < 1.0:  # NaN fails both comparisons
        raise InvalidInputError(f"prune={prune}: need 0 <= prune < 1")
    leaf = _leaf_bytes(n)
    if prune == 0.0:  # the first level over the budget refuses
        for count in _path_counts(d, n):
            check_budget(f"a walk of at least {count} leaves", held + count * leaf)
    entries: dict[tuple[int, ...], float] = {}
    sums: dict[tuple[int, ...], float] = {}  # label parts -> probability
    pruned = 0.0
    room = (errors.MEMORY_BUDGET - held) // leaf  # the most leaves that fit

    def refuse():  # a leaf past the room is over the budget
        check_budget(f"a walk of {len(entries)} leaves", held + len(entries) * leaf)

    if n == 1:  # the root is the only leaf
        entries[()] = sums[one_box(d).parts] = _weight(root)
        if len(entries) > room:
            refuse()
    # the nodes still to expand: (k, lam, unnormalized state, steps)
    stack = [(1, one_box(d), root, ())] if n > 1 else []
    while stack:
        k, lam, cur, steps = stack.pop()
        children = outcomes_fn(k, lam, cur)
        internal = k + 1 < n
        for j, target, p, sub in reversed(children):
            if p < prune:
                pruned += p
            elif internal:
                stack.append((k + 1, target, sub, steps + (j,)))
        if internal:
            continue
        for j, target, p, _ in children:
            if p < prune:
                continue
            entries[steps + (j,)] = p
            key = target.parts
            sums[key] = sums.get(key, 0.0) + p
            if len(entries) > room:
                refuse()
    return BranchDistribution(
        d=d, entries=entries, pruned=pruned,
        marginal={Partition(parts): p for parts, p in sums.items()})


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
    return _enumerate(
        d, len(stream), stream[0],
        lambda k, lam, amp: _product_outcomes(lam, amp, stream[k]),
        prune)


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
    return _enumerate(
        d, n, state,
        lambda k, lam, cur: _outcomes(cg_transform(lam), cur),
        prune, held)

