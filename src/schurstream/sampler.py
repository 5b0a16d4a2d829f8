"""The streaming weak Schur sampling engine.

Each step couples one new qudit in with a Clebsch-Gordan transform and
measures the block label j.  Four execution modes share that step:

* trajectory mode (`step` / `run_stream`): the simulated state is the
  dim Q^d_lam amplitude vector (or density matrix) itself, and j is
  sampled;
* exhaustive branch enumeration (`branch_distribution`) over all
  measurement outcomes of a product-state stream;
* full-state mode (`run_full_state`) applying each step's CG transform to
  the leading qudits of a d^n state, which also handles entangled inputs;
* register-level qubit mode (`register_*`), which lays the state out on an
  explicit ceil(log2(2k+4))-qubit register, measures the leading (L) qubit
  and discards qubits per the width bookkeeping.

The modes differ only in how they form one step's outcomes: `_outcomes`
couples and projects, `_enumerate` walks every branch depth first and
`_sample` draws one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cg import CGTransform, cg_transform
from .errors import (InvalidInputError, NumericalCollapseError, check_budget,
                     check_state)
from .partitions import LatticePath, Partition, one_box
from .resources import qudit_width, removal

DEFAULT_PRUNE = 1e-12


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator so trajectories reproduce across platforms."""
    return np.random.Generator(np.random.Philox(seed))


def _is_matrix(x) -> bool:
    return np.asarray(x).ndim == 2


def _weight(x: np.ndarray) -> float:
    """Squared norm of a vector, trace of a density matrix."""
    return float(np.trace(x).real) if _is_matrix(x) else float(np.vdot(x, x).real)


def _outcomes(t: CGTransform, big: np.ndarray
              ) -> list[tuple[int, Partition, float, np.ndarray]]:
    """Rotate `big` (a vector or a density matrix of side t.size * rest) by
    t (x) I_rest and split it along the blocks of t: (j, lam+e_j, weight,
    unnormalized part) per block, j ascending.  t acts on the leading axis
    by a reshape; its matrix is real, so t^dag = t^T, and it acts on the
    interleaved real and imaginary parts of x by one real product, with no
    complex copy of the matrix.  `big` must be complex128, as every state
    from check_state is."""
    def op(x):
        re_im = np.ascontiguousarray(x).reshape(t.size, -1).view(float)
        return (t.matrix @ re_im).view(complex).reshape(x.shape)

    rest = len(big) // t.size
    mixed = _is_matrix(big)
    rotated = op(op(big).T).T if mixed else op(big)
    out = []
    for b in t.blocks:
        sl = slice(b.offset * rest, (b.offset + b.dim) * rest)
        sub = rotated[sl, sl] if mixed else rotated[sl]
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
    """The outcomes of coupling a product-state qudit into Q^d_lam."""
    return _outcomes(cg_transform(lam), _couple(amplitudes, qudit))


def _sample(outcomes: list, rng: np.random.Generator) -> tuple[tuple, float]:
    """Inverse-CDF draw over `outcomes` in order (j ascending), weighted by
    their third field; returns the drawn outcome and its probability."""
    total = sum(o[2] for o in outcomes)
    if total < 1e-12:
        raise NumericalCollapseError("all branch probabilities below 1e-12")
    r = rng.random() * total
    acc = 0.0
    chosen = outcomes[-1]
    for o in outcomes:
        acc += o[2]
        if r < acc:
            chosen = o
            break
    if chosen[2] < 1e-12:
        raise NumericalCollapseError("sampled branch has vanishing probability")
    return chosen, chosen[2] / total


@dataclass
class BranchDistribution:
    d: int
    entries: dict[tuple[int, ...], float]  # path steps -> probability, sorted
    marginal: dict[Partition, float]  # label -> probability
    pruned: float = 0.0

    @property
    def total(self) -> float:
        return sum(self.entries.values())


def _leaf_bytes(n: int) -> int:
    """Bytes a leaf holds with its share of the `dist` or `full` report
    (measured 573 B in JSON and 675 B in CSV at n=16)."""
    return 512 + 32 * n


def _enumerate(d: int, n: int, root: np.ndarray, outcomes_fn,
               prune: float, held: int = 0) -> BranchDistribution:
    """Depth-first enumeration of every measurement branch of n qudits.
    Nodes carry unnormalized states, whose weight is the accumulated branch
    probability; `outcomes_fn(k, lam, state)` gives the children of a node
    after k qudits.  Children lighter than `prune` are dropped and their
    weight is added to `pruned`; `prune` must lie in [0, 1).  Each leaf, on
    top of the `held` bytes of the walk's states, is checked against the
    memory budget.

    Children are pushed in reverse, so each node's are popped j ascending
    and the leaves arrive in sorted path order: `entries` is sorted, and
    each `marginal` sum runs over its paths in that order."""
    if not 0.0 <= prune < 1.0:  # NaN fails both comparisons
        raise InvalidInputError(f"prune={prune}: need 0 <= prune < 1")
    entries: dict[tuple[int, ...], float] = {}
    marginal: dict[Partition, float] = {}
    pruned = 0.0
    # stack entries: (k, lam, unnormalized state, steps)
    stack = [(1, one_box(d), root, ())]
    leaf = _leaf_bytes(n)
    while stack:
        k, lam, cur, steps = stack.pop()
        if k == n:
            w = entries[steps] = _weight(cur)
            marginal[lam] = marginal.get(lam, 0.0) + w
            check_budget(f"a walk of {len(entries)} leaves", held + len(entries) * leaf)
            continue
        for j, target, p, sub in reversed(outcomes_fn(k, lam, cur)):
            if p < prune:
                pruned += p
                continue
            stack.append((k + 1, target, sub, steps + (j,)))
    return BranchDistribution(d=d, entries=entries, marginal=marginal,
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

    @property
    def mixed(self) -> bool:
        return _is_matrix(self.amplitudes)

    def check(self) -> None:
        if self.mixed:
            if abs(np.trace(self.amplitudes).real - 1.0) > 1e-9:
                raise NumericalCollapseError("state trace drifted from 1")
        elif abs(np.linalg.norm(self.amplitudes) - 1.0) > 1e-9:
            raise NumericalCollapseError("state norm drifted from 1")


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
    state.amplitudes = sub / p if _is_matrix(sub) else sub / math.sqrt(p)
    state.lam = target
    state.path.append(j)
    return state, j, prob


@dataclass
class RunResult:
    lam: Partition
    path: LatticePath
    amplitudes: np.ndarray


def run_stream(stream: list[np.ndarray], d: int, seed: int = 0,
               max_steps: int | None = None) -> RunResult:
    """Run the sampler over a stream of qudits; deterministic in
    (stream, seed).  `max_steps` truncates the run early (the streaming
    property): the current label is still a valid output."""
    if len(stream) < 1:
        raise InvalidInputError("empty stream")
    state = init_state(stream[0], d, seed=seed)
    steps = len(stream) - 1 if max_steps is None else min(max_steps, len(stream) - 1)
    for k in range(steps):
        state, _, _ = step(state, stream[k + 1])
    return RunResult(lam=state.lam, path=LatticePath(tuple(state.path)),
                     amplitudes=state.amplitudes)


def branch_distribution(stream: list[np.ndarray], d: int,
                        prune: float = DEFAULT_PRUNE) -> BranchDistribution:
    """Every measurement branch of a product stream, with its probability."""
    if len(stream) < 1:
        raise InvalidInputError("empty stream")
    stream = [check_state(q, d) for q in stream]
    return _enumerate(
        d, len(stream), stream[0],
        lambda k, lam, amp: _product_outcomes(lam, amp, stream[k]),
        prune)


def run_full_state(state: np.ndarray, d: int,
                   prune: float = DEFAULT_PRUNE,
                   limit: int | None = None) -> BranchDistribution:
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
    # the state, check_state's copies and each level's rotation: measured
    # 3.0 times the state (a vector at n=16, a density matrix at n=10)
    held = 64 * state.size
    check_budget(f"full state of n={n}, d={d}", held, n, limit)
    state = check_state(state, size)
    return _enumerate(
        d, n, state,
        lambda k, lam, cur: _outcomes(cg_transform(lam), cur),
        prune, 0 if limit is not None else held)


# ---------------------------------------------------------------------------
# register-level qubit mode (Algorithm 2)

PAD_TOL = 1e-12


@dataclass
class RegisterEvent:
    k: int
    width: int
    j: int
    probability: float
    removal: bool
    rearranged: bool  # step-6 permutation applied (j=1, no removal)


@dataclass
class RegisterState:
    lam: Partition
    vector: np.ndarray  # length 2^ceil(log2(k+2)), leading dim Q amplitudes
    events: list[RegisterEvent] = field(default_factory=list)

    @property
    def k(self) -> int:  # the qubits coupled in so far
        return self.lam.n


def register_init(qubit: np.ndarray) -> RegisterState:
    qubit = check_state(qubit, 2)
    if _is_matrix(qubit):
        raise InvalidInputError("register mode needs pure qubit states")
    vec = np.zeros(4, dtype=complex)  # ceil(log2(3)) = 2 qubits
    vec[:2] = qubit
    return RegisterState(lam=one_box(2), vector=vec)


def _register_outcomes(rs: RegisterState, qubit: np.ndarray):
    """CG + rearrangement on the explicit register; returns the width and
    both halves (j, target, probability, unnormalized half vector)."""
    qubit = check_state(qubit, 2)
    t = cg_transform(rs.lam)
    dimq = t.size // 2
    if np.max(np.abs(rs.vector[dimq:])) > PAD_TOL:
        raise NumericalCollapseError("padding qubits are not exactly zero")
    width = qudit_width(rs.k, 2)  # of the register with the new qubit
    assert 2 * len(rs.vector) == 2 ** width
    # rearranging matrix: leading (L) qubit indexes j
    half = len(rs.vector)
    halves = [(j, target, p, np.pad(sub, (0, half - len(sub))))
              for j, target, p, sub in _outcomes(t, _couple(rs.vector[:dimq], qubit))]
    if len(halves) == 1:  # lam0 = lam1: the j=1 half is empty
        halves.append((1, None, 0.0, np.zeros(half, dtype=complex)))
    return width, halves


def _register_keep(h: np.ndarray, width: int, removed: bool) -> np.ndarray:
    """The register after measuring L: the half itself when the L qubit is
    discarded, else the half on top of a zeroed 2^width register (for j=1
    the step-6 permutation brings the block up)."""
    if removed:
        return h
    vec = np.zeros(2 ** width, dtype=complex)
    vec[:len(h)] = h
    return vec


def register_step(rs: RegisterState, qubit: np.ndarray,
                  rng: np.random.Generator) -> tuple[RegisterState, int, float]:
    """One Algorithm-2 iteration: embed the CG, rearrange so the leading
    qubit indexes j, measure it, then remove a qubit exactly when the
    width bookkeeping says so."""
    width, halves = _register_outcomes(rs, qubit)
    (j, target, p, h), prob = _sample(halves, rng)
    removed = removal(rs.k, 2)
    rs.events.append(RegisterEvent(k=rs.k, width=width, j=j, probability=prob,
                                   removal=removed,
                                   rearranged=j == 1 and not removed))
    rs.lam = target
    rs.vector = _register_keep(h / math.sqrt(p), width, removed)
    return rs, j, prob


def register_run(stream: list[np.ndarray], seed: int = 0) -> RunResult:
    """Register-level analogue of run_stream (d = 2, pure states only)."""
    if len(stream) < 1:
        raise InvalidInputError("empty stream")
    rng = make_rng(seed)
    rs = register_init(stream[0])
    for k in range(len(stream) - 1):
        rs, _, _ = register_step(rs, stream[k + 1], rng)
    result = RunResult(lam=rs.lam, path=LatticePath(tuple(e.j for e in rs.events)),
                       amplitudes=rs.vector)
    result.events = rs.events
    return result


def register_branch_distribution(stream: list[np.ndarray],
                                 prune: float = DEFAULT_PRUNE) -> BranchDistribution:
    """Exhaustive branch enumeration in register mode, for cross-checking
    the abstract mode's measurement law."""
    def outcomes(k, lam, vec):
        width, halves = _register_outcomes(RegisterState(lam, vec), stream[k])
        removed = removal(k, 2)
        return [(j, target, p, _register_keep(h, width, removed))
                for j, target, p, h in halves if target is not None]

    return _enumerate(2, len(stream), register_init(stream[0]).vector, outcomes,
                      prune)
