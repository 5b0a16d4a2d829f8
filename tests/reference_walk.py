"""The depth-first branch walk, kept as the reference for the sampler's
level-by-level one (`sampler._enumerate`) and as the walk of register
mode (tests/register_mode.py).

`_enumerate(d, n, root, outcomes_fn, prune, held)` expands one node at a
time through `outcomes_fn(k, lam, state)`, which gives the children of a
node after k qudits as (j, lam+e_j, weight, unnormalized part), j
ascending: `node_outcomes` with the label's transform, coupling stream[k]
into a product stream's node or rotating the leading qudits of a full
state.  Nothing here batches: a node is coupled by np.kron and rotated
alone, and each block is weighed with `np.vdot` or a 2-D trace.  Its
leaves are the batched walk's, key for key and in the same order; their
floats agree to rounding, since the batched walk sums |x|^2 down a
column or traces a stack.
"""

from __future__ import annotations

import numpy as np

from schurstream import errors
from schurstream.errors import InvalidInputError, check_budget
from schurstream.partitions import Partition, one_box
from schurstream.sampler import (BranchDistribution, _leaf_bytes, _path_counts, _split,
                                 _weight)


def promoted(x: np.ndarray, mixed: bool) -> np.ndarray:
    """x, or |x><x| when a pure x meets a mixed factor."""
    return np.outer(x, x.conj()) if mixed and x.ndim == 1 else x


def node_outcomes(t, state: np.ndarray, qudit: np.ndarray | None = None
                  ) -> list[tuple[int, Partition, float, np.ndarray]]:
    """The children of one node at t's label: (j, lam+e_j, weight,
    unnormalized part) per block of t, j ascending.  A vector meeting a
    pure qudit takes the sampler's vector step (t._product, then
    sampler._split).  Otherwise the node's state is coupled to `qudit` by
    np.kron, a pure factor promoted when the other one is mixed, or taken
    alone (a state of side t.size * rest that holds every qudit, with
    `qudit` None); it is rotated by t (x) I_rest, on both sides of a
    density matrix, and split along the blocks of t, each weighed with
    np.vdot or a 2-D trace."""
    if qudit is not None:
        if state.ndim == 1 and qudit.ndim == 1:
            return _split(t, t._product(state, qudit))
        mixed = state.ndim == 2 or qudit.ndim == 2
        state = np.kron(promoted(state, mixed), promoted(qudit, mixed))
    rest = len(state) // t.size
    rotated = t._apply(state)
    if rotated.ndim == 2:
        rotated = t._apply(rotated, axis=1)
    out = []
    for b in t.blocks:
        lo, hi = b.offset * rest, (b.offset + b.dim) * rest
        sub = rotated[lo:hi] if rotated.ndim == 1 else rotated[lo:hi, lo:hi]
        out.append((b.j, b.target, _weight(sub), sub))
    return out


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
    paths = np.array(list(entries), dtype=np.min_scalar_type(d - 1))
    return BranchDistribution(
        d=d, paths=paths.reshape(len(entries), n - 1),
        weights=np.array(list(entries.values()), dtype=float), pruned=pruned,
        marginal={Partition(parts): p for parts, p in sums.items()})
