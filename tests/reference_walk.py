"""The depth-first branch walk, kept as the reference for the sampler's
level-by-level one (`sampler._enumerate`) and as the walk of register
mode (tests/register_mode.py).

`_enumerate(d, n, root, outcomes_fn, prune, held)` expands one node at a
time through `outcomes_fn(k, lam, state)`, which gives the children of a
node after k qudits as (j, lam+e_j, weight, unnormalized part), j
ascending: `sampler._product_outcomes` coupling stream[k] into a product
stream's node, or `sampler._outcomes` with the label's transform for a
full state.  Its leaves are the batched walk's, key for key and in the
same order; their floats agree to rounding, since it weighs each block
with `np.vdot` where the batched walk sums |x|^2 down a column.
"""

from __future__ import annotations

import numpy as np

from schurstream import errors
from schurstream.errors import InvalidInputError, check_budget
from schurstream.partitions import Partition, one_box
from schurstream.sampler import BranchDistribution, _leaf_bytes, _path_counts, _weight


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
