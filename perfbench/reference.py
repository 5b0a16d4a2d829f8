"""A fixed reference loop that tracks the speed of the shared machine.

The host that runs the benchmark slows this single-threaded code by up to
~1.8x while a neighbour is busy, in phases from tens of milliseconds to
tens of seconds; a whole 30 s run can fall into one.  The median of a
run's raw times then depends mostly on how much of the run was slow.
So child.py runs `reference()` after set-up and after every untraced op,
and reports each time also scaled to a machine on which the reference
takes REF_S:

    scaled = raw * REF_S / (median of the process's reference times)

The median over at least three references, a few seconds apart, follows
the slow phases but not a single reference that a short stall hit.

The reference does not call schurstream and fills none of its caches.
It is half interpreter work (dict updates on small ints, which create no
objects the garbage collector tracks) and half BLAS work (96x96 matrix
products), the two kinds of work the ops do.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# The reference's time on an uncontended 2-vCPU x86_64 VM (see README.md),
# so that scaled times read as seconds on that machine.
REF_S = 0.027

_PY_ITERS = 60_000
_BLAS_ITERS = 450
_M = np.random.default_rng(0).normal(size=(96, 96))


def reference() -> float:
    """Seconds the fixed reference loop takes now."""
    start = perf_counter()
    d: dict[int, int] = {}
    acc = 0
    for i in range(_PY_ITERS):
        k = i % 1021
        d[k] = d.get(k, 0) + i
        acc ^= (i * 2654435761) & 0xFFFF
    m = _M
    for _ in range(_BLAS_ITERS):
        m @ m
    return perf_counter() - start
