"""Gelfand-Tsetlin patterns of U(d) irreps.

A pattern has d rows, row 0 being the defining partition (length d) and
each subsequent row one entry shorter, down to a single entry.  Entries
interlace: rows[k][i] >= rows[k+1][i] >= rows[k][i+1].  The patterns of
lam index the GT basis of Q^d_lam that `cg` builds its transforms in; the
dense generator matrices in that basis are a test reference
(tests/cg_reference.py).
"""

from __future__ import annotations

import numpy as np

from .partitions import Partition


def enumerate_gt(lam: Partition) -> np.ndarray:
    """All GT patterns with top row lam, one per row of an int64 array
    holding the pattern's rows concatenated top to bottom (d(d+1)/2
    entries), lexicographically descending.  Each row is added for every
    pattern at once: a pattern whose last row is `above` has
    prod_i (above_i - above_{i+1} + 1) children, entry i running down
    from above_i to above_{i+1}, the last entry fastest."""
    pats = np.array([lam.parts], dtype=np.int64)
    for l in range(lam.d - 1, 0, -1):  # the length of the new row
        hi = pats[:, -l - 1:-1]
        span = hi - pats[:, -l:] + 1
        count = span.prod(axis=1)
        parent = np.repeat(np.arange(len(pats)), count)
        # each child's ordinal among its parent's children, in mixed radix
        ordinal = np.arange(len(parent)) - (count.cumsum() - count)[parent]
        span, digit = span[parent], np.empty((len(parent), l), dtype=np.int64)
        for i in range(l - 1, 0, -1):
            ordinal, digit[:, i] = np.divmod(ordinal, span[:, i])
        digit[:, 0] = ordinal
        pats = np.concatenate([pats[parent], hi[parent] - digit], axis=1)
    return pats
