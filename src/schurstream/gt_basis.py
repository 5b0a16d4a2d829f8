"""Gelfand-Tsetlin patterns of U(d) irreps.

A pattern is stored as a tuple of rows, ``rows[0]`` being the defining
partition (length d) and each subsequent row one entry shorter, down to a
single entry.  Entries interlace: rows[k][i] >= rows[k+1][i] >= rows[k][i+1].
The patterns of lam index the GT basis of Q^d_lam that `cg` builds its
transforms in; the dense generator matrices in that basis are a test
reference (tests/cg_reference.py).
"""

from __future__ import annotations

import itertools

from .partitions import Partition


def enumerate_gt(lam: Partition) -> list[tuple[tuple[int, ...], ...]]:
    """All GT patterns with top row lam, lexicographically descending on
    the flattened rows."""
    patterns = [(lam.parts,)]
    for _ in range(lam.d - 1):
        new = []
        for pat in patterns:
            above = pat[-1]
            ranges = [range(above[i], above[i + 1] - 1, -1)
                      for i in range(len(above) - 1)]
            for row in itertools.product(*ranges):
                new.append(pat + (row,))
        patterns = new
    return patterns
