"""Gelfand-Tsetlin bases of U(d) irreps and generator matrix elements.

A pattern is stored as a tuple of rows, ``rows[0]`` being the defining
partition (length d) and each subsequent row one entry shorter, down to a
single entry.  Entries interlace: rows[k][i] >= rows[k+1][i] >= rows[k][i+1].

The simple raising generators E_{a,a+1} are populated from the closed-form
orthonormal-basis matrix elements; lowering generators are their transposes,
so all ladder matrix elements are real and non-negative (the phase
convention used throughout the package).
"""

from __future__ import annotations

import itertools
import json
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .partitions import Partition, dim_unitary


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


def pattern_weight(pat: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Occupation weight (w_0, ..., w_{d-1}): w_a = sum(row of length a+1)
    - sum(row of length a)."""
    d = len(pat[0])
    sums = [sum(pat[d - l]) for l in range(1, d + 1)]  # sums[l-1] = row of length l
    return tuple(sums[a] - (sums[a - 1] if a >= 1 else 0) for a in range(d))


def _raising_element(pat, l: int, k: int) -> float:
    """<pat + delta_{k,l} | E_{l,l+1} | pat> for 1-based row length l and
    entry index k; 0.0 when the shifted pattern is not valid."""
    d = len(pat[0])
    row = pat[d - l]
    above = pat[d - l - 1]
    # interlacing with the longer row; also rules out every zero-denominator case
    new_val = row[k - 1] + 1
    if new_val > above[k - 1]:
        return 0.0
    lkl = row[k - 1] - k
    num = 1.0
    for i in range(1, l + 2):
        num *= (above[i - 1] - i) - lkl
    if l >= 2:
        below = pat[d - l + 1]
        for i in range(1, l):
            num *= (below[i - 1] - i) - lkl - 1
    den = 1.0
    for i in range(1, l + 1):
        if i == k:
            continue
        lil = row[i - 1] - i
        den *= (lil - lkl) * (lil - lkl - 1)
    val = -num / den
    if val <= 0:
        return 0.0
    return math.sqrt(val)


class ConsistencyError(RuntimeError):
    """Internal check on generator algebra failed (implementation bug)."""


@dataclass
class IrrepRep:
    """A concrete U(d) irrep: ordered GT basis plus generator matrices."""

    lam: Partition
    basis: list[tuple[tuple[int, ...], ...]]
    index: dict = field(repr=False, default_factory=dict)
    weights: list[tuple[int, ...]] = field(default_factory=list)
    raising: list[np.ndarray] = field(default_factory=list)  # E_{a,a+1}, a=0..d-2

    @property
    def d(self) -> int:
        return self.lam.d

    @property
    def dim(self) -> int:
        return len(self.basis)

    def diagonal(self, a: int) -> np.ndarray:
        """E_{a,a} as a diagonal matrix of integer weights."""
        return np.diag([float(w[a]) for w in self.weights])

    def generator(self, a: int, b: int) -> np.ndarray:
        """E_{a,b} in the GT basis; |a-b| > 1 built by commutators."""
        if a == b:
            return self.diagonal(a)
        if b == a + 1:
            return self.raising[a]
        if a == b + 1:
            return self.raising[b].T
        if b > a:
            x, y = self.generator(a, b - 1), self.generator(b - 1, b)
        else:
            x, y = self.generator(a, b + 1), self.generator(b + 1, b)
        return x @ y - y @ x

    def casimir_matrix(self) -> np.ndarray:
        """Second-order Casimir sum_{a,b} E_{a,b} E_{b,a}."""
        c = np.zeros((self.dim, self.dim))
        for a in range(self.d):
            for b in range(self.d):
                g = self.generator(a, b)
                c += g @ g.T  # E_{b,a} = E_{a,b}^T in this real basis
        return c

    def to_json(self) -> str:
        return json.dumps({
            "lambda": str(self.lam),
            "d": self.d,
            "basis": [[list(r) for r in pat] for pat in self.basis],
            "raising": [m.tolist() for m in self.raising],
            "weights": [list(w) for w in self.weights],
        }, sort_keys=True)


def _build(lam: Partition) -> IrrepRep:
    d = lam.d
    basis = enumerate_gt(lam)
    index = {pat: i for i, pat in enumerate(basis)}
    weights = [pattern_weight(p) for p in basis]
    dim = len(basis)
    if dim != dim_unitary(lam):
        raise ConsistencyError(f"GT count {dim} != hook-content dim for {lam}")
    raising = []
    for a in range(d - 1):
        l = a + 1  # E_{a,a+1} changes the row of length l
        m = np.zeros((dim, dim))
        for src, pat in enumerate(basis):
            row = list(pat[d - l])
            for k in range(1, l + 1):
                coeff = _raising_element(pat, l, k)
                if coeff == 0.0:
                    continue
                row[k - 1] += 1
                shifted = pat[:d - l] + (tuple(row),) + pat[d - l + 1:]
                row[k - 1] -= 1
                dst = index.get(shifted)
                if dst is None:
                    continue
                m[dst, src] = coeff
        raising.append(m)
    rep = IrrepRep(lam=lam, basis=basis, index=index,
                   weights=weights, raising=raising)
    _check(rep)
    return rep


def _check(rep: IrrepRep) -> None:
    """Sampled commutation relations; raises ConsistencyError on failure."""
    for a in range(rep.d - 1):
        e, f = rep.raising[a], rep.raising[a].T
        h = e @ f - f @ e
        want = rep.diagonal(a) - rep.diagonal(a + 1)
        if np.max(np.abs(h - want)) > 1e-10:
            raise ConsistencyError(f"[E,F] check failed at a={a} for {rep.lam}")
    c = rep.casimir_matrix()
    target = float(casimir2(rep.lam))
    if np.max(np.abs(c - target * np.eye(rep.dim))) > 1e-9:
        raise ConsistencyError(f"Casimir not scalar {target} for {rep.lam}")


_cache: dict = {}
_cache_lock = threading.Lock()


def build_irrep(lam: Partition) -> IrrepRep:
    """Cached irrep construction; safe for concurrent readers."""
    key = lam.parts
    rep = _cache.get(key)
    if rep is None:
        with _cache_lock:
            rep = _cache.get(key)
            if rep is None:
                rep = _build(lam)
                _cache[key] = rep
    return rep


def casimir2(lam: Partition) -> int:
    """Analytic eigenvalue of sum_{a,b} E_{a,b}E_{b,a} on Q^d_lam, d = lam.d:
    sum_i lam_i (lam_i + d + 1 - 2(i+1)), exact integer."""
    return sum(p * (p + lam.d + 1 - 2 * (i + 1)) for i, p in enumerate(lam.parts))
