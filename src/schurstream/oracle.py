"""Brute-force ground truth on the full d^n-dimensional space.

Builds the iterated Schur transform level by level, one CG transform per copy
of an irrep.  Copies are in canonical (lexicographic) path order, which makes
the path <-> multiplicity-label correspondence an exact row-index statement.

Only intended for small n; guarded by the memory budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cg import cg_transform
from .errors import check_budget, check_state
from .partitions import Partition, one_box, partitions_of


def _transform_bytes(n: int, d: int) -> int:
    """Bytes the oracle on D = d^n holds with its report (measured 88 D^2 at
    D = 1024 and 729); d^64 is over any budget, so the power stops there."""
    return 96 * d ** (2 * min(n, 64))


@dataclass(frozen=True)
class Sector:
    """One copy of an irrep in the running basis: which lam, via which path."""
    lam: Partition
    path: tuple[int, ...]
    offset: int  # first row index
    dim: int


@dataclass
class SchurUnitary:
    matrix: np.ndarray
    sectors: list[Sector]

    @property
    def n(self) -> int:
        return self.sectors[0].lam.n

    @property
    def d(self) -> int:
        return self.sectors[0].lam.d

    def rows_for(self, lam: Partition) -> list[int]:
        out = []
        for s in self.sectors:
            if s.lam == lam:
                out.extend(range(s.offset, s.offset + s.dim))
        if not out:
            raise KeyError(f"no rows for {lam} in U_Sch({self.n})")
        return out


def schur_transform(n: int, d: int, limit: int | None = None) -> SchurUnitary:
    """U_Sch(n) = S(n-1) (S(n-2) (x) I_d) ... (S(1) (x) I_d^(n-2)), one level at
    a time: S(k) is block diagonal over the sectors, one CG transform each."""
    if n < 1:
        raise ValueError("n >= 1 required")
    check_budget(f"oracle for n={n}, d={d}", _transform_bytes(n, d), n, limit)
    u = np.eye(d)
    sectors = [Sector(lam=one_box(d), path=(), offset=0, dim=d)]
    for _ in range(n - 1):
        rows, spawned = [], []
        for s in sectors:
            t = cg_transform(s.lam)
            rows.append(t.matrix @ np.kron(u[s.offset:s.offset + s.dim], np.eye(d)))
            spawned.extend(Sector(lam=b.target, path=s.path + (b.j,),
                                  offset=s.offset * d + b.offset, dim=b.dim)
                           for b in t.blocks)
        u, sectors = np.vstack(rows), spawned
    return SchurUnitary(matrix=u, sectors=sectors)


def isotypic_projector(su: SchurUnitary, lam: Partition) -> np.ndarray:
    """Pi^Std_lam = U^dag Pi^Sch_lam U."""
    sel = su.matrix[su.rows_for(lam), :]
    return sel.conj().T @ sel


def _as_density(state: np.ndarray, dim: int) -> np.ndarray:
    state = check_state(state, dim)
    return np.outer(state, state.conj()) if state.ndim == 1 else state


def _schur_diagonal(rho: np.ndarray, su: SchurUnitary) -> np.ndarray:
    """diag(U rho U^dag)_i = sum_k (U rho)_ik conj(U_ik), one D^3 product."""
    u = su.matrix
    return np.real(np.sum((u @ rho) * u.conj(), axis=1))


def weak_schur_probs(rho: np.ndarray, su: SchurUnitary) -> dict[Partition, float]:
    """tr[rho Pi^Std_lam] for every lam |- n, via both the standard-basis
    and Schur-basis routes (asserted equal within 1e-10)."""
    rho = _as_density(rho, su.d ** su.n)
    diag = _schur_diagonal(rho, su)
    out = {}
    for lam in partitions_of(su.n, su.d):
        p_std = float(np.real(np.sum(rho * isotypic_projector(su, lam).T)))
        p_sch = float(np.sum(diag[su.rows_for(lam)]))
        if abs(p_std - p_sch) > 1e-10:
            raise AssertionError(f"basis-change mismatch at {lam}: {p_std} vs {p_sch}")
        out[lam] = p_std
    total = sum(out.values())
    if abs(total - 1.0) > 1e-9:
        raise AssertionError(f"probabilities sum to {total}")
    return out

