"""Brute-force ground truth on the full d^n-dimensional space.

Builds the iterated Schur transform as a product of super Clebsch-Gordan
transforms and keeps a row index table mapping each row of the unitary to
its (Young label, lattice path, GT index) triple.  Copies of an irrep are
ordered by the canonical (lexicographic) path order, which makes the
path <-> multiplicity-label correspondence an exact row-index statement.

Only intended for small n; guarded by explicit size limits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cg import cg_transform
from .errors import SizeLimitError, check_state
from .partitions import (LatticePath, Partition, dim_unitary, one_box,
                         partitions_of, valid_rows, add_box)

DEFAULT_LIMITS = {2: 10, 3: 6}  # max n per d before we refuse to build


def _check_size(n: int, d: int, limit: int | None):
    if limit is None:
        limit = DEFAULT_LIMITS.get(d, 4)
    if n > limit:
        raise SizeLimitError(f"oracle for n={n}, d={d} exceeds limit {limit}")


@dataclass(frozen=True)
class Sector:
    """One copy of an irrep in the running basis: which lam, via which path."""
    lam: Partition
    path: tuple[int, ...]
    offset: int  # first row index
    dim: int


@dataclass
class SchurUnitary:
    n: int
    d: int
    matrix: np.ndarray
    sectors: list[Sector]
    # rows[r] = (lam, path, gt_index)
    rows: list[tuple[Partition, tuple[int, ...], int]]

    def rows_for(self, lam: Partition) -> list[int]:
        out = []
        for s in self.sectors:
            if s.lam == lam:
                out.extend(range(s.offset, s.offset + s.dim))
        if not out:
            raise KeyError(f"no rows for {lam} in U_Sch({self.n})")
        return out

    def rows_for_path(self, lam: Partition, path: LatticePath) -> list[int]:
        for s in self.sectors:
            if s.lam == lam and s.path == path.steps:
                return list(range(s.offset, s.offset + s.dim))
        raise KeyError(f"no sector for {lam} via path {path}")


def _initial_sectors(d: int) -> list[Sector]:
    return [Sector(lam=one_box(d), path=(), offset=0, dim=d)]


def _expand(sectors: list[Sector], d: int) -> tuple[np.ndarray, list[Sector]]:
    """The super-CG step on the running basis: block diagonal over sectors,
    each block a CG transform; returns (matrix, new sectors)."""
    size = sum(s.dim for s in sectors) * d
    mat = np.zeros((size, size))
    new_sectors = []
    for s in sectors:
        t = cg_transform(s.lam, d)
        off = s.offset * d
        mat[off:off + t.size, off:off + t.size] = t.matrix
        for b in t.blocks:
            new_sectors.append(Sector(lam=b.target, path=s.path + (b.j,),
                                      offset=off + b.offset, dim=b.dim))
    return mat, new_sectors


def super_cg(k: int, d: int, limit: int | None = None) -> np.ndarray:
    """The super Clebsch-Gordan transform mapping the running Schur basis
    of k qudits (canonical sector order) plus one new qudit to that of k+1
    qudits; size d^(k+1)."""
    if k < 1:
        raise ValueError("k >= 1 required")
    _check_size(k + 1, d, limit)
    sectors = _initial_sectors(d)
    for _ in range(k - 1):
        _, sectors = _expand(sectors, d)
    mat, _ = _expand(sectors, d)
    return mat


def schur_transform(n: int, d: int, limit: int | None = None) -> SchurUnitary:
    """U_Sch(n) = S(n-1) (S(n-2) (x) I_d) ... (S(1) (x) I_d^(n-2))."""
    if n < 1:
        raise ValueError("n >= 1 required")
    _check_size(n, d, limit)
    u = np.eye(d)
    sectors = _initial_sectors(d)
    for _ in range(n - 1):
        s_mat, sectors = _expand(sectors, d)
        u = s_mat @ np.kron(u, np.eye(d))
    rows: list[tuple[Partition, tuple[int, ...], int]] = [None] * (d ** n)
    for s in sectors:
        for q in range(s.dim):
            rows[s.offset + q] = (s.lam, s.path, q)
    return SchurUnitary(n=n, d=d, matrix=u, sectors=sectors, rows=rows)


def isotypic_projector(su: SchurUnitary, lam: Partition) -> np.ndarray:
    """Pi^Std_lam = U^dag Pi^Sch_lam U."""
    sel = su.matrix[su.rows_for(lam), :]
    return sel.conj().T @ sel


def copy_projector(su: SchurUnitary, lam: Partition, path: LatticePath) -> np.ndarray:
    """Projector onto the copy of Q^d_lam reached along `path`."""
    sel = su.matrix[su.rows_for_path(lam, path), :]
    return sel.conj().T @ sel


def _as_density(state: np.ndarray, dim: int) -> np.ndarray:
    state = check_state(state, dim)
    return np.outer(state, state.conj()) if state.ndim == 1 else state


def weak_schur_probs(rho: np.ndarray, su: SchurUnitary) -> dict[Partition, float]:
    """tr[rho Pi^Std_lam] for every lam |- n, via both the standard-basis
    and Schur-basis routes (asserted equal within 1e-10)."""
    rho = _as_density(rho, su.d ** su.n)
    rho_sch = su.matrix @ rho @ su.matrix.conj().T
    out = {}
    for lam in partitions_of(su.n, su.d):
        p_std = float(np.real(np.trace(rho @ isotypic_projector(su, lam))))
        idx = su.rows_for(lam)
        p_sch = float(np.real(np.sum(np.diag(rho_sch)[idx])))
        if abs(p_std - p_sch) > 1e-10:
            raise AssertionError(f"basis-change mismatch at {lam}: {p_std} vs {p_sch}")
        out[lam] = p_std
    total = sum(out.values())
    if abs(total - 1.0) > 1e-9:
        raise AssertionError(f"probabilities sum to {total}")
    return out


def path_probs(rho: np.ndarray, su: SchurUnitary) -> dict[tuple[Partition, tuple[int, ...]], float]:
    """tr[rho Pi^Std_{lam, p_lam}] for every copy, keyed by (lam, path)."""
    rho = _as_density(rho, su.d ** su.n)
    rho_sch = su.matrix @ rho @ su.matrix.conj().T
    diag = np.real(np.diag(rho_sch))
    out = {}
    for s in su.sectors:
        out[(s.lam, s.path)] = float(np.sum(diag[s.offset:s.offset + s.dim]))
    return out


def perm_rep(sigma: list[int] | tuple[int, ...], n: int, d: int) -> np.ndarray:
    """P(sigma)|i_1...i_n> = |i_{sigma^{-1}(1)}...i_{sigma^{-1}(n)}>, a
    d^n permutation matrix; sigma is 0-based (sigma[k] = image of slot k)."""
    sigma = list(sigma)
    if sorted(sigma) != list(range(n)):
        raise ValueError(f"not a permutation of {n} elements: {sigma}")
    size = d ** n
    mat = np.zeros((size, size))
    for col in range(size):
        digits = []
        x = col
        for _ in range(n):
            digits.append(x % d)
            x //= d
        digits.reverse()  # digits[k] = i_{k+1}
        new_digits = [0] * n
        for k in range(n):
            new_digits[sigma[k]] = digits[k]
        row = 0
        for dig in new_digits:
            row = row * d + dig
        mat[row, col] = 1.0
    return mat


def tensor_rep(u: np.ndarray, n: int) -> np.ndarray:
    """U^(x)n acting on (C^d)^(x)n."""
    u = np.asarray(u, dtype=complex)
    if np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) > 1e-10:
        raise ValueError("input is not unitary")
    out = np.eye(1, dtype=complex)
    for _ in range(n):
        out = np.kron(out, u)
    return out
