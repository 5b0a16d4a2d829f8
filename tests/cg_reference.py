"""Numeric reference constructions that the tests compare against.

`cg_numeric` builds the CG transform without the closed form: block
membership is certified against the analytic Casimir eigenvalues, the
highest-weight vector of each target irrep is extracted from the kernel
of the raising generators, and the remaining columns are propagated with
the lowering generators so that the result is an exact GT-basis
intertwiner (ladder matrix elements non-negative by construction).
`irrep_unitary` exponentiates the GT generators to give Q_lam(u).
`givens_reconstruct` multiplies a Givens decomposition back together,
`cg_givens_count` measures the rotation count of a CG matrix, and
`two_level_total_by_sum` sums the qubit two-level bound term by term.
`perm_rep` and `tensor_rep` are the S_n and U^(x)n actions on the d^n
space that the symmetry checks apply.  `super_cg` is one level of the
oracle's Schur transform as a single block-diagonal matrix, and
`rows_for_path`, `copy_projector` and `path_probs` read single copies of
an irrep off that transform.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.linalg as sla

from schurstream.cg import (CGTransform, DegeneracyError, _blocks_for,
                            cg_transform)
from schurstream.gt_basis import build_irrep, casimir2
from schurstream.oracle import SchurUnitary, _as_density, _schur_diagonal, schur_transform
from schurstream.partitions import LatticePath, Partition
from schurstream.resources import givens_decompose

CASIMIR_MATCH_TOL = 0.25  # analytic gaps are integers >= 1


class EigenvalueClusteringError(RuntimeError):
    """A numerical Casimir eigenvalue matched no analytic block target."""


def _product_generator(rep, a: int, b: int) -> np.ndarray:
    """E_{a,b} on Q^d_lam (x) C^d (fundamental fastest)."""
    d = rep.d
    e = np.zeros((d, d))
    e[a, b] = 1.0
    return np.kron(rep.generator(a, b), np.eye(d)) + np.kron(np.eye(rep.dim), e)


def _weight_height(w: tuple[int, ...]) -> int:
    # lowering e_a -> e_{a+1} raises this by exactly 1
    return sum(a * wa for a, wa in enumerate(w))


def _intertwiner(rep, target, raisings, lowerings, prod_weights) -> np.ndarray:
    """Columns = GT basis of `target` expressed in the product space."""
    d = rep.d
    size = rep.dim * d
    mu = target.lam.parts

    # highest-weight vector: kernel of all raising generators inside the
    # weight-mu subspace of the product space
    sel = [i for i, w in enumerate(prod_weights) if w == mu]
    stacked = np.vstack([r[:, sel] for r in raisings])
    _, s, vt = np.linalg.svd(stacked, full_matrices=True)
    null_dim = sum(1 for x in s if x < 1e-9) + (len(sel) - len(s))
    if null_dim != 1:
        raise DegeneracyError(
            f"highest-weight space of {target.lam} has dimension {null_dim}")
    hw_small = vt[-1].real
    hw = np.zeros(size)
    hw[sel] = hw_small
    # phase convention: first nonzero coordinate (input ordering) positive
    lead = next(i for i in range(size) if abs(hw[i]) > 1e-9)
    if hw[lead] < 0:
        hw = -hw

    cols: dict[int, np.ndarray] = {}
    by_weight: dict[tuple[int, ...], list[int]] = {}
    for t, w in enumerate(target.weights):
        by_weight.setdefault(w, []).append(t)
    hw_idx = target.index[tuple(tuple(r) for r in _top_pattern(mu, d))]
    cols[hw_idx] = hw

    for w in sorted(by_weight, key=_weight_height):
        group = by_weight[w]
        if group == [hw_idx]:
            continue
        rows = []
        rhs = []
        for a in range(d - 1):
            w_src = list(w)
            w_src[a] += 1
            w_src[a + 1] -= 1
            w_src = tuple(w_src)
            for s_idx in by_weight.get(w_src, []):
                low = target.raising[a].T  # E_{a+1,a} on the target irrep
                coeffs = [low[t, s_idx] for t in group]
                if all(abs(c) < 1e-14 for c in coeffs):
                    continue
                rows.append(coeffs)
                rhs.append(lowerings[a] @ cols[s_idx])
        a_mat = np.array(rows)
        b_mat = np.array(rhs)
        if a_mat.ndim != 2 or a_mat.shape[0] < len(group):
            raise DegeneracyError(f"under-determined weight space {w} in {target.lam}")
        sol, _, rank, _ = np.linalg.lstsq(a_mat, b_mat, rcond=None)
        if rank < len(group):
            raise DegeneracyError(f"rank-deficient weight space {w} in {target.lam}")
        for t_local, t in enumerate(group):
            cols[t] = sol[t_local]

    v = np.zeros((size, target.dim))
    for t, col in cols.items():
        v[:, t] = col
    return v


def _top_pattern(mu: tuple[int, ...], d: int):
    return [mu[:d - k] for k in range(d)]


def cg_numeric(lam: Partition) -> CGTransform:
    """Numerical construction valid for any d; for d=2 it reproduces
    cg_qubit entrywise."""
    d = lam.d
    rep = build_irrep(lam)
    size = rep.dim * d
    blocks = _blocks_for(lam)

    raisings = [_product_generator(rep, a, a + 1) for a in range(d - 1)]
    lowerings = [r.T for r in raisings]
    fund = [tuple(int(a == b) for b in range(d)) for a in range(d)]
    prod_weights = [tuple(wg + wf for wg, wf in zip(rep.weights[g], fund[f]))
                    for g in range(rep.dim) for f in range(d)]

    # certify the Casimir spectrum against the analytic block eigenvalues
    cas = np.zeros((size, size))
    for a in range(d):
        for b in range(d):
            g = _product_generator(rep, a, b)
            cas += g @ g.T
    eigvals = np.linalg.eigvalsh(cas)
    targets = {b.j: float(casimir2(b.target)) for b in blocks}
    counts = {j: 0 for j in targets}
    for ev in eigvals:
        match = [j for j, t in targets.items() if abs(ev - t) <= CASIMIR_MATCH_TOL]
        if len(match) != 1:
            raise EigenvalueClusteringError(
                f"Casimir eigenvalue {ev} matches {len(match)} targets at {lam}")
        counts[match[0]] += 1
    for b in blocks:
        if counts[b.j] != b.dim:
            raise EigenvalueClusteringError(
                f"block {b.target} expected dim {b.dim}, spectrum gives {counts[b.j]}")

    mat = np.zeros((size, size))
    for b in blocks:
        target = build_irrep(b.target)
        v = _intertwiner(rep, target, raisings, lowerings, prod_weights)
        mat[b.offset:b.offset + b.dim, :] = v.T
    t = CGTransform(lam=lam, matrix=mat, blocks=blocks)
    t.check_unitary()
    return t


def irrep_unitary(lam: Partition, u: np.ndarray) -> np.ndarray:
    """The image Q_lam(u) of a unitary u in U(d), by exponentiating the
    GT generators along log(u)."""
    h = -1j * sla.logm(u)
    rep = build_irrep(lam)
    g = np.zeros((rep.dim, rep.dim), dtype=complex)
    for a in range(rep.d):
        for b in range(rep.d):
            g = g + h[a, b] * rep.generator(a, b)
    return sla.expm(1j * g)


def givens_reconstruct(rotations, diagonal) -> np.ndarray:
    """Multiply a decomposition back together (for verification)."""
    u = np.diag(diagonal).astype(complex)
    for c, r, g in reversed(rotations):
        rows = u[[c, r], :]
        u[[c, r], :] = g.conj().T @ rows
    return u


@lru_cache(maxsize=None)
def cg_givens_count(lam: Partition) -> int:
    """Measured Givens-rotation count for the CG matrix at lam."""
    rotations, _ = givens_decompose(cg_transform(lam).matrix)
    return len(rotations)


def two_level_total_by_sum(n: int) -> int:
    return sum(4 * (k + 1) for k in range(1, n))


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


def super_cg(k: int, d: int) -> np.ndarray:
    """The super Clebsch-Gordan transform mapping the running Schur basis
    of k qudits (canonical sector order) plus one new qudit to that of k+1
    qudits: block diagonal over the sectors, one CG transform each, with
    exact zeros off the blocks; size d^(k+1)."""
    return sla.block_diag(*(cg_transform(s.lam).matrix
                            for s in schur_transform(k, d).sectors))


def rows_for_path(su: SchurUnitary, lam: Partition, path: LatticePath) -> list[int]:
    """The rows of U_Sch that carry the copy of Q^d_lam reached along `path`."""
    for s in su.sectors:
        if s.lam == lam and s.path == path.steps:
            return list(range(s.offset, s.offset + s.dim))
    raise KeyError(f"no sector for {lam} via path {path}")


def copy_projector(su: SchurUnitary, lam: Partition, path: LatticePath) -> np.ndarray:
    """Projector onto the copy of Q^d_lam reached along `path`."""
    sel = su.matrix[rows_for_path(su, lam, path), :]
    return sel.conj().T @ sel


def path_probs(rho: np.ndarray, su: SchurUnitary) -> dict[tuple[Partition, tuple[int, ...]], float]:
    """tr[rho Pi^Std_{lam, p_lam}] for every copy, keyed by (lam, path)."""
    rho = _as_density(rho, su.d ** su.n)
    diag = _schur_diagonal(rho, su)
    out = {}
    for s in su.sectors:
        out[(s.lam, s.path)] = float(np.sum(diag[s.offset:s.offset + s.dim]))
    return out
