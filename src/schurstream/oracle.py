"""Brute-force ground truth on the full d^n-dimensional space.

Builds the iterated Schur transform level by level, one CG transform per copy
of an irrep.  Copies are in canonical (lexicographic) path order, which makes
the path <-> multiplicity-label correspondence an exact row-index statement.
Every CG coefficient is real, so U is real orthogonal, and each product of U
with a state runs in real arithmetic on Re rho.

U intertwines the U(d) actions, so it maps the basis states with w_a
letters a onto the rows whose GT pattern has weight w: after permuting its
rows and columns, U is block diagonal over the weights, and every product
runs one weight block at a time, sum_w n_w^3 in place of D^3.

Only intended for small n; guarded by the memory budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cg import _build_bytes, cg_transform
from .errors import check_budget, check_state
from .gt_basis import enumerate_gt
from .partitions import Partition, one_box, partitions_of


def _transform_bytes(n: int, d: int) -> int:
    """Bytes the oracle on D = d^n holds with its inputs and report, with
    headroom, plus at n >= 2 the estimate of a CG build of side D.  Whole
    cold `oracle --compare` calls trace 16-20 D^2 at D = 1000 to 4913
    (n >= 3), at the weight-block products; at most 3 MiB to D = 256; 90
    d^2 at n = 1, the d x d rho parsed from JSON.  At n = 2 (d = 58, no
    walk): 39 D^2 cold, the build's cached row-step tables (16 d^4) beside
    22 D^2.  The walk runs before U, under the CG layer's own estimates.
    d^64 is over any budget, so the power stops there."""
    size = d ** min(n, 64)
    return 32 * size * size + 128 * d * d + (1 << 24) + (n > 1) * _build_bytes(d, size)


def check_size(n: int, d: int) -> None:
    """Refuse the oracle on d^n dimensions when its estimate is over the
    memory budget."""
    check_budget(f"oracle for n={n}, d={d}", _transform_bytes(n, d))


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

    @cached_property
    def weight_blocks(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """(rows, cols, U[rows][:, cols]) for each U(d) weight w: the rows
        whose GT pattern has weight w and the basis states with w_a letters
        a, each in increasing order.  Checked exactly: each block is square
        and holds every nonzero of its rows."""
        # a letter count is at most n, and no U on d^128 dimensions fits
        size = len(self.matrix)
        weights = {}
        rows = np.empty((size, self.d), dtype=np.int8)
        for s in self.sectors:
            if s.lam not in weights:
                weights[s.lam] = _pattern_weights(s.lam)
            rows[s.offset:s.offset + s.dim] = weights[s.lam]
        cols, index = np.zeros((size, self.d), dtype=np.int8), np.arange(size)
        for _ in range(self.n):
            index, letter = np.divmod(index, self.d)
            cols[np.arange(size), letter] += 1
        _, key = np.unique(np.concatenate([rows, cols]), axis=0, return_inverse=True)
        row_key, col_key = key[:size], key[size:]
        count = np.bincount(row_key)
        if not np.array_equal(count, np.bincount(col_key, minlength=len(count))):
            raise AssertionError("U_Sch weight blocks are not square")
        bounds = np.cumsum(count)[:-1]
        blocks = [(r, c, self.matrix[np.ix_(r, c)]) for r, c in
                  zip(np.split(np.argsort(row_key, kind="stable"), bounds),
                      np.split(np.argsort(col_key, kind="stable"), bounds))]
        inside = sum(np.count_nonzero(u) for _, _, u in blocks)
        if inside != np.count_nonzero(self.matrix):
            raise AssertionError(f"U_Sch has {np.count_nonzero(self.matrix) - inside} "
                                 f"nonzeros outside its weight blocks")
        return blocks


def _pattern_weights(lam: Partition) -> np.ndarray:
    """The weight of each GT pattern of lam, in enumerate_gt's order: letter
    l - 1 appears (sum of the pattern's row of length l) - (sum of its row of
    length l - 1) times.  The one-box patterns are the standard basis, e_l
    for letter l; their d(d+1)/2 entries each would take 4 d^3 bytes."""
    if lam.n == 1:
        return np.eye(lam.d, dtype=np.int64)
    d = lam.d
    starts = np.cumsum([0] + list(range(d, 1, -1)))  # rows of length d, ..., 1
    sums = np.add.reduceat(enumerate_gt(lam), starts, axis=1)
    return -np.diff(sums, axis=1, append=0)[:, ::-1]


def schur_transform(n: int, d: int) -> SchurUnitary:
    """U_Sch(n) = S(n-1) (S(n-2) (x) I_d) ... (S(1) (x) I_d^(n-2)), one level at
    a time: S(k) is block diagonal over the sectors, one CG transform each,
    whose dense matrix is formed once per distinct label of the level.  A
    sector's rows are written into the level's one array as they are made."""
    if n < 1:
        raise ValueError("n >= 1 required")
    check_size(n, d)
    u = np.eye(d)
    sectors = [Sector(lam=one_box(d), path=(), offset=0, dim=d)]
    for _ in range(n - 1):
        side = len(u)
        out, spawned, level = np.empty((side * d, side * d)), [], {}
        for s in sectors:
            if s.lam not in level:
                t = cg_transform(s.lam)
                level[s.lam] = t, t.matrix.reshape(t.size, s.dim, d)
            t, matrix = level[s.lam]
            # t (u_s (x) I_d) without the kron or a copy of t's matrix: t's
            # columns (a, e) with u_s's rows a give the columns (c, e), per e
            rows = out[s.offset * d:(s.offset + s.dim) * d].reshape(t.size, side, d)
            for e in range(d):
                rows[:, :, e] = matrix[:, :, e] @ u[s.offset:s.offset + s.dim]
            spawned.extend(Sector(lam=b.target, path=s.path + (b.j,),
                                  offset=s.offset * d + b.offset, dim=b.dim)
                           for b in t.blocks)
        u, sectors = out, spawned
    return SchurUnitary(matrix=u, sectors=sectors)


def _rho_block(state: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Re rho on the rows and columns `cols`, of a checked density matrix or
    of the pure state |v><v|, without forming |v><v|."""
    if state.ndim == 2:
        return state.real[np.ix_(cols, cols)]
    v = state[cols]
    return np.outer(v.real, v.real) + np.outer(v.imag, v.imag)


def _schur_diagonal(rho: np.ndarray, su: SchurUnitary) -> np.ndarray:
    """diag(U rho U^T), of length D, for a checked density matrix or state
    vector rho, one weight block w at a time: the rows of block w are
    sum_k (U_w Re rho_ww)_ik (U_w)_ik.  U (Im rho) U^T is antisymmetric, so
    its diagonal is zero, and U keeps rho's coherences between different
    weights off the diagonal."""
    diag = np.empty(len(su.matrix))
    for rows, cols, u in su.weight_blocks:
        diag[rows] = np.sum((u @ _rho_block(rho, cols)) * u, axis=1)
    return diag


def weak_schur_probs(rho: np.ndarray, su: SchurUnitary) -> dict[Partition, float]:
    """tr[rho Pi^Std_lam] for every lam |- n, via both the standard-basis
    and Schur-basis routes (asserted equal within 1e-10).  Pi^Std_lam is
    real symmetric and block diagonal over the weights, so only Re rho_ww
    enters, block w of the standard-basis route being tr(Re rho_ww
    S^T S) with S the lam rows of U_w.  A real density matrix, such as
    the default I/D, is checked as it is, and a vector is never formed
    into |v><v|, so no D x D array is made beside U and the input."""
    rho = check_state(rho, su.d ** su.n, keep_real=True)
    lams = partitions_of(su.n, su.d)
    index = {lam: i for i, lam in enumerate(lams)}
    label = np.empty(len(su.matrix), dtype=np.intp)  # each row's index in lams
    for s in su.sectors:
        label[s.offset:s.offset + s.dim] = index[s.lam]
    p_sch = np.bincount(label, weights=_schur_diagonal(rho, su), minlength=len(lams))
    p_std = np.zeros(len(lams))
    for rows, cols, u in su.weight_blocks:
        block, where = _rho_block(rho, cols), label[rows]
        for i in np.unique(where):
            s = u[where == i]
            p_std[i] += np.vdot(block, s.T @ s)
    out = {}
    for lam, std, sch in zip(lams, p_std, p_sch):
        if abs(std - sch) > 1e-10:
            raise AssertionError(f"basis-change mismatch at {lam}: {std} vs {sch}")
        out[lam] = float(std)
    total = sum(out.values())
    if abs(total - 1.0) > 1e-9:
        raise AssertionError(f"probabilities sum to {total}")
    return out
