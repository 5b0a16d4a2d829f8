"""Numeric reference constructions that the tests compare against.

`gt_patterns` lists the GT patterns of a label as tuples of rows, one
itertools product per row, in the order `gt_basis.enumerate_gt` must
give them.  `build_irrep` is the dense U(d) irrep on that GT basis:
the simple raising generators E_{a,a+1} come from the closed-form
orthonormal-basis matrix elements and the lowering generators are their
transposes, so every ladder matrix element is real and non-negative (the
phase convention of the package's closed-form CG transforms).  Each build
is checked against the commutation relations and the analytic Casimir
eigenvalue `casimir2`.  `pattern_weight` is the weight of a GT pattern,
and `enumerate_paths` and `path_index` list the lattice paths to a label
in their canonical order.

`DenseCG` is a CG transform held as its dense matrix, with the dense
unitarity check, the form of the two builders below.
`cg_numeric` builds the CG transform without the closed form: block
membership is certified against the analytic Casimir eigenvalues, the
highest-weight vector of each target irrep is extracted from the kernel
of the raising generators, and the remaining columns are propagated with
the lowering generators so that the result is an exact GT-basis
intertwiner (ladder matrix elements non-negative by construction).
`cg_closed_loop` is the closed-form transform built entry by entry, one
chain of reduced Wigner factors per GT pattern in plain Python ints, that
`cg.cg_closed` must equal bit for bit.
`irrep_unitary` exponentiates the GT generators to give Q_lam(u).
`givens_reconstruct` multiplies a Givens decomposition back together,
`cg_givens_count` measures the rotation count of a CG matrix, and
`two_level_total_by_sum` sums the qubit two-level bound term by term.
`perm_rep` and `tensor_rep` are the S_n and U^(x)n actions on the d^n
space that the symmetry checks apply.  `schur_transform` builds the
iterated Schur transform U (`SchurUnitary`, its copies of each irrep as
`Sector`s, one CG transform per copy) from the same `cg_transform` the
sampler applies, and `two_route_probs` reads the weak Schur probabilities
off it by two routes, the Schur-basis diagonal and the standard-basis
trace, one weight block at a time: the cross-check of the CG-free
oracle.  `super_cg` is one level of that transform as a single
block-diagonal matrix,
`isotypic_projector` is the dense D x D projector onto one label's rows of
that transform, `rows_for` lists one label's rows of it, and
`rows_for_path`, `copy_projector` and `path_probs` read single copies of
an irrep off it.  `haar_unitary` and `haar_state` draw the random
unitaries and pure states that the tests feed in.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache

import numpy as np
import scipy.linalg as sla

from schurstream.cg import (UNITARITY_TOL, Block, DegeneracyError, _blocks_for,
                            _build_bytes, cg_transform)
from schurstream.errors import check_budget, check_state
from schurstream.gt_basis import enumerate_gt
from schurstream.oracle import _rho_block
from schurstream.partitions import (LatticePath, Partition, dim_unitary, one_box,
                                    partitions_of)
from schurstream.resources import givens_decompose

CASIMIR_MATCH_TOL = 0.25  # analytic gaps are integers >= 1


def gt_patterns(lam: Partition) -> list[tuple[tuple[int, ...], ...]]:
    """All GT patterns with top row lam as tuples of rows,
    lexicographically descending on the flattened rows."""
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


@dataclass
class DenseCG:
    lam: Partition
    matrix: np.ndarray  # (d*dimQ) x (d*dimQ), unitary
    blocks: list[Block]

    @property
    def d(self) -> int:
        return self.lam.d

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def check_unitary(self) -> float:
        dev = np.max(np.abs(self.matrix.conj().T @ self.matrix - np.eye(self.size)))
        if dev > UNITARITY_TOL:
            raise DegeneracyError(f"CG matrix not unitary: deviation {dev}")
        return float(dev)


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


def _build(lam: Partition) -> IrrepRep:
    d = lam.d
    basis = gt_patterns(lam)
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


@cache
def build_irrep(lam: Partition) -> IrrepRep:
    """Cached irrep construction."""
    return _build(lam)


def casimir2(lam: Partition) -> int:
    """Analytic eigenvalue of sum_{a,b} E_{a,b}E_{b,a} on Q^d_lam, d = lam.d:
    sum_i lam_i (lam_i + d + 1 - 2(i+1)), exact integer."""
    return sum(p * (p + lam.d + 1 - 2 * (i + 1)) for i, p in enumerate(lam.parts))


def enumerate_paths(lam: Partition) -> list[LatticePath]:
    """All lattice paths from (1,0,...) to lam, lexicographic in their
    step sequences (j ascending at each level)."""
    if lam.n < 1:
        raise ValueError("need at least one box")
    d = lam.d
    target = lam.parts
    out: list[LatticePath] = []

    def rec(cur: list[int], steps: list[int]):
        if len(steps) == lam.n - 1:
            out.append(LatticePath(tuple(steps)))
            return
        for j in range(d):
            if j >= 1 and cur[j - 1] == cur[j]:
                continue
            if cur[j] + 1 > target[j]:
                continue
            cur[j] += 1
            steps.append(j)
            rec(cur, steps)
            steps.pop()
            cur[j] -= 1

    rec([1] + [0] * (d - 1), [])
    return out


@lru_cache(maxsize=None)
def _path_index_map(lam: Partition) -> dict[tuple[int, ...], int]:
    return {p.steps: i for i, p in enumerate(enumerate_paths(lam))}


def path_index(lam: Partition, path: LatticePath) -> int:
    """Canonical multiplicity index p_lam of a path ending at lam."""
    idx = _path_index_map(lam).get(path.steps)
    if idx is None:
        raise ValueError(f"path {path} does not end at {lam}")
    return idx


def haar_unitary(size, rng):
    z = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def haar_state(size, rng):
    v = rng.normal(size=size) + 1j * rng.normal(size=size)
    return v / np.linalg.norm(v)


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


def cg_numeric(lam: Partition) -> DenseCG:
    """Numerical construction from the dense irreps of `build_irrep`,
    valid for any d; it agrees entrywise, to rounding, with the closed-form
    `cg_transform` (`cg_qubit` for d=2, `cg_closed` for d>=3)."""
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
    t = DenseCG(lam=lam, matrix=mat, blocks=blocks)
    t.check_unitary()
    return t


def _chains(sh, r: int, i: int, num: int, den: int, sign: int, moved: tuple):
    """Every way the new box, sitting at position i of row r, can end: it
    stops on row r or walks down to some position k of row r + 1.  Yields
    (fundamental index, box position per row, num, den, sign) with the
    squared coefficient num / den as exact integers."""
    t = sh[r]
    l = len(t)
    moved = moved + (i,)
    if l == 1:
        yield 0, moved, num, den, sign
        return
    b = sh[r + 1]
    tden = math.prod(t[s] - t[i] for s in range(l) if s != i)
    stop = math.prod(bs - t[i] - 1 for bs in b)
    yield l - 1, moved, num * stop, den * tden, sign
    for k in range(l - 1):
        n2 = (math.prod(b[s] - t[i] - 1 for s in range(l - 1) if s != k)
              * math.prod(t[s] - b[k] for s in range(l) if s != i))
        d2 = tden * math.prod(b[s] - b[k] - 1 for s in range(l - 1) if s != k)
        if n2 == 0 or d2 == 0:
            continue
        yield from _chains(sh, r + 1, k, num * n2, den * d2,
                           -sign if k < i else sign, moved)


def cg_closed_loop(lam: Partition) -> DenseCG:
    """Closed-form transform for any d, from GT patterns and integer
    arithmetic; for d=2 it reproduces cg_qubit bit for bit."""
    d = lam.d
    blocks = _blocks_for(lam)
    source = gt_patterns(lam)
    size = len(source) * d
    mat = np.zeros((size, size))
    for blk in blocks:
        index = {pat: r for r, pat in enumerate(gt_patterns(blk.target))}
        for g, pat in enumerate(source):
            sh = [[m - s for s, m in enumerate(row)] for row in pat]
            for a, moved, num, den, sign in _chains(sh, 0, blk.j, 1, 1, 1, ()):
                if num == 0:
                    continue
                rows = [list(row) for row in pat]
                for r, i in enumerate(moved):
                    rows[r][i] += 1
                row = index.get(tuple(map(tuple, rows)))
                if row is not None:
                    mat[blk.offset + row, g * d + a] = \
                        sign * math.sqrt(abs(num) / abs(den))
    t = DenseCG(lam=lam, matrix=mat, blocks=blocks)
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


def u_transform_bytes(n: int, d: int) -> int:
    """Bytes the Schur-transform route on D = d^n holds with its inputs and
    report, with headroom, plus at n >= 2 the estimate of a CG build of
    side D: its guard, as it was when it was the CLI's oracle.  Whole cold
    `oracle --compare` calls on it traced 16-20 D^2 at D = 1000 to 4913
    (n >= 3), at the weight-block products; at most 3 MiB to D = 256; 90
    d^2 at n = 1, the d x d rho parsed from JSON.  At n = 2 (d = 58, no
    walk): 39 D^2 cold, the build's cached row-step tables (16 d^4) beside
    22 D^2.  The walk runs before U, under the CG layer's own estimates.
    d^64 is over any budget, so the power stops there."""
    size = d ** min(n, 64)
    return 32 * size * size + 128 * d * d + (1 << 24) + (n > 1) * _build_bytes(d, size)


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
    check_budget(f"oracle for n={n}, d={d}", u_transform_bytes(n, d))
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


def two_route_probs(rho: np.ndarray, su: SchurUnitary) -> dict[Partition, float]:
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


def super_cg(k: int, d: int) -> np.ndarray:
    """The super Clebsch-Gordan transform mapping the running Schur basis
    of k qudits (canonical sector order) plus one new qudit to that of k+1
    qudits: block diagonal over the sectors, one CG transform each, with
    exact zeros off the blocks; size d^(k+1)."""
    return sla.block_diag(*(cg_transform(s.lam).matrix
                            for s in schur_transform(k, d).sectors))


def rows_for(su: SchurUnitary, lam: Partition) -> list[int]:
    """The rows of U_Sch that carry every copy of Q^d_lam."""
    out = []
    for s in su.sectors:
        if s.lam == lam:
            out.extend(range(s.offset, s.offset + s.dim))
    if not out:
        raise KeyError(f"no rows for {lam} in U_Sch({su.n})")
    return out


def isotypic_projector(su: SchurUnitary, lam: Partition) -> np.ndarray:
    """Pi^Std_lam = U^T Pi^Sch_lam U, real symmetric."""
    sel = su.matrix[rows_for(su, lam), :]
    return sel.T @ sel


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
    diag = _schur_diagonal(check_state(rho, su.d ** su.n), su)
    out = {}
    for s in su.sectors:
        out[(s.lam, s.path)] = float(np.sum(diag[s.offset:s.offset + s.dim]))
    return out
