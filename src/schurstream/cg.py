"""Clebsch-Gordan transforms Q^d_lam (x) C^d -> (+)_j Q^d_{lam+e_j}.

Input ordering is (GT index of Q^d_lam) (x) (fundamental index) with the
fundamental index fastest-varying.  Output rows are grouped into blocks,
one per valid j, ordered j ascending; rows within a block follow the GT
basis order of the target irrep.

Every entry is a product of reduced Wigner coefficients along the GT
chain (Biedenharn-Louck; Bacon-Chuang-Harrow, arXiv:quant-ph/0407082).
With shifted entries m_k - k on each row, the new box enters the top row
at position j and walks down, from position i of row t to position k of
the row b below, with squared factor
  prod_{s!=k}(b_s - t_i - 1) prod_{s!=i}(t_s - b_k)
  / [prod_{s!=i}(t_s - t_i) prod_{s!=k}(b_s - b_k - 1)],
negated when k < i, until it stops on a row of length l, with factor
prod_s(b_s - t_i - 1) / prod_{s!=i}(t_s - t_i) (1 when l = 1); the stop
fixes the fundamental index l - 1.  Numerators and denominators are exact
integers and each entry takes one square root.  Ladder matrix elements of
the GT basis are non-negative (see the dense generator build in
tests/cg_reference.py), and the transform intertwines in that basis.

For d = 2 this is the spin-j (x) spin-1/2 coupling with Condon-Shortley
phases, whose squared coefficients are k / dim Q.  cg_qubit keeps it as
dim Q 2 x 2 rotations, two coefficients per row (QubitCG), built from lam
by a few O(dim Q) numpy operations: the sampler applies them in
O(dim Q) per amplitude column, and no (2 dim Q)^2 matrix is built, checked
or cached.

For d >= 3, cg_closed keeps the transform as fixed-width sparse rows
(CGTransform): each row lists its columns and values, at most one per
chain shape (5 at d = 3, 16 at d = 4), so the rows take O(size) bytes.
check_unitary sums the products of each row's pairs of entries, O(nnz w)
work, and the sampler applies the rows in O(w) per amplitude, gathering
the coupled input by the stored columns.  No size^2 matrix is built,
checked or cached on either path: QubitCG.matrix and CGTransform.matrix
form the dense matrix on request, for the `schur cg` report, the oracle
and the sparsity check, and both equal the entry-by-entry build
(tests/cg_reference.py) bit for bit.

cg_closed evaluates the factors for every source pattern at once.  The
factors of each row step are products of entry differences, kept as numpy
object arrays of Python ints, so they are exact at any size (at d = 5 they
already pass 2^53).  The walk then runs once per chain shape, the
positions j = i_0, i_1, ... the box takes, and keeps at each step the
patterns whose factor is nonzero, dropping a shape when none is left.
Each entry's target pattern has a mixed-radix key in base lam_0 + 2, the
source pattern's key plus one constant per shape.  The keys of a block
are ranked, and since the GT basis lists patterns in descending key
order, a target's row is its rank from the top; only the source
patterns are enumerated.  A block whose walk does not reach every one of
its targets is refused.  Each squared coefficient is one Python int true
division, so every entry is the float of the entry-by-entry build, bit
for bit.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from . import errors
from .gt_basis import enumerate_gt
from .partitions import Partition, add_box, dim_unitary, valid_rows

UNITARITY_TOL = 1e-12


class DegeneracyError(RuntimeError):
    """A built CG matrix is not unitary, or its blocks do not tile it."""


@dataclass(frozen=True)
class Block:
    j: int
    target: Partition
    offset: int
    dim: int


# entry pairs CGTransform.check_unitary sums at a time
_CHECK_PAIRS = 1 << 12


@dataclass
class CGTransform:
    """A d >= 3 transform as fixed-width sparse rows.  With x the input,
    GT index times d plus fundamental index, output row r is

        sum_k vals[r, k] x[cols[r, k]],

    each row in column order.  The width w is the largest row count of
    lam, at most one entry per chain shape (5 at d=3, 16 at d=4); shorter
    rows are padded with value 0 at column 0.  The values are real.  These
    two arrays are all a transform keeps: every step, product steps
    included, gathers its input by cols."""
    lam: Partition
    blocks: list[Block]
    cols: np.ndarray  # (size, w), intp
    vals: np.ndarray  # (size, w), float64, zero-padded

    @property
    def d(self) -> int:
        return self.lam.d

    @property
    def size(self) -> int:
        return self.cols.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """The dense size x size matrix, formed on each access."""
        return _sparse_matrix(self)

    def check_unitary(self) -> float:
        """M^T M = I from the rows, in O(nnz w): an entry (r, c, v) adds
        v vals[r, k] to (M^T M)[c, cols[r, k]] for every slot k of row r.
        The entries are taken in column order, whole columns at a time, so
        each run holds every sum of its columns in about _CHECK_PAIRS
        pairs.  Every column needs a diagonal within UNITARITY_TOL of 1 and
        every other sum within it of 0."""
        size, w = self.cols.shape
        flat_cols, flat_vals = self.cols.ravel(), self.vals.ravel()
        entries = np.flatnonzero(flat_vals)
        entries = entries[np.argsort(flat_cols[entries], kind="stable")]
        first = flat_cols[entries]
        # each run starts at the first entry of a column
        cuts = sorted(set(np.searchsorted(first, first[::max(1, _CHECK_PAIRS // w)]).tolist()))
        dev, diagonals = np.float64(0), 0  # np.maximum keeps a NaN
        for lo, hi in zip(cuts, [*cuts[1:], len(entries)]):
            rows = entries[lo:hi] // w
            key = (first[lo:hi, None] * size + self.cols[rows]).ravel()
            prod = (flat_vals[entries[lo:hi], None] * self.vals[rows]).ravel()
            order = np.argsort(key)
            key = key[order]
            start = np.flatnonzero(np.diff(key, prepend=-1))
            sums = np.add.reduceat(prod[order], start)
            diag = key[start] // size == key[start] % size
            diagonals += int(np.count_nonzero(diag))
            dev = np.maximum(dev, np.max(np.abs(sums - diag)))
        if diagonals != size:  # a column with no entry has norm 0
            dev = np.maximum(dev, 1.0)
        if not dev <= UNITARITY_TOL:
            raise DegeneracyError(f"CG matrix not unitary: deviation {dev}")
        return float(dev)


def _sparse_matrix(t: CGTransform) -> np.ndarray:
    """The dense form of the rows, for the `schur cg` report, the oracle
    and the sparsity check."""
    mat = np.zeros((t.size, t.size))
    np.add.at(mat, (np.arange(t.size)[:, None], t.cols), t.vals)
    return mat


def _blocks_for(lam: Partition) -> list[Block]:
    blocks = []
    off = 0
    for j in valid_rows(lam):
        target = add_box(lam, j)
        dim = dim_unitary(target)
        blocks.append(Block(j=j, target=target, offset=off, dim=dim))
        off += dim
    if off != lam.d * dim_unitary(lam):
        raise DegeneracyError(f"the blocks of {lam} span {off} rows, not d * dim Q")
    return blocks


@dataclass
class QubitCG:
    """The d=2 transform as rotations.  With a[r] = x[2r] and b[r] =
    x[2r + 1] the qubit-0 and qubit-1 amplitudes of the input on GT index r
    (indices taken mod dim Q), output row k is

        coef[0, k] a[k] + coef[1, k] b[k - 1],

    rows 0 .. dim Q being the upper block and the rest the lower one.  For
    0 < r < dim Q, rows r and dim Q + r rotate the pair (a[r], b[r - 1]) by
    [[cos_r, sin_{r-1}], [-sin_{r-1}, cos_r]], with cos_r =
    sqrt((dim Q - r) / dim Q) and sin_r = sqrt((r + 1) / dim Q); rows 0 and
    dim Q are the ends, a[0] and b[dim Q - 1] with coefficient 1.  So a row
    has at most two nonzeros.  The coefficients are real, held
    complex-typed so that applying them to complex states casts nothing."""
    lam: Partition
    blocks: list[Block]
    coef: np.ndarray  # (2, size), complex128 with zero imaginary part

    @cached_property
    def rotations(self) -> np.ndarray:
        """The 2 x 2 blocks as a real (dim Q, 2, 2) array, laid out from coef
        on first use: block r takes (b[r - 1], a[r]) to rows (r, dim Q + r)."""
        return np.ascontiguousarray(self.coef.real.reshape(2, 2, -1)[::-1].T)

    @property
    def d(self) -> int:
        return 2

    @property
    def size(self) -> int:
        return self.coef.shape[1]

    @property
    def matrix(self) -> np.ndarray:
        """The dense size x size matrix, formed on each access."""
        return _qubit_matrix(self)

    def check_unitary(self) -> float:
        """Each 2 x 2 block is a rotation [[c, s], [-s, c]] with
        c^2 + s^2 = 1, and every coefficient is real; the blocks tile the
        rows and the inputs, so the transform is unitary."""
        # block r: row r is (c, s) and row dim Q + r is (-s, c) on (a[r], b[r-1])
        (c, minus_s), (s, c_lower) = self.coef.real.reshape(2, 2, -1)
        dev = np.max(np.abs(c * c + s * s - 1))
        if (dev > UNITARITY_TOL or self.coef.imag.any() or np.any(c_lower != c)
                or np.any(minus_s != -s)):
            raise DegeneracyError(f"CG rotations not unitary: deviation {dev}")
        return float(dev)


def _qubit_matrix(t: QubitCG) -> np.ndarray:
    """The dense form of the rotations, for the `schur cg` report, the
    oracle and the sparsity check; bit for bit cg_closed's d=2 matrix."""
    k = np.arange(t.size)
    dimq = t.size // 2
    mat = np.zeros((t.size, t.size))
    mat[k, 2 * (k % dimq)] = t.coef[0].real
    mat[k, 2 * ((k - 1) % dimq) + 1] = t.coef[1].real
    return mat


def cg_qubit(lam: Partition) -> QubitCG:
    """Closed-form d=2 transform, spin j = (lam0 - lam1)/2 coupled with 1/2
    under Condon-Shortley phases, as its rotation coefficients: the squared
    coefficients are k / dim Q for k = 1 .. dim Q."""
    if lam.d != 2:
        raise ValueError(f"cg_qubit needs d=2, got {lam.d}")
    dimq = lam.parts[0] - lam.parts[1] + 1
    sin = np.sqrt(np.arange(1, dimq + 1) / dimq)
    cos = sin[::-1]
    coef = np.zeros((2, 2 * dimq), dtype=complex)
    coef[0, :dimq] = cos
    coef[0, dimq + 1:] = -sin[:-1]
    coef[1, 1:dimq + 1] = sin
    coef[1, dimq + 1:] = cos[1:]
    t = QubitCG(lam=lam, blocks=_blocks_for(lam), coef=coef)
    t.check_unitary()
    return t


def _exact_prod(diffs: np.ndarray) -> np.ndarray:
    """Products over the last axis, as Python ints."""
    return np.multiply.reduce(diffs.astype(object), axis=-1)


def _factors(t: np.ndarray, b: np.ndarray):
    """The squared-coefficient factors of one row step for every pattern at
    once, from the shifted entries t (patterns x l) of a row and b of the
    row below: tden[:, i], stop[:, i], num[:, i, k] and den[:, k], with
    num zeroed where den is 0 (that step is never taken)."""
    l = t.shape[1]
    i_, k_ = np.arange(l), np.arange(l - 1)
    tt = t[:, None, :] - t[:, :, None]  # [., i, s] = t_s - t_i
    tt[:, i_, i_] = 1
    bt = b[:, None, :] - t[:, :, None] - 1  # [., i, s] = b_s - t_i - 1
    bb = b[:, None, :] - b[:, :, None] - 1  # [., k, s] = b_s - b_k - 1
    bb[:, k_, k_] = 1
    # [., i, k, s]: b_s - t_i - 1 over s != k, then t_s - b_k over s != i
    left = np.repeat(bt[:, :, None, :], l - 1, axis=2)
    left[:, :, k_, k_] = 1
    right = np.repeat((t[:, None, :] - b[:, :, None])[:, None], l, axis=1)
    right[:, i_, :, i_] = 1
    den = _exact_prod(bb)
    num = _exact_prod(np.concatenate([left, right], axis=-1))
    num = np.where(den[:, None, :] == 0, 0, num)
    return _exact_prod(tt), _exact_prod(bt), num, den


def _walk(steps, starts, weights, r: int, i: int, pats, num, den, sign: int, inc):
    """Every chain shape from the new box at position i of row r, for the
    source patterns `pats` at once: it stops on row r or walks down to
    position k of row r + 1, for the patterns where that step is nonzero.
    Yields (fundamental index, patterns, num, den, sign, key increment),
    num / den being each pattern's squared coefficient."""
    inc = inc + weights[starts[r] + i]
    if r == len(steps):  # a row of length 1
        yield 0, pats, num, den, sign, inc
        return
    tden, stop, knum, kden = steps[r]
    tden = tden[pats, i]
    yield len(steps) - r, pats, num * stop[pats, i], den * tden, sign, inc
    for k in range(kden.shape[1]):
        step = knum[pats, i, k]
        live = np.flatnonzero(step)
        if len(live) == 0:  # no pattern takes this step or any below it
            continue
        yield from _walk(steps, starts, weights, r + 1, k, pats[live],
                         num[live] * step[live],
                         den[live] * tden[live] * kden[pats[live], k],
                         -sign if k < i else sign, inc)


def cg_closed(lam: Partition) -> CGTransform:
    """Closed-form transform for any d, from GT patterns and exact integer
    arithmetic, built by the chain walk over all source patterns at once;
    for d=2 it reproduces cg_qubit bit for bit.  A block whose walk does
    not reach each of its targets raises DegeneracyError."""
    d = lam.d
    blocks = _blocks_for(lam)
    # one GT pattern per row, its rows concatenated top to bottom
    source = np.array([sum(pat, ()) for pat in enumerate_gt(lam)], dtype=np.int64)
    npat = len(source)
    size = npat * d
    starts = [r * d - r * (r - 1) // 2 for r in range(d)]
    shifted = source - np.concatenate([np.arange(d - r) for r in range(d)])
    rows = np.split(shifted, starts[1:], axis=1)
    steps = [_factors(rows[r], rows[r + 1]) for r in range(d - 1)]
    # mixed-radix pattern keys: every entry of a target is at most lam_0 + 1
    base, width = lam.parts[0] + 2, source.shape[1]
    weights = np.array([base ** (width - 1 - c) for c in range(width)], dtype=object)
    keys = source.astype(object) @ weights
    ones = np.ones(npat, dtype=object)
    entries = []  # (row, column, value) per block
    for blk in blocks:
        fund, pats, num, den, sign, inc = zip(*_walk(
            steps, starts, weights, 0, blk.j, np.arange(npat), ones, ones, 1, 0))
        num, den = np.concatenate(num), np.concatenate(den)
        sign = np.repeat(sign, [len(p) for p in pats])
        key = np.concatenate([keys[p] + c for p, c in zip(pats, inc)])
        col = np.concatenate([p * d + a for p, a in zip(pats, fund)])
        live = np.flatnonzero(num != 0)
        # enumerate_gt is descending on the flattened rows, so on the keys
        tkeys, pos = np.unique(key[live], return_inverse=True)
        if len(tkeys) != blk.dim:
            raise DegeneracyError(f"the walk to {blk.target} reaches {len(tkeys)} "
                                  f"of its {blk.dim} patterns")
        entries.append((blk.offset + blk.dim - 1 - pos, col[live],
                        sign[live] * np.sqrt(np.abs((num[live] / den[live]).astype(float)))))
    row, col, val = map(np.concatenate, zip(*entries))
    # the rows in column order, each padded to the longest
    order = np.lexsort((col, row))
    row, col, val = row[order], col[order], val[order]
    count = np.bincount(row, minlength=size)
    slot = np.arange(len(row)) - np.repeat(np.cumsum(count) - count, count)
    cols = np.zeros((size, count.max()), dtype=np.intp)
    vals = np.zeros((size, count.max()))
    cols[row, slot] = col
    vals[row, slot] = val
    t = CGTransform(lam=lam, blocks=blocks, cols=cols, vals=vals)
    t.check_unitary()
    return t


# The d=2 rotations cost about as much to rebuild as to apply, and a long
# skewed trajectory never meets a label twice, so their cache stays small.
QUBIT_CACHE_BYTES = 3 << 22

_cache: dict = {}  # lam.parts -> QubitCG or CGTransform
_cache_bytes = 0  # the bytes its entries hold, 4 KB of objects each included
_cache_lock = threading.Lock()


def _build_bytes(d: int, size: int) -> int:
    """Peak bytes of a build.  d=2: the coefficients, 32 size, their float
    temporaries and the blocks (tracemalloc peak at most 49 size + 2.5 KB
    at sides 4 to 400002, of which 32 size + 2.4 KB stay).  d >= 3, all
    O(size): the exact-integer factor arrays of each row step, about
    32 d^2 bytes per unit of size for the top row; the walk's entries and
    keys and the ranking of each block's keys; the sparse rows; and
    check_unitary's runs of pairs.  Tracemalloc
    peak through cg_transform: d=3, at most 1.4 KB size at sides 24 to
    990 and 1.0 KB size at sides 1029 to 15150; d=4, 1.8 KB size at sides
    24 to 19840; d=5, 2.5 KB size at sides 200 to 42000; d=6, 2.3 KB size
    at sides 420 to 26460 and 3.0 KB size at side 48384, whose rows hold
    up to 68 entries; d=8, 3.3 KB size at sides 2688 to 43008; and 14 KB
    in all at side 3."""
    if d == 2:
        return 64 * size + 4096
    return (3072 + 32 * d * d) * size + 65536


def _step_bytes(size: int) -> int:
    """Peak bytes of coupling into a density matrix of side `size`, by
    `step()` or at a `dist` node: the previous state, the coupled state
    and the temporaries of its rotation (measured 64 size^2 + 1.7 KB for
    the d=2 rotations at sides 80 to 1200, and 64 size^2 + at most
    1.1 KB size for the d >= 3 rows at sides 45 to 1440).  `sample`
    unravels density matrices and holds only vectors."""
    return 80 * size * size + 4096 * size


def _held_bytes(t: CGTransform | QubitCG) -> int:
    """Bytes a cached transform holds: its arrays (rotations too) and 4 KB of objects."""
    if isinstance(t, QubitCG):
        return t.coef.nbytes + t.coef.real.nbytes + 4096
    return t.cols.nbytes + t.vals.nbytes + 4096


def cg_transform(lam: Partition, *, mixed: bool = False) -> CGTransform | QubitCG:
    """Cached CG transform: cg_qubit's rotations for d=2, cg_closed's
    sparse rows otherwise.  A build over the memory budget is refused, and
    a density-matrix step (`mixed`) whose step, `_step_bytes`, is over it
    is refused whether its transform is built or found.  One cache serves
    every d, counting each entry at _held_bytes.  It is emptied, keeping
    the transform returned, before a build would take it over its cap (the
    budget, and at d=2 at most QUBIT_CACHE_BYTES), or before a
    density-matrix lookup, built or found, would leave less than its step
    of the budget beside it."""
    global _cache_bytes
    key = lam.parts
    t = _cache.get(key)
    if t is not None and not mixed:
        return t
    size = lam.d * dim_unitary(lam)
    if t is None:
        errors.check_budget(f"CG transform of size {size} at lambda={lam}",
                            _build_bytes(lam.d, size))
    if mixed:
        errors.check_budget(f"a density-matrix step of side {size} at lambda={lam}",
                            _step_bytes(size))
    with _cache_lock:
        t = _cache.get(key)
        if t is None:
            cap = errors.MEMORY_BUDGET
            if lam.d == 2:
                cap = min(cap, QUBIT_CACHE_BYTES)
            if _cache_bytes + _build_bytes(lam.d, size) > cap:
                _cache.clear()
                _cache_bytes = 0
            t = _cache[key] = cg_qubit(lam) if lam.d == 2 else cg_closed(lam)
            _cache_bytes += _held_bytes(t)
        if mixed and _cache_bytes + _step_bytes(size) > errors.MEMORY_BUDGET:
            _cache.clear()
            _cache[key] = t
            _cache_bytes = _held_bytes(t)
        return t


@dataclass
class SparsityReport:
    lam: Partition
    d: int
    size: int
    below_diagonal_nonzeros: int
    max_nonzeros_per_row: int
    two_per_row_claim_holds: bool
    givens_count: int

    def to_dict(self) -> dict:
        out = asdict(self)
        del out["lam"]
        return {"lambda": str(self.lam), **out}


def verify_sparsity(t: CGTransform | QubitCG) -> SparsityReport:
    """Empirical check of the <=2-nonzeros-per-row structure under this
    module's row ordering, plus the exact Givens count the decomposer uses."""
    from .resources import ZERO_TOL, givens_decompose

    m = t.matrix
    below = int(np.sum(np.abs(np.tril(m, -1)) > ZERO_TOL))
    per_row = int(np.max(np.sum(np.abs(m) > ZERO_TOL, axis=1)))
    rotations, _ = givens_decompose(m)
    return SparsityReport(
        lam=t.lam, d=t.d, size=t.size,
        below_diagonal_nonzeros=below,
        max_nonzeros_per_row=per_row,
        two_per_row_claim_holds=per_row <= 2,
        givens_count=len(rotations),
    )
