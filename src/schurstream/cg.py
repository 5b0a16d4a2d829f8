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
by a few O(dim Q) numpy operations and applied in O(dim Q) per amplitude
column; no (2 dim Q)^2 matrix is built, checked or cached.

For d >= 3, cg_closed keeps the transform as fixed-width sparse rows
(CGTransform): each row lists its columns and values, at most one per
chain shape (5 at d = 3, 16 at d = 4), so the rows take O(size) bytes.
check_unitary sums the products of each row's pairs of entries, O(nnz w)
work, through a column index of the entries, and the rows are applied
in O(w) per amplitude, gathering the coupled input by the stored
columns.  No size^2 matrix is built, checked or cached on either path:
QubitCG.matrix and CGTransform.matrix form the dense matrix on request,
for the `schur cg` report, the sparsity check and the tests' Schur
transform, and both equal the entry-by-entry build (tests/cg_reference.py)
bit for bit.  Each type applies itself (`_apply`, `_product`), so no other
module reads a format.

cg_closed walks one frontier of chains, (block, source pattern, box
path), a row at a time, every block and pattern at once.  The factors of
each row step r -> r + 1 are products of entry differences, evaluated
once per run of patterns that share rows 1 .. r + 1 (so once per
distinct pair of adjacent rows at the top two steps; the top step
depends only on the second row).  At each row every outcome of every
chain, a stop or a move to each next position, is taken in one gather
where its numerator and denominator are both nonzero, and a chain whose
box stops becomes an entry, its squared coefficient one true division.
The exact integers are float64 when a bound from lam proves that every
one stays below 2^53 (_in_machine_words: every d = 3 label with lam_0 -
lam_2 <= 9739, d = 4 with lam_0 - lam_3 <= 56 and d = 5 with lam_0 -
lam_4 <= 5): every factor is an integer, so each product is then formed
exactly, and the quotient of two such floats is their ratio correctly
rounded, as Python's int / int.  Past the bound, and at every d >= 6,
they are numpy object arrays of Python ints, exact at any size (a row
step's factor tables are still float64 products while those stay below
2^53).  Either way every entry is the float of the entry-by-entry build,
bit for bit.

An entry's target is its source pattern plus one unit step on each row
the box entered; one lexsort of j and the target's integer rows below
the top ranks every entry, and since the GT basis lists patterns in
descending order and the blocks' top rows descend with j, an entry's row
is its target's rank.  Only the source patterns are enumerated, and a
block whose walk does not reach every one of its targets is refused.

lam and lam + c (1^d) are one SU(d) irrep up to det^c, and their
coefficients are the same numbers: the patterns of lam + c (1^d) are those
of lam with c added to every entry, and every factor above is a product of
differences of entries (at d = 2, the coefficients depend on dim Q
alone).  Their blocks have the same j, offsets and dims.  So cg_transform
builds each transform once, at its reduced label, lam less min(lam_{d-1},
lam_0 - 1) full columns, and every label with that reduced form gets its
own entry, with its own lam and blocks, that shares the reduced entry's
read-only coef or cols/vals.  Its blocks are the reduced entry's, each
target moved by the full columns between the two labels (_shifted).
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass
from functools import cache, cached_property

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
_CHECK_PAIRS = 1 << 16


@dataclass
class CGTransform:
    """A d >= 3 transform as fixed-width sparse rows.  With x the input,
    GT index times d plus fundamental index, output row r is

        sum_k vals[r, k] x[cols[r, k]],

    each row in column order.  The width w is the largest row count of
    lam, at most one entry per chain shape (5 at d=3, 16 at d=4); shorter
    rows are padded with value 0 at column 0.  The values are real."""
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

    def _held_bytes(self) -> int:
        """Bytes a cached transform holds: its rows and 4 KB of objects."""
        return self.cols.nbytes + self.vals.nbytes + 4096

    def _relabel(self, lam: Partition) -> CGTransform:
        """This transform at lam, a label with the same reduced form: lam's
        own blocks, these rows, shared."""
        return CGTransform(lam, _shifted(self, lam), self.cols, self.vals)

    def _apply(self, x: np.ndarray, axis: int = 0) -> np.ndarray:
        """self (x) I_rest on axis `axis` of x, of length size * rest: slot
        k gathers input row cols[r, k] for every output row r, scales it by
        vals[r, k] and adds it, O(w size rest) per column with one buffer
        the size of x.  A lone vector (rest 1, every product step) gathers
        all w slots at once in two numpy calls, where the slots take 3 w."""
        if x.shape == (self.size,):
            return np.einsum("rk,rk->r", self.vals, x[self.cols])
        # np.take copies an input that is not C-contiguous on every call
        rows = np.ascontiguousarray(x)
        rows = rows.reshape(x.shape[:axis] + (self.size, -1) + x.shape[axis + 1:])
        along = [1] * rows.ndim  # the shape of one slot's values
        along[axis] = self.size
        out = np.take(rows, self.cols[:, 0], axis=axis)
        out *= self.vals[:, 0].reshape(along)
        buf = np.empty_like(out)
        for cols, vals in zip(self.cols.T[1:], self.vals.T[1:]):
            # mode="clip" writes into buf directly, where "raise" buffers
            np.take(rows, cols, axis=axis, out=buf, mode="clip")
            buf *= vals.reshape(along)
            out += buf
        return out.reshape(x.shape)

    def _product(self, v: np.ndarray, q: np.ndarray) -> np.ndarray:
        """The transform of v (x) q, a vector coupled to a pure qudit, formed
        first; the columns of a (dim Q, m) v are m vectors, each coupled to q."""
        q = q.reshape(q.shape + (1,) * (v.ndim - 1))
        return self._apply((v[:, None] * q).reshape((-1,) + v.shape[1:]))

    def check_unitary(self) -> float:
        """M^T M = I from the rows, in O(nnz w): an entry (r, c, v) adds
        v vals[r, k] to (M^T M)[c, cols[r, k]] for every slot k of row r.
        The entries are indexed in column order, and each run takes whole
        columns, about _CHECK_PAIRS pairs: it sorts the keys of its pairs
        on and above the diagonal, cols[r, k] >= c, and sums each key's
        products, so every pair of columns is summed once.  Every column
        needs a diagonal within UNITARITY_TOL of 1 and every other sum
        within it of 0."""
        size, w = self.cols.shape
        flat_cols, flat_vals = self.cols.ravel(), self.vals.ravel()
        entries = np.flatnonzero(flat_vals)
        entries = entries[np.argsort(flat_cols[entries], kind="stable")]
        first = flat_cols[entries]
        # each run starts at the first entry of a column
        step = max(1, _CHECK_PAIRS // w)
        cuts = sorted({0, len(entries), *np.searchsorted(first, first[::step]).tolist()})
        dev, diagonals = np.float64(0), 0  # np.maximum keeps a NaN
        for lo, hi in zip(cuts, cuts[1:]):
            rows = entries[lo:hi] // w
            col, other = first[lo:hi, None], np.take(self.cols, rows, axis=0)
            keep = other >= col
            key = (col * size + other)[keep]
            order = np.argsort(key, kind="stable")  # runs of ascending keys, one per entry
            key = np.take(key, order, axis=0)
            start = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))
            prod = np.take(self.vals, rows, axis=0) * flat_vals[entries[lo:hi], None]
            sums = np.add.reduceat(prod[keep][order], start)
            diag = key[start] % (size + 1) == 0  # the key of (M^T M)[c, c] is c (size + 1)
            diagonals += np.count_nonzero(diag)
            dev = np.maximum(dev, np.abs(sums - diag).max())
        if diagonals != size:  # a column with no entry has norm 0
            dev = np.maximum(dev, 1.0)
        if not dev <= UNITARITY_TOL:
            raise DegeneracyError(f"CG matrix not unitary: deviation {dev}")
        return float(dev)


def _sparse_matrix(t: CGTransform) -> np.ndarray:
    """The dense form of the rows, for the `schur cg` report, the sparsity
    check and the tests' Schur transform."""
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


def _shifted(t: Transform, lam: Partition) -> list[Block]:
    """lam's blocks from t's, lam being t.lam plus c full columns (c may be
    negative): the same j, offsets and dims, each target moved by c."""
    c = lam.parts[0] - t.lam.parts[0]
    return [Block(b.j, Partition(tuple(p + c for p in b.target.parts)), b.offset, b.dim)
            for b in t.blocks]


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
        rotations = np.ascontiguousarray(self.coef.real.reshape(2, 2, -1)[::-1].T)
        rotations.flags.writeable = False  # shared by every label with lam's reduced form
        return rotations

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

    def _held_bytes(self) -> int:
        """Bytes a cached transform holds: coef, rotations and 4 KB of objects."""
        return self.coef.nbytes + self.coef.real.nbytes + 4096

    def _relabel(self, lam: Partition) -> QubitCG:
        """This transform at lam, a label with the same reduced form: lam's
        own blocks, this coef and its rotations, laid out now so that the
        two labels share one copy."""
        t = QubitCG(lam, _shifted(self, lam), self.coef)
        t.rotations = self.rotations
        return t

    def _apply(self, x: np.ndarray, axis: int = 0) -> np.ndarray:
        """self (x) I_rest on axis `axis` of x, of length size * rest, by the
        rotations on the interleaved real and imaginary parts, O(size rest):
        shifted by one qubit-1 slot, x lists the pairs (b[r-1], a[r]) that
        block r takes to rows r and dim Q + r."""
        if axis:
            return self._apply(x.T).T
        rest = len(x) // self.size
        pairs = np.concatenate((x[-rest:], x[:-rest]), out=np.empty(x.shape, dtype=complex))
        pairs = pairs.view(float).reshape(self.size // 2, 2, -1)
        rotated = np.empty((2,) + pairs.shape[::2])
        np.matmul(self.rotations, pairs, out=rotated.transpose(1, 0, 2))
        return rotated.view(complex).reshape(x.shape)

    def _product(self, v: np.ndarray, q: np.ndarray) -> np.ndarray:
        """The transform of v (x) q, a vector coupled to a pure qubit, with q
        folded into the rotation: row k is coef[0, k] q[0] v[k mod dim Q] +
        coef[1, k] q[1] v[(k - 1) mod dim Q], `wrapped` listing v around its
        ends.  The columns of a (dim Q, m) v are m vectors, each coupled to q."""
        wrapped = np.concatenate((v[-1:], v, v))
        coef = self.coef.reshape(self.coef.shape + (1,) * (v.ndim - 1))
        rotated = coef[0] * wrapped[1:]
        rotated *= q[0]
        part = coef[1] * wrapped[:-1]
        part *= q[1]
        rotated += part
        return rotated

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
    sparsity check and the tests' Schur transform; bit for bit cg_closed's
    d=2 matrix."""
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
    coef.flags.writeable = False  # shared by every label with lam's reduced form
    t = QubitCG(lam=lam, blocks=_blocks_for(lam), coef=coef)
    t.check_unitary()
    return t


@cache
def _terms(l: int):
    """The factors of one row step, from a row t of length l to the row
    b below it, as products of terms v[a] - v[c] + k of the vector v =
    (t_0 .. t_{l-1}, b_0 .. b_{l-2}), one run of terms each, in order:

        stop[i] = prod_s (b_s - t_i - 1)
        tden[i] = prod_{s != i} (t_s - t_i)
        move[k, i] = prod_{s != k} (b_s - t_i - 1) prod_{s != i} (t_s - b_k)
        mden[k, i] = tden[i] prod_{s != k} (b_s - b_k - 1)

    Every run is padded with the term 1 to 2 l - 1 terms.  With D the
    differences v[a] - v[c], a row per a (2 l - 1) + c, of many vectors
    v at once, the terms are D[diff] + shift, a row per term slot of
    each run, runs fastest.

    The tables, about 64 l^3 bytes, stay cached until the CG cache is
    emptied, and count in its bytes from when they are made."""
    global _cache_bytes
    one = (0, 0, 1)
    stop = [[(l + s, i, -1) for s in range(l - 1)] + [one] * l for i in range(l)]
    tden = [[one if s == i else (s, i, 0) for s in range(l)] for i in range(l)]
    kden = [[one if s == k else (l + s, l + k, -1) for s in range(l - 1)] for k in range(l - 1)]
    move = [[one if s == k else (l + s, i, -1) for s in range(l - 1)]
            + [one if s == i else (s, l + k, 0) for s in range(l)]
            for k in range(l - 1) for i in range(l)]
    runs = stop + [run + [one] * (l - 1) for run in tden] + move + [
        tden[i] + kden[k] for k in range(l - 1) for i in range(l)]
    a, c, k = np.array(runs).transpose(2, 1, 0)
    diff, shift = (a * (2 * l - 1) + c).ravel(), k.reshape(-1, 1).astype(float)
    diff.flags.writeable = shift.flags.writeable = False  # shared by every caller
    _cache_bytes += diff.nbytes + shift.nbytes
    return diff, shift


def _factors(t: np.ndarray, b: np.ndarray):
    """The squared-coefficient factors of one row step for many pairs of
    rows at once, from the shifted entries t (pairs x l) of a row and b
    of the row below (_terms): the box at position i of the row of pair p
    stops there with stop[i, p] / tden[i, p], or moves to position k of
    the row below with move[k, i, p] / mden[k, i, p], a step never taken
    where mden is 0.

    The terms are small integers, formed exactly in float64, and each
    factor is the float64 product of its run, exact below 2^53 (_walk's
    bound keeps float64 walks there).  For rows of Python ints (object)
    the tables are Python ints too: those float64 products when every
    one is below 2^53, the runs multiplied out in Python ints otherwise."""
    pairs, l = t.shape
    diff, shift = _terms(l)
    v = np.asarray(np.concatenate([t, b], axis=1), dtype=float).T
    terms = np.take((v[:, None] - v).reshape(-1, pairs), diff, axis=0)
    terms += shift
    prod = np.multiply.reduce(terms.reshape(2 * l - 1, -1, pairs), axis=0)
    if t.dtype == object:
        if np.abs(prod).max(initial=0) < _EXACT:
            prod = prod.astype(np.int64).astype(object)
        else:
            terms = terms.astype(np.int64).astype(object)
            prod = np.multiply.reduce(terms.reshape(2 * l - 1, -1, pairs), axis=0)
    move, mden = prod[2 * l:].reshape(2, l - 1, l, pairs)
    return prod[:l], prod[l:2 * l], move, mden


# Every integer below 2^53 in magnitude is a float64, and so is every
# product of such integers that stays below it.
_EXACT = 2 ** 53


def _in_machine_words(lam: Partition) -> bool:
    """Whether every integer of the walk at lam stays below 2^53.  Each
    term of a factor (_terms) is at most lam_0 - lam_{d-1} + d - 1 in
    magnitude, the spread of a row's shifted entries, and a chain's
    numerator and denominator each take at most (d - 1)^2 terms: 2 l - 3
    for a move from a row of length l, and l - 1 for a stop.  So every
    lam with lam_0 - lam_{d-1} <= 9739 at d = 3, 56 at d = 4 and 5 at
    d = 5, and none at d >= 6."""
    d = lam.d
    return (lam.parts[0] - lam.parts[-1] + d - 1) ** ((d - 1) ** 2) < _EXACT


@cache
def _grid(d: int):
    """Where each row of a flattened GT pattern with d rows starts (and,
    last, where the pattern ends), each entry's position in its row, and
    the row and position of each entry below the top row."""
    starts = tuple(r * d - r * (r - 1) // 2 for r in range(d + 1))
    row = np.repeat(np.arange(d), np.arange(d, 0, -1))
    pos = np.arange(starts[-1]) - np.take(starts, row)
    row.flags.writeable = pos.flags.writeable = False  # shared by every caller
    return starts, pos, row[d:], pos[d:]


def _walk(lam: Partition, blocks: list[Block], source: np.ndarray):
    """Every nonzero entry of the transform, by one chain walk over every
    block and source pattern at once, a row at a time: each entry's
    source pattern, the box's position on every row (d below the row it
    stopped on) and squared coefficient, rounded once from its exact
    integer ratio.

    The integers are float64 where they all stay below 2^53
    (_in_machine_words), and Python ints (object) otherwise.  Every
    factor is an integer, so a product below 2^53 is formed exactly, and
    the quotient of two such floats is their ratio correctly rounded:
    either way each entry is the float of Python's int / int.  A zero
    factor drops its chain before any product is divided."""
    d = lam.d
    starts, pos, _, _ = _grid(d)
    npat = len(source)
    shifted = (source - pos).astype(float if _in_machine_words(lam) else object)
    # the frontier: one chain per block and source pattern, the box at
    # position j of the top row
    pat = np.arange(len(blocks) * npat) % npat
    at = np.repeat([b.j for b in blocks], npat)  # the box's position on row r
    path = np.full((len(pat), d), d, dtype=np.min_scalar_type(d))
    path[:, 0] = at
    frac = None  # each chain's squared coefficient so far, numerator over denominator
    stops = []
    # differs[p, c - d]: pattern p is the first of a run that shares
    # entries d .. c, rows 1 .. r + 1 when c = starts[r + 2] - 1
    differs = np.ones((npat, starts[-1] - d), dtype=bool)
    np.logical_or.accumulate(source[1:, d:] != source[:-1, d:], axis=1, out=differs[1:])
    for r in range(d - 1):
        # the factors of rows r and r + 1 once per run of patterns that
        # share rows 1 .. r + 1 (row 0 is lam), so once per distinct pair
        # of rows at the top two steps
        new = differs[:, starts[r + 2] - d - 1]
        rows = shifted[new, starts[r]:starts[r + 2]]
        l, pairs = d - r, len(rows)
        stop, tden, move, mden = _factors(rows[:, :l], rows[:, l:])
        # outcome o of the box at position i of row r: a move to position
        # o of the row below or, last, a stop, taken where its numerator
        # and denominator are both nonzero
        out = np.empty((2, l, l, pairs), dtype=stop.dtype)
        out[0, :-1], out[1, :-1], out[0, -1], out[1, -1] = move, mden, stop, tden
        # each chain's (position, pair) cell of the outcomes
        cell = at * pairs + (np.cumsum(new) - 1)[pat]
        live = np.take(np.logical_and(out[0], out[1], dtype=bool).reshape(l, -1), cell, axis=1)
        o, chain = np.nonzero(live)
        factor = np.take(out.reshape(2, -1), o * (l * pairs) + cell[chain], axis=1)
        frac = factor if frac is None else np.take(frac, chain, axis=1) * factor
        pat, path = pat[chain], np.take(path, chain, axis=0)
        # nonzero lists the outcomes in order, so the stops come last
        moved = len(o) - np.count_nonzero(live[-1])
        stops.append((pat[moved:], path[moved:], _ratio(frac[:, moved:])))
        pat, path, frac, at = pat[:moved], path[:moved], frac[:, :moved], o[:moved]
        path[:, r + 1] = at
    stops.append((pat, path, _ratio(frac)))  # a row of length 1
    return map(np.concatenate, zip(*stops))


def _ratio(frac: np.ndarray) -> np.ndarray:
    """Numerators over denominators, each rounded once to float64."""
    return (frac[0] / frac[1]).astype(float, copy=False)


def _rows(lam: Partition, blocks: list[Block]) -> tuple[np.ndarray, np.ndarray]:
    """The sparse rows (cols, vals) of the transform at lam.

    Each entry's target is its source pattern plus a unit step on each
    row the box entered, and its row is the target's rank: enumerate_gt
    lists patterns in descending order, and the blocks' top rows descend
    with j, so one lexsort of j and the integer rows below the top ranks
    every entry of every block.  Within a target, the entries' columns
    ascend with their source patterns, the sort's least significant
    key."""
    d = lam.d
    source = enumerate_gt(lam)
    pat, path, square = _walk(lam, blocks, source)
    _, _, row_of, pos_of = _grid(d)
    # the key of an entry: j, then its target's entries below the top
    # row, each counted down from lam_0 + 1
    top = lam.parts[0] + 1
    key = np.empty((len(pat), len(row_of) + 1), dtype=np.min_scalar_type(max(top, d)))
    key[:, 0] = path[:, 0]
    key[:, 1:] = np.take((top - source[:, d:]).astype(key.dtype), pat, axis=0)
    key[:, 1:] -= path[:, row_of] == pos_of
    order = np.lexsort((pat, *key[:, ::-1].T))
    key = np.take(key, order, axis=0)
    target = key.view(np.dtype((np.void, key.shape[1] * key.itemsize)))[:, 0]
    new = np.concatenate([[True], target[1:] != target[:-1]])
    reached = np.bincount(key[new, 0], minlength=d)
    for blk in blocks:
        if reached[blk.j] != blk.dim:
            raise DegeneracyError(f"the walk to {blk.target} reaches {reached[blk.j]} "
                                  f"of its {blk.dim} patterns")
    # the rows in column order, each padded to the longest: the box
    # stopped on the row of length fundamental index + 1, and each step
    # to a lower position negates the entry
    size = len(source) * d
    row = np.cumsum(new) - 1
    count = np.bincount(row, minlength=size)
    w = count.max()
    # each entry's place in the flattened rows: its row's start, plus its
    # rank among the row's entries
    at = np.arange(len(row)) + (np.arange(0, size * w, w) - (np.cumsum(count) - count))[row]
    cols, vals = np.zeros(size * w, dtype=np.intp), np.zeros(size * w)
    cols[at] = (pat * d + sum(path[:, r] == d for r in range(1, d)))[order]
    odd = np.zeros(len(pat), dtype=bool)
    for r in range(d - 1):
        odd ^= path[:, r + 1] < path[:, r]
    vals[at] = np.copysign(np.sqrt(np.abs(square)), 0.5 - odd)[order]
    return cols.reshape(size, w), vals.reshape(size, w)


def cg_closed(lam: Partition) -> CGTransform:
    """Closed-form transform for any d, from GT patterns and exact integer
    arithmetic, built by one chain walk over every block and source
    pattern at once; for d=2 it reproduces cg_qubit bit for bit.  A block
    whose walk does not reach each of its targets raises DegeneracyError."""
    blocks = _blocks_for(lam)
    cols, vals = _rows(lam, blocks)
    cols.flags.writeable = vals.flags.writeable = False  # shared, as cg_qubit's coef
    t = CGTransform(lam, blocks, cols, vals)
    t.check_unitary()
    return t


# The d=2 rotations cost about as much to rebuild as to apply, so their
# cache stays small.  A trajectory meets its reduced labels, (a, 0) and
# (1, 1), again and again, and they fit: those of sides up to about 940
# hold 12 MiB in all, with their rotations.
QUBIT_CACHE_BYTES = 3 << 22

Transform = CGTransform | QubitCG
_cache: dict = {}  # lam.parts -> Transform
_cache_bytes = 0  # the bytes its entries hold, 4 KB of objects each included,
                  # and the term tables (_terms) of its builds
_cache_lock = threading.Lock()


def _build_bytes(d: int, size: int) -> int:
    """Peak bytes of a build.  d=2: the coefficients, 32 size, their float
    temporaries and the blocks (tracemalloc peak at most 49 size + 2.5 KB
    at sides 4 to 400002, of which 32 size + 2.4 KB stay).  d >= 3, all
    O(size): the factor tables of each row step (float64, or Python ints
    past _in_machine_words), a run of terms per pair of adjacent rows the
    step meets; the frontier and the entries it leaves; the keys and
    order of the ranking; the sparse rows; and check_unitary's column
    index and runs of pairs.  Tracemalloc peak through cg_transform, a
    fresh process per label: d=3, at most 1.31 KB size at sides 24 to
    3000 (0.98 to 0.99 KB at 1029 to 3000, where check_unitary takes every
    pair in one run) and 0.46 to 0.48 KB size at sides 12288 to 397953, so
    576 size + 1.5 MiB, at most 0.92 of it (side 3000); d=4, 0.85 to
    2.13 KB size at sides 80 to 35840; d=5, 1.19 to 2.19 KB size at
    sides 200 to 42000 (1.97 KB at 42000, on Python ints); d=6, 1.10 to
    2.21 KB size at sides 420 to 48384, whose rows hold up to 68
    entries; d=8, 1.16 to 1.18 KB size at sides 1344 to 3024 (2.4 KB to
    side 43008 in an earlier survey); and 29 to 246 KB in all at side d,
    d = 3, 4, 5, 6 and 8."""
    if d == 2:
        return 64 * size + 4096
    if d == 3:
        return 576 * size + (3 << 19)
    return (3072 + 32 * d * d) * size + 65536


def _step_bytes(size: int) -> int:
    """Peak bytes of coupling into a density matrix of side `size`, by
    `step()` or at a `dist` node: the previous state, the coupled state
    and the temporaries of its rotation (measured 64 size^2 + 1.7 KB for
    the d=2 rotations at sides 80 to 1200, and 64 size^2 + at most
    1.1 KB size for the d >= 3 rows at sides 45 to 1440).  `sample`
    unravels density matrices and holds only vectors."""
    return 80 * size * size + 4096 * size


def _reduced(lam: Partition) -> Partition:
    """lam less m full columns, m = min(lam_{d-1}, lam_0 - 1): the same
    SU(d) irrep up to det^m, with the same CG coefficients in the GT basis.
    A rectangle (c^d) reduces to (1^d), so a reduced label keeps a box
    (m is 0 on the empty label)."""
    m = min(lam.parts[-1], max(lam.parts[0] - 1, 0))
    return Partition(tuple(p - m for p in lam.parts))


def _clear() -> None:
    """Empty the cache and the row-step term tables (_terms) of its builds."""
    global _cache_bytes
    _cache.clear()
    _terms.cache_clear()
    _cache_bytes = 0


def _make_room(need: int, cap: int) -> None:
    """Empty the cache if `need` more bytes would take it over `cap`."""
    if _cache_bytes + need > cap:
        _clear()


def cg_transform(lam: Partition, *, mixed: bool = False) -> Transform:
    """Cached CG transform: cg_qubit's rotations for d=2, cg_closed's
    sparse rows otherwise, built once per reduced label (_reduced).  A
    build over the memory budget is refused, and a density-matrix step
    (`mixed`) whose step, `_step_bytes`, is over it is refused whether its
    transform is built or found.

    One cache serves every d.  A label has its own entry, with its own lam
    and blocks; one that is not its reduced label shares the reduced
    entry's read-only coef or cols/vals, built or found first, and counts
    4 KB of objects while that entry is cached, or all it holds once an
    eviction leaves it alone.  Every other entry counts its _held_bytes,
    and the row-step term tables that d >= 3 builds make (_terms) count
    until the cache is next emptied, which frees them too.  The cache is
    emptied before an insertion, built or shared, would take it over its
    cap (the budget, and at d=2 at most QUBIT_CACHE_BYTES), and, keeping
    the transform returned, before a density-matrix lookup, built or
    found, would leave less than its step of the budget beside it.  A kept label that shares rows keeps its reduced entry too, when
    the step still fits beside both: then the next label with that
    reduced form finds the rows."""
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
        cap = errors.MEMORY_BUDGET
        if lam.d == 2:
            cap = min(cap, QUBIT_CACHE_BYTES)
        t = _cache.get(key)
        if t is None:
            base = _reduced(lam)
            t = _cache.get(base.parts)  # before any eviction
            if t is None:
                _make_room(_build_bytes(lam.d, size), cap)
                t = _cache[base.parts] = cg_qubit(base) if lam.d == 2 else cg_closed(base)
                _cache_bytes += t._held_bytes()
            if base != lam:
                _make_room(4096, cap)
                t = _cache[key] = t._relabel(lam)
                _cache_bytes += 4096 if base.parts in _cache else t._held_bytes()
        if mixed and _cache_bytes + _step_bytes(size) > errors.MEMORY_BUDGET:
            kept, base = {key: t}, _reduced(lam)
            room = min(cap, errors.MEMORY_BUDGET - _step_bytes(size))
            if base != lam and t._held_bytes() + 4096 <= room:
                reduced = _cache.get(base.parts)
                kept[base.parts] = t._relabel(base) if reduced is None else reduced
            _clear()
            _cache.update(kept)
            _cache_bytes = t._held_bytes() + 4096 * (len(kept) - 1)
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


def verify_sparsity(t: Transform) -> SparsityReport:
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
