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
integers and each entry takes one square root.  For d = 2 this is the
spin-j (x) spin-1/2 coupling with Condon-Shortley phases, which cg_qubit
writes out directly.  Ladder matrix elements of the GT basis are
non-negative (see the dense generator build in tests/cg_reference.py),
and the transform intertwines in that basis.
"""

from __future__ import annotations

import math
import threading
from dataclasses import asdict, dataclass

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


@dataclass
class CGTransform:
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


def cg_qubit(lam: Partition) -> CGTransform:
    """Closed-form d=2 transform: coupling spin j=(lam0-lam1)/2 with 1/2."""
    if lam.d != 2:
        raise ValueError(f"cg_qubit needs d=2, got {lam.d}")
    dimq = lam.parts[0] - lam.parts[1] + 1
    twoj = dimq - 1  # 2j
    size = 2 * dimq
    mat = np.zeros((size, size))
    blocks = _blocks_for(lam)

    # Input column for spin projection m1 = j - s and qubit eps: 2*s + eps.
    # Upper block: total spin j + 1/2; row r has m' = (twoj+1)/2 - r.
    row = 0
    for r in range(twoj + 2):
        # "up" component: m1 = m' - 1/2  ->  s = j - m' + 1/2 = r
        # coefficient sqrt((j + m' + 1/2) / (2j + 1)) = sqrt((twoj+1-r)/(twoj+1))
        if r <= twoj:
            mat[row, 2 * r] = math.sqrt((twoj + 1 - r) / (twoj + 1))
        # "down" component: m1 = m' + 1/2  ->  s = r - 1
        if r >= 1:
            mat[row, 2 * (r - 1) + 1] = math.sqrt(r / (twoj + 1))
        row += 1
    if twoj > 0:
        # Lower block: total spin j - 1/2; row r has m' = (twoj-1)/2 - r.
        for r in range(twoj):
            # up: s = j - m' + 1/2 = r + 1, coefficient -sqrt((j-m'+1/2)/(2j+1))
            mat[row, 2 * (r + 1)] = -math.sqrt((r + 1) / (twoj + 1))
            # down: s = r, coefficient sqrt((j+m'+1/2)/(2j+1))
            mat[row, 2 * r + 1] = math.sqrt((twoj - r) / (twoj + 1))
            row += 1
    t = CGTransform(lam=lam, matrix=mat, blocks=blocks)
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


def cg_closed(lam: Partition) -> CGTransform:
    """Closed-form transform for any d, from GT patterns and integer
    arithmetic; for d=2 it reproduces cg_qubit bit for bit."""
    d = lam.d
    blocks = _blocks_for(lam)
    source = enumerate_gt(lam)
    size = len(source) * d
    mat = np.zeros((size, size))
    for blk in blocks:
        index = {pat: r for r, pat in enumerate(enumerate_gt(blk.target))}
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
    t = CGTransform(lam=lam, matrix=mat, blocks=blocks)
    t.check_unitary()
    return t


_cache: dict = {}
_cache_bytes = 0  # matrix bytes the cache holds
_cache_lock = threading.Lock()


def _build_bytes(size: int) -> int:
    """Peak bytes of a build: the matrix and check_unitary's temporaries
    (measured 24.0 size^2 at sides 802 to 2002), and GT patterns per row."""
    return 32 * size * size + 4096 * size


def _step_bytes(size: int) -> int:
    """Peak bytes of coupling into a density matrix of side `size`, by
    `step()` or at a `dist`/`full` node, over the cache's other
    transforms: this matrix, the previous state, the coupled state and the
    temporaries of its rotation (measured 68 size^2 at sides 82 to 670).
    `sample` unravels density matrices and holds only vectors."""
    return 80 * size * size + 4096 * size


def cg_transform(lam: Partition) -> CGTransform:
    """Cached CG transform: cg_qubit for d=2, cg_closed otherwise.  A build
    over the memory budget is refused; one that would take the cache over
    it, or leave no room for a density-matrix step at its size, empties the
    cache first."""
    global _cache_bytes
    key = lam.parts
    t = _cache.get(key)
    if t is None:
        size = lam.d * dim_unitary(lam)
        need = _build_bytes(size)
        errors.check_budget(f"CG transform of size {size} at lambda={lam}", need)
        with _cache_lock:
            t = _cache.get(key)
            if t is None:
                if _cache_bytes + max(need, _step_bytes(size)) > errors.MEMORY_BUDGET:
                    _cache.clear()
                    _cache_bytes = 0
                t = cg_qubit(lam) if lam.d == 2 else cg_closed(lam)
                _cache[key] = t
                _cache_bytes += t.matrix.nbytes
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


def verify_sparsity(t: CGTransform) -> SparsityReport:
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
