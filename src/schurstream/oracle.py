"""Brute-force ground truth on the full d^n-dimensional space, from qudit
swaps alone: no CG coefficient, GT pattern or Schur transform enters.

The Jucys-Murphy elements X_k = sum_{i<k} (i k) commute.  On the range of
Pi^(k-1)_mu (x) I (mu's isotypic projector on the first k-1 qudits), X_k
has one eigenvalue per valid addable box of mu, its content (column -
row), on mu + e_j's share of the range (Okounkov-Vershik, Selecta Math. 2
(1996) 581).  The contents are distinct, so the Lagrange polynomials L_j
in X_k over them split it: Pi^(k)_nu = sum_{mu+e_j=nu} (Pi^(k-1)_mu (x) I)
L_j(X_k).  A swap keeps the letter counts of a word, so each level runs
one weight block W of k-letter words at a time.  W's words are ordered by
their last letter e, then as in W - e_e, so Pi^(k-1)_mu (x) I is block
diagonal on W and costs no product, and X_k is k - 1 row gathers.  At
level n no projector is formed: tr(rho Pi_lam) is contracted from
X_n^m Re rho_WW, m < d, and the level-(n-1) projectors.
"""

from __future__ import annotations

import numpy as np

from .errors import check_budget, check_state
from .partitions import Partition, add_box, dim_symmetric, dim_unitary, valid_rows


def _transform_bytes(n: int, d: int) -> int:
    """Bytes the oracle on D = d^n holds with its inputs and report, with
    headroom.  Whole cold `oracle --compare` calls on iid I/d trace at most
    12.0 D^2 where the oracle sets the peak (n >= 4, D = 1000 to 6561: I/D,
    the level-(n-1) projectors and one block's products); 14.0-14.9 D^2 at
    n = 3, d = 10 to 15, the compare walk's last density-matrix step; 90
    d^2 at n = 1, the d x d rho parsed from JSON.  At n = 2 the walk's step
    (64 D^2) has its own estimate, and the oracle alone traces 8.2 D^2.
    d^64 is over any budget, so the power stops there."""
    size = d ** min(n, 64)
    return 20 * size * size + 128 * d * d + (1 << 24)


def check_size(n: int, d: int) -> None:
    """Refuse the oracle on d^n dimensions when its estimate is over the
    memory budget."""
    check_budget(f"oracle for n={n}, d={d}", _transform_bytes(n, d))


def _addable(mu: Partition) -> dict[int, int]:
    """The content (column - row) of the box mu + e_j adds, for each valid
    row j: the eigenvalues of X_k on Pi_mu (x) I."""
    return {j: mu.parts[j] - j for j in valid_rows(mu)}


def _split(labels: list[Partition]) -> tuple[list[Partition], np.ndarray]:
    """The labels one box past `labels`, descending, and coef[v, m, u]: the
    coefficient of x^m in the Lagrange polynomial, from integer products,
    that is 1 at the content of the box from labels[u] to the v-th label."""
    rows = []
    for u, mu in enumerate(labels):
        contents = _addable(mu)
        for j, c in contents.items():
            poly, den = [1], 1
            for other in contents.values():
                if other != c:  # poly times (x - other)
                    poly = [a - other * b for a, b in zip([0] + poly, poly + [0])]
                    den *= c - other
            rows.append((u, add_box(mu, j), [a / den for a in poly]))
    children = sorted({nu for _, nu, _ in rows}, reverse=True)
    index = {nu: v for v, nu in enumerate(children)}
    coef = np.zeros((len(children), max(len(p) for *_, p in rows), len(labels)))
    for u, nu, poly in rows:
        coef[index[nu], :len(poly), u] = poly
    return children, coef


def _blocks(prev: dict[tuple, tuple], k: int, d: int) -> dict[tuple, tuple]:
    """The blocks of k letters from those of k - 1: for each letter count
    w, its words (indices into (C^d)^(x)k, the last qudit least
    significant), its sub-blocks w - e_e as (w - e_e, slice) by last letter
    e, and, for each i < k, the position of the word the swap (i k) makes
    of each word."""
    blocks = {}
    for w in sorted({w[:e] + (w[e] + 1,) + w[e + 1:] for w in prev for e in range(d)}):
        parts, subs, start = [], [], 0
        for e in range(d):
            if w[e]:
                sub = w[:e] + (w[e] - 1,) + w[e + 1:]
                parts.append(prev[sub][0] * d + e)
                subs.append((sub, slice(start, start + len(parts[-1]))))
                start += len(parts[-1])
        blocks[w] = np.concatenate(parts), subs
    # every swap of every word of the level at once
    words = np.concatenate([ws for ws, _ in blocks.values()])
    pos = np.empty(d ** k, dtype=np.intp)
    for ws, _ in blocks.values():
        pos[ws] = np.arange(len(ws))
    last, perms = words % d, np.empty((k - 1, len(words)), dtype=np.intp)
    for i in range(k - 1):
        place = d ** (k - 1 - i)
        letter = words // place % d
        perms[i] = pos[words + (last - letter) * place + (letter - last)]
    out, start = {}, 0
    for w, (ws, subs) in blocks.items():
        out[w] = ws, subs, perms[:, start:start + len(ws)]
        start += len(ws)
    return out


def _powers(out: np.ndarray, swaps: np.ndarray, axis: int) -> None:
    """Fill out[1:] with X_k out[0], X_k^2 out[0], ..., X_k acting on
    `axis` of each as the sum of its gathers by the swaps.  Every swap
    index lies in its block (_blocks), so a gather takes mode="clip",
    which writes into buf directly where "raise" buffers; _check_traces
    catches a wrong gather."""
    buf = np.empty_like(out[0])
    for i in range(1, len(out)):
        out[i] = 0.0
        for p in swaps:
            out[i] += np.take(out[i - 1], p, axis=axis, out=buf, mode="clip")


def _check_traces(labels: list[Partition], traces: np.ndarray, k: int, d: int) -> None:
    """Each label's projector trace at level k, summed over the blocks, is
    dim P_nu dim Q_nu within 1e-12 d^k, the rounding of d^k diagonal
    entries (measured at most 1.7e-16 d^k at (n, d) = (12, 2), (8, 3),
    (6, 4), (5, 5) and (4, 9))."""
    for nu, trace in zip(labels, traces):
        want = dim_symmetric(nu) * dim_unitary(nu)
        if not abs(trace - want) <= 1e-12 * d ** k:
            raise AssertionError(f"level {k}: the projector of {nu} has trace "
                                 f"{trace}, not dim P * dim Q = {want}")


def _rho_block(state: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Re rho on the rows and columns `cols`, of a checked density matrix or
    of the pure state |v><v|, without forming |v><v|."""
    if state.ndim == 2:
        return state.real[np.ix_(cols, cols)]
    v = state[cols]
    return np.outer(v.real, v.real) + np.outer(v.imag, v.imag)


def weak_schur_probs(rho: np.ndarray, n: int, d: int) -> dict[Partition, float]:
    """tr[rho Pi_lam] for every lam |- n with at most d rows, descending, for
    a density matrix or state vector on (C^d)^(x)n.  Pi_lam is real
    symmetric and block diagonal over the weights, so only Re rho_WW
    enters; a real density matrix, such as the default I/D, is read as it
    is, and a vector is never formed into |v><v|.  Checked exactly where it
    can be: each level's projector traces (_check_traces), and the total,
    1 within 1e-9."""
    if n < 1:
        raise ValueError("n >= 1 required")
    check_size(n, d)
    return _probs(check_state(rho, d ** n, keep_real=True), n, d)


def _probs(rho: np.ndarray, n: int, d: int) -> dict[Partition, float]:
    """weak_schur_probs on a state that check_state has passed, and an
    (n, d) that check_size has: neither check is run again."""
    # level 0: the empty word, and the empty label's 1 x 1 projector; each
    # block holds the indices of the labels on it and their projectors
    empty, zero = (0,) * d, np.zeros(1, dtype=np.intp)
    labels, blocks = [Partition(empty)], {empty: (zero,)}
    held = {empty: (zero, np.ones((1, 1, 1)))}
    for k in range(1, n + 1):
        children, coef = _split(labels)
        blocks = _blocks(blocks, k, d)
        if k == n:
            break
        # a block's labels, those held on its sub-blocks, are the nonzero
        # counts over the level's labels, sorted, and `where` is each one's
        # position among them.  Not np.unique: it reads np.ma.is_masked, so
        # its first call in a process imports numpy.ma (8-10 ms and about
        # 1.1 MB RSS with numpy 2.4, a quarter of a cold `oracle --d 2 --n
        # 10 --compare`)
        new, traces = {}, np.zeros(len(children))
        where = np.empty(len(labels), dtype=np.intp)
        for w, (ws, subs, swaps) in blocks.items():
            ons = np.concatenate([held[sub][0] for sub, _ in subs])
            mus = np.flatnonzero(np.bincount(ons, minlength=len(labels)))
            where[mus] = np.arange(len(mus))
            c = coef[:, :, mus]
            nus = np.flatnonzero(c.any(axis=(1, 2)))
            count = np.flatnonzero(c.any(axis=(0, 2)))[-1] + 1
            # Pi_mu (x) I on block w, for every label mu held on a sub-block,
            # and its products with the powers of X_k
            powers = np.zeros((count, len(mus), len(ws), len(ws)))
            for sub, sl in subs:
                on, stack = held[sub]
                powers[0, where[on], sl, sl] = stack
            _powers(powers, swaps, axis=1)
            stack = np.tensordot(c[nus, :count], powers, axes=([1, 2], [0, 1]))
            traces[nus] += np.trace(stack, axis1=1, axis2=2)
            new[w] = nus, stack
        _check_traces(children, traces, k, d)
        labels, held = children, new
    # t[m, u] = tr((Pi_u (x) I) X_n^m rho) for each label u of level n - 1,
    # summed over the blocks, block by block of the last letter: Pi_u is
    # symmetric, so each trace is an elementwise sum
    t = np.zeros(coef.shape[1:])
    for ws, subs, swaps in blocks.values():
        powers = np.empty((coef.shape[1], len(ws), len(ws)))
        powers[0] = _rho_block(rho, ws)
        _powers(powers, swaps, axis=0)
        for sub, sl in subs:
            on, stack = held[sub]
            t[:, on] += np.einsum("uij,mij->mu", stack, powers[:, sl, sl])
    out = {lam: float(p) for lam, p in zip(children, np.einsum("vmu,mu->v", coef, t))}
    total = sum(out.values())
    if not abs(total - 1.0) <= 1e-9:
        raise AssertionError(f"probabilities sum to {total}")
    return out
