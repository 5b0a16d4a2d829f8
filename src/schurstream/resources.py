"""Memory and gate-count accounting for the streaming sampler.

Gate totals here are count models parameterized by explicit constants; no
circuit is ever synthesized.  The Givens decomposition is exact and is run
on the actual CG matrices to compare measured rotation counts against the
analytic bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .partitions import Partition


def qubit_width(k: int) -> int:
    """Qubits needed during iteration k (d=2): ceil(log2(2k+4))."""
    return (2 * k + 3).bit_length()


def qudit_width(k: int, d: int) -> int:
    """Qudits needed during iteration k: one L qudit plus the smallest Q
    register of m qudits with d^m >= (k+2)^(d-1), the dimension bound after
    the new qudit; exact integer arithmetic."""
    if d == 2:
        return qubit_width(k)
    bound = (k + 2) ** (d - 1)
    m = 0
    while d ** m < bound:
        m += 1
    return 1 + m


def removal(k: int, d: int) -> bool:
    """Whether iteration k discards its measured L qudit: it does unless the
    next iteration needs exactly one qudit more than this one."""
    return qudit_width(k, d) != qudit_width(k + 1, d) - 1


@dataclass
class IterationRecord:
    k: int
    width: int
    removal: bool
    cg_size: int | None = None
    givens_used: int | None = None
    two_level_bound: int | None = None

    def to_dict(self) -> dict:
        return {"k": self.k, "width": self.width, "removal": self.removal,
                "cg_size": self.cg_size, "givens_used": self.givens_used,
                "two_level_bound": self.two_level_bound}


def memory_profile(n: int, d: int = 2) -> list[IterationRecord]:
    """Per-iteration register widths and qudit-removal events for a run
    on n qudits (iterations k = 1 .. n-1)."""
    if n < 2:
        raise ValueError("n >= 2 required")
    return [IterationRecord(k=k, width=qudit_width(k, d), removal=removal(k, d))
            for k in range(1, n)]


def peak_width(n: int, d: int = 2) -> int:
    return qudit_width(n - 1, d)


def givens_decompose(u: np.ndarray, tol: float = 1e-12
                     ) -> tuple[list[tuple[int, int, np.ndarray]], np.ndarray]:
    """Reduce a unitary to a diagonal by two-level (Givens) rotations.

    Returns (rotations, diagonal) with rotations a list of (i, j, g) where
    g is the 2x2 unitary applied to coordinates (i, j);
    u = G_1^dag G_2^dag ... G_m^dag diag(phases).
    """
    u = np.asarray(u, dtype=complex)
    size = u.shape[0]
    if np.max(np.abs(u.conj().T @ u - np.eye(size))) > 1e-10:
        raise ValueError("input is not unitary")
    a = u.copy()
    rotations = []
    for c in range(size - 1):
        for r in range(c + 1, size):
            if abs(a[r, c]) <= tol:
                continue
            x, y = a[c, c], a[r, c]
            nrm = math.hypot(abs(x), abs(y))
            g = np.array([[np.conj(x), np.conj(y)],
                          [-y, x]], dtype=complex) / nrm
            rows = a[[c, r], :]
            a[[c, r], :] = g @ rows
            rotations.append((c, r, g))
    return rotations, np.diag(a).copy()


def givens_reconstruct(rotations, diagonal) -> np.ndarray:
    """Multiply a decomposition back together (for verification)."""
    size = diagonal.shape[0]
    u = np.diag(diagonal).astype(complex)
    for c, r, g in reversed(rotations):
        rows = u[[c, r], :]
        u[[c, r], :] = g.conj().T @ rows
    return u


_givens_cache: dict = {}


def cg_givens_count(lam: Partition, d: int) -> int:
    """Measured Givens-rotation count for the CG matrix at (lam, d)."""
    key = (lam.parts, d)
    if key not in _givens_cache:
        from .cg import cg_transform
        rotations, _ = givens_decompose(cg_transform(lam, d).matrix)
        _givens_cache[key] = len(rotations)
    return _givens_cache[key]


def two_level_total(n: int) -> int:
    """Exact evaluation of the qubit two-level bound sum: 2n^2 + 2n - 4."""
    return 2 * n * n + 2 * n - 4


def two_level_total_by_sum(n: int) -> int:
    return sum(4 * (k + 1) for k in range(1, n))


@dataclass
class GateCountModel:
    n: int
    d: int
    epsilon: float
    c: float
    p: float | None
    two_level_total: int
    delta: float
    single_qubit_depth: int
    clifford_t_estimate: int
    note: str = ("count model with explicit constants, "
                 "not a synthesized circuit")

    def to_dict(self) -> dict:
        return {"n": self.n, "d": self.d, "epsilon": self.epsilon, "c": self.c,
                "p": self.p, "two_level_total": self.two_level_total,
                "delta": self.delta,
                "single_qubit_depth": self.single_qubit_depth,
                "clifford_t_estimate": self.clifford_t_estimate,
                "note": self.note}


def qubit_gate_count(n: int, epsilon: float, c: float = 1.0) -> GateCountModel:
    """Two-level total 2n^2+2n-4, expanded to a Clifford+T estimate:
    each two-level unitary costs n CNOT/single-qubit slots, each
    single-qubit gate ceil(log2(1/delta)) with delta = epsilon/(c n^2)."""
    if n < 2 or not 0 < epsilon < 1 or c <= 0:
        raise ValueError("need n >= 2, 0 < epsilon < 1, c > 0")
    total = two_level_total(n)
    delta = epsilon / (c * n * n)
    depth = math.ceil(math.log2(1 / delta))
    return GateCountModel(n=n, d=2, epsilon=epsilon, c=c, p=None,
                          two_level_total=total, delta=delta,
                          single_qubit_depth=depth,
                          clifford_t_estimate=total * n * depth)


@dataclass
class QuditGateBound:
    n: int
    d: int
    epsilon: float
    p: float
    c: float
    m_exact: int
    m_integral_bound: float
    delta: float
    total_estimate: int
    note: str = ("count model with explicit constants, "
                 "not a synthesized circuit")

    def to_dict(self) -> dict:
        return {"n": self.n, "d": self.d, "epsilon": self.epsilon, "p": self.p,
                "c": self.c, "m_exact": self.m_exact,
                "m_integral_bound": self.m_integral_bound, "delta": self.delta,
                "total_estimate": self.total_estimate, "note": self.note}


def qudit_m_sum(n: int, d: int) -> int:
    """Exact two-level count bound summed over iterations.  For d=2 the
    two-nonzeros-per-row structure gives 4(k+1) per iteration; for d>2
    the generic square bound d^2 (k+1)^(2d-2) is used."""
    if d == 2:
        return two_level_total_by_sum(n)
    return sum(d * d * (k + 1) ** (2 * d - 2) for k in range(1, n))


def qudit_m_generic_sum(n: int, d: int) -> int:
    """The generic square bound sum for any d (matches qudit_m_sum for d>2)."""
    return sum(d * d * (k + 1) ** (2 * d - 2) for k in range(1, n))


def qudit_m_integral_bound(n: int, d: int) -> float:
    """Closed-form integral upper bound on the generic sum."""
    e = 2 * d - 1
    return d * d * ((n + 1) ** e - 2 ** e) / e


def qudit_gate_bound(n: int, d: int, epsilon: float, p: float = 4.0,
                     c: float = 1.0) -> QuditGateBound:
    """Total gate-count model M * n * ceil(log2(1/delta))^p with
    delta = epsilon / (c d n^(2d-1))."""
    if d < 2 or p <= 0:
        raise ValueError("need d >= 2, p > 0")
    m_exact = qudit_m_sum(n, d)
    delta = epsilon / (c * d * n ** (2 * d - 1))
    depth = math.ceil(math.log2(1 / delta)) ** p
    return QuditGateBound(n=n, d=d, epsilon=epsilon, p=p, c=c,
                          m_exact=m_exact,
                          m_integral_bound=qudit_m_integral_bound(n, d),
                          delta=delta,
                          total_estimate=int(m_exact * n * depth))
