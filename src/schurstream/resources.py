"""Memory and gate-count accounting for the streaming sampler.

Gate totals here are count models parameterized by explicit constants; no
circuit is ever synthesized.  The Givens decomposition is exact;
`cg.verify_sparsity` runs it on the actual CG matrices to report the
measured rotation count next to the analytic bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import check_budget

ZERO_TOL = 1e-12  # a matrix entry at or below this magnitude is zero


def qudit_width(k: int, d: int) -> int:
    """Qudits needed during iteration k: one L qudit plus the smallest Q
    register of m qudits with d^m >= (k+2)^(d(d-1)/2), exact integers.
    After the new qudit the label has k+1 boxes, and each of the d(d-1)/2
    factors (lam_i - lam_j + j - i)/(j - i) of Weyl's dimension formula is
    at most lam_i - lam_j + 1 <= k+2, so this bounds dim Q; at d=2 it is
    dim Q's own bound k+2."""
    bound = (k + 2) ** (d * (d - 1) // 2)
    m, power = 0, 1
    while power < bound:
        m, power = m + 1, power * d
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


def check_profile(n: int) -> None:
    """memory_profile's checks, in O(1): n >= 2, and its records within
    the memory budget.  A record holds 1100 bytes with its share of the
    report (measured 980 B in JSON at n=50000)."""
    if n < 2:
        raise ValueError("n >= 2 required")
    check_budget(f"resources profile of n={n}", 1100 * (n - 1))


def memory_profile(n: int, d: int = 2) -> list[IterationRecord]:
    """Per-iteration register widths and qudit-removal events for a run
    on n qudits (iterations k = 1 .. n-1), once check_profile passes."""
    check_profile(n)
    return [IterationRecord(k=k, width=qudit_width(k, d), removal=removal(k, d))
            for k in range(1, n)]


def peak_width(n: int, d: int = 2) -> int:
    return qudit_width(n - 1, d)


def givens_decompose(u: np.ndarray
                     ) -> tuple[list[tuple[int, int, np.ndarray]], np.ndarray]:
    """Reduce a unitary to a diagonal by two-level (Givens) rotations.

    Returns (rotations, diagonal) with rotations a list of (i, j, g) where
    g is the 2x2 unitary applied to coordinates (i, j);
    u = G_1^dag G_2^dag ... G_m^dag diag(phases).
    """
    u = np.asarray(u, dtype=complex)
    size = u.shape[0]
    if not np.max(np.abs(u.conj().T @ u - np.eye(size))) <= 1e-10:  # NaN fails it
        raise ValueError("input is not unitary")
    a = u.copy()
    rotations = []
    for c in range(size - 1):
        for r in range(c + 1, size):
            if abs(a[r, c]) <= ZERO_TOL:
                continue
            x, y = a[c, c], a[r, c]
            nrm = math.hypot(abs(x), abs(y))
            g = np.array([[np.conj(x), np.conj(y)],
                          [-y, x]], dtype=complex) / nrm
            rows = a[[c, r], :]
            a[[c, r], :] = g @ rows
            rotations.append((c, r, g))
    return rotations, np.diag(a).copy()


def two_level_total(n: int) -> int:
    """Exact evaluation of the qubit two-level bound sum: 2n^2 + 2n - 4."""
    return 2 * n * n + 2 * n - 4


def _model_delta(n: int, epsilon: float, c: float, factors: tuple[int, ...],
                 p: float | None = None) -> float:
    """The one argument check of the gate-count models (n >= 2,
    0 < epsilon < 1, finite c > 0 and, where the model uses it, finite
    p > 0), then the per-gate precision delta = epsilon / (c * factors...),
    which must lie in (0, 1), and not be so small that 1/delta overflows,
    for its gate depth log2(1/delta) to count."""
    if (n < 2 or not 0 < epsilon < 1 or not 0 < c < math.inf
            or p is not None and not 0 < p < math.inf):
        raise ValueError("need n >= 2, 0 < epsilon < 1, 0 < c < inf "
                         "and 0 < p < inf")
    delta = epsilon / math.prod(factors, start=c)
    if not 0 < delta < 1 or not 1 / delta < math.inf:
        raise ValueError(f"the per-gate precision delta = {delta!r} "
                         "must lie in (0, 1), with 1/delta finite")
    return delta


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


def qubit_gate_count(n: int, epsilon: float, c: float = 1.0) -> GateCountModel:
    """Two-level total 2n^2+2n-4, expanded to a Clifford+T estimate:
    each two-level unitary costs n CNOT/single-qubit slots, each
    single-qubit gate ceil(log2(1/delta)) with delta = epsilon/(c n^2)."""
    delta = _model_delta(n, epsilon, c, (n, n))
    total = two_level_total(n)
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


def qudit_m_sum(n: int, d: int) -> int:
    """Exact two-level count bound summed over iterations.  For d=2 the
    two-nonzeros-per-row structure gives 4(k+1) per iteration, two_level_total
    in sum; for d>2 the generic square bound d^2 (k+1)^(2d-2) is used."""
    if d == 2:
        return two_level_total(n)
    return qudit_m_generic_sum(n, d)


def qudit_m_generic_sum(n: int, d: int) -> int:
    """The generic square bound sum d^2 (k+1)^(2d-2) over k = 1 .. n-1,
    for any d."""
    return sum(d * d * (k + 1) ** (2 * d - 2) for k in range(1, n))


def qudit_m_integral_bound(n: int, d: int) -> float:
    """Closed-form integral upper bound on the generic sum; one past the
    float range is refused."""
    e = 2 * d - 1
    try:
        return d * d * ((n + 1) ** e - 2 ** e) / e
    except OverflowError:
        raise ValueError(f"the qudit gate model's integral bound d^2 ((n+1)^(2d-1) - "
                         f"2^(2d-1)) / (2d-1) passes the float range at n={n}, d={d}"
                         ) from None


def qudit_gate_bound(n: int, d: int, epsilon: float, p: float = 4.0,
                     c: float = 1.0) -> QuditGateBound:
    """Total gate-count model M * n * ceil(log2(1/delta))^p with
    delta = epsilon / (c d n^(2d-1)); an n^(2d-1) or an M n past the
    float range, or a p whose estimate overflows a float, is refused."""
    if d < 2:
        raise ValueError("need d >= 2")
    try:
        delta = _model_delta(n, epsilon, c, (d, n ** (2 * d - 1)), p)
    except OverflowError:
        raise ValueError(f"n^(2d-1) = {n}^{2 * d - 1} passes the float range in the qudit "
                         "gate model's delta = epsilon / (c d n^(2d-1))") from None
    m_exact = qudit_m_sum(n, d)
    try:
        m_n = float(m_exact * n)
    except OverflowError:
        raise ValueError(f"M n passes the float range in the qudit gate model's estimate "
                         f"M n ceil(log2(1/delta))^p at n={n}, d={d}") from None
    try:
        total = int(m_n * math.ceil(math.log2(1 / delta)) ** p)
    except OverflowError:
        raise ValueError(f"p = {p!r} overflows the qudit gate model's estimate "
                         "M n ceil(log2(1/delta))^p") from None
    return QuditGateBound(n=n, d=d, epsilon=epsilon, p=p, c=c,
                          m_exact=m_exact,
                          m_integral_bound=qudit_m_integral_bound(n, d),
                          delta=delta,
                          total_estimate=total)
