"""The error taxonomy, the one check that an input is a physical state, and
the one memory budget that every allocator checks its byte estimate against.

The CLI maps `InvalidInputError` (and every other `ValueError`) to exit
code 1, and `SizeLimitError` to exit code 2.
"""

from __future__ import annotations

import numpy as np

STATE_TOL = 1e-9
MEMORY_BUDGET = 1 << 30  # bytes


class InvalidInputError(ValueError):
    """An input that is not a physical state, or is malformed."""


class SizeLimitError(RuntimeError):
    """A request over the memory budget, refused before it allocates."""


class NumericalCollapseError(RuntimeError):
    """All branch probabilities vanished; the state is corrupted."""


def check_budget(request: str, estimate: int, n: int = 0,
                 limit: int | None = None) -> None:
    """Refuse `request` when `estimate`, the bytes it will hold, is over
    MEMORY_BUDGET; an explicit `limit` (at least 1) replaces the budget by
    n <= limit."""
    if limit is not None and limit < 1:
        raise InvalidInputError(f"limit={limit}: need limit >= 1")
    if limit is None and estimate > MEMORY_BUDGET:
        raise SizeLimitError(f"{request} needs about {estimate} bytes, over the "
                             f"memory budget of {MEMORY_BUDGET} bytes")
    if limit is not None and n > limit:
        raise SizeLimitError(f"{request}: n={n} exceeds the limit {limit}")


def check_state(state, dim: int) -> np.ndarray:
    """`state` as a complex array once it is checked to be a state on C^dim:
    a unit vector of length dim, or a dim x dim density matrix that is
    Hermitian, has trace 1 and no eigenvalue below -STATE_TOL.  Every
    entry must be finite: the comparisons below are all false on NaN."""
    state = np.asarray(state, dtype=complex)
    if not np.all(np.isfinite(state)):
        raise InvalidInputError("state has a non-finite entry")
    if state.ndim == 1:
        if state.shape != (dim,):
            raise InvalidInputError(f"state length {state.shape[0]} != {dim}")
        if abs(np.linalg.norm(state) - 1.0) > STATE_TOL:
            raise InvalidInputError("state vector not normalized")
        return state
    if state.shape != (dim, dim):
        raise InvalidInputError(f"density matrix shape {state.shape} != ({dim}, {dim})")
    if abs(np.trace(state) - 1.0) > STATE_TOL:
        raise InvalidInputError("density matrix trace != 1")
    if np.max(np.abs(state - state.conj().T)) > STATE_TOL:
        raise InvalidInputError("density matrix not Hermitian")
    # Gershgorin discs certify most inputs (I/dim among them) in O(dim^2);
    # otherwise state + STATE_TOL*I has a Cholesky factor exactly when no
    # eigenvalue is below -STATE_TOL.
    radii = np.sum(np.abs(state), axis=1) - np.abs(state.diagonal())
    if np.min(state.diagonal().real - radii) < -STATE_TOL:
        try:
            np.linalg.cholesky(state + STATE_TOL * np.eye(dim))
        except np.linalg.LinAlgError:
            raise InvalidInputError("density matrix not positive semidefinite") from None
    return state
