"""The error taxonomy and the one check that an input is a physical state.

The CLI maps `InvalidInputError` (and every other `ValueError`) to exit
code 1, and `SizeLimitError` and `BranchExplosionError` to exit code 2.
"""

from __future__ import annotations

import numpy as np

STATE_TOL = 1e-9


class InvalidInputError(ValueError):
    """An input that is not a physical state, or is malformed."""


class SizeLimitError(RuntimeError):
    """A request above a guardrail, refused before it allocates."""


class BranchExplosionError(RuntimeError):
    """More live branches than the enumeration's branch cap."""


class NumericalCollapseError(RuntimeError):
    """All branch probabilities vanished; the state is corrupted."""


def check_state(state, dim: int) -> np.ndarray:
    """`state` as a complex array once it is checked to be a state on C^dim:
    a unit vector of length dim, or a dim x dim density matrix that is
    Hermitian, has trace 1 and no eigenvalue below -STATE_TOL."""
    state = np.asarray(state, dtype=complex)
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
    # the eigensolve runs only when they do not.
    radii = np.sum(np.abs(state), axis=1) - np.abs(state.diagonal())
    if np.min(state.diagonal().real - radii) < -STATE_TOL and \
            np.linalg.eigvalsh(state)[0] < -STATE_TOL:
        raise InvalidInputError("density matrix not positive semidefinite")
    return state
