"""The error taxonomy, the one check that an input is a physical state (and
its stream form), and the one memory budget that every allocator checks
its byte estimate against.

The state check reads a density matrix a block of rows at a time, so it
holds about 1 MiB of temporaries beside its input (and the complex copy of
a real one, unless the caller keeps it real) at any size.  The CLI maps
`InvalidInputError` (and every other `ValueError`) to exit code 1, and
`SizeLimitError` to exit code 2.
"""

from __future__ import annotations

import math

import numpy as np

STATE_TOL = 1e-9
MEMORY_BUDGET = 1 << 30  # bytes


class InvalidInputError(ValueError):
    """An input that is not a physical state, or is malformed."""


class SizeLimitError(RuntimeError):
    """A request over the memory budget, refused before it allocates."""


class NumericalCollapseError(RuntimeError):
    """All branch probabilities vanished; the state is corrupted."""


def check_budget(request: str, estimate: int) -> None:
    """Refuse `request` when `estimate`, the bytes it will hold, is over
    MEMORY_BUDGET."""
    if estimate > MEMORY_BUDGET:
        raise SizeLimitError(f"{request} needs about {estimate} bytes, over the "
                             f"memory budget of {MEMORY_BUDGET} bytes")


def _row_blocks(dim: int):
    """Slices of whole rows that cover 0 .. dim, about 2^15 entries (512 KiB
    of complex) each."""
    rows = max(1, (1 << 15) // max(dim, 1))
    return [slice(i, i + rows) for i in range(0, dim, rows)]


def check_state(state, dim: int, *, keep_real: bool = False) -> np.ndarray:
    """`state` as a complex array once it is checked to be a state on C^dim:
    a unit vector of length dim, or a dim x dim density matrix that is
    Hermitian, has trace 1 and no eigenvalue below -STATE_TOL.  Every
    entry must be finite: the comparisons below are all false on NaN.

    A vector's checks take one reduction, its squared norm; a density
    matrix's take one pass over blocks of rows (`_row_blocks`), which sums
    each row's |entries| (the Gershgorin sums) and finds the largest
    |rho_ij - conj rho_ji|, the numbers a whole-array pass gives, with
    about 1 MiB of temporaries.  Entries are searched for a non-finite one
    only when those sums are not finite (a finite input can overflow them);
    one is still reported before any other fault.

    With `keep_real`, a real input is checked and returned as float64,
    with no complex copy (16 dim^2 bytes of a density matrix)."""
    state = np.asarray(state)
    real = keep_real and state.dtype.kind in "biuf"
    state = np.asarray(state, dtype=float if real else complex)
    if state.ndim == 1:
        squared = float(np.vdot(state, state).real)
        if not math.isfinite(squared) and not np.isfinite(state).all():
            raise InvalidInputError("state has a non-finite entry")
        if state.shape != (dim,):
            raise InvalidInputError(f"state length {state.shape[0]} != {dim}")
        if abs(math.sqrt(squared) - 1.0) > STATE_TOL:
            raise InvalidInputError("state vector not normalized")
        return state
    if state.shape != (dim, dim):
        if not np.isfinite(state).all():  # the method skips np.all's dispatch
            raise InvalidInputError("state has a non-finite entry")
        raise InvalidInputError(f"density matrix shape {state.shape} != ({dim}, {dim})")
    # each block's deviation runs over j from its first row on, which
    # meets every pair (i, j) once; a non-finite or overflowing entry is
    # reported after the pass, so its arithmetic here warns of nothing.
    # np.conjugate always makes a new array: a real array's .conj() is
    # the array itself, and the subtraction would overwrite the input
    sums, deviation = np.empty(dim), 0.0
    with np.errstate(invalid="ignore", over="ignore"):
        for rows in _row_blocks(dim):
            block = state[rows]
            sums[rows] = np.abs(block).sum(axis=1)
            diff = np.conjugate(state[rows.start:, rows].T)
            np.subtract(block[:, rows.start:], diff, out=diff)
            deviation = max(deviation, float(np.abs(diff).max()))
            del diff  # before the next block's temporaries
    if not np.isfinite(sums).all() and not np.isfinite(state).all():
        raise InvalidInputError("state has a non-finite entry")
    if abs(np.trace(state) - 1.0) > STATE_TOL:
        raise InvalidInputError("density matrix trace != 1")
    if deviation > STATE_TOL:
        raise InvalidInputError("density matrix not Hermitian")
    # Gershgorin discs certify most inputs (I/dim among them) in O(dim^2);
    # otherwise state + STATE_TOL*I has a Cholesky factor exactly when no
    # eigenvalue is below -STATE_TOL.
    diagonal = state.diagonal()
    if np.min(diagonal.real - (sums - np.abs(diagonal))) < -STATE_TOL:
        shifted = state.copy()
        shifted.flat[::dim + 1] += STATE_TOL
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            raise InvalidInputError("density matrix not positive semidefinite") from None
    return state


def check_stream(stream, d: int) -> list[np.ndarray]:
    """The elements of a non-empty stream of qudits, each checked by
    check_state on C^d once per distinct array (the iid form is n
    references to one array); an error names the element it was found on."""
    if len(stream) < 1:
        raise InvalidInputError("empty stream")
    checked = {}
    for i, q in enumerate(stream):
        if id(q) not in checked:
            try:
                checked[id(q)] = check_state(q, d)
            except InvalidInputError as e:
                raise InvalidInputError(f"stream element {i}: {e}") from e
    return [checked[id(q)] for q in stream]
