"""Register-level qubit mode: Algorithm 2 on an explicit qubit register.

The state after k qubits lies on a ceil(log2(2k+4))-qubit register,
`resources.qudit_width(k, 2)` qubits wide, whose leading dim Q^2_lam
amplitudes carry the state and the rest are zero padding.  Each step
couples the next qubit in, lets the leading (L) qubit index j and keeps
the qubits the width bookkeeping (`resources.removal`) keeps.  The mode is
one more outcomes function (`_register_outcomes`), which couples a qubit
in with the sampler's vector kernel (the transform's `_product`, split by
`sampler._split`), on the depth-first reference walk
(reference_walk._enumerate) and the sampler's draw over the block
weights (`_sample`); acceptance criterion 4 checks the register layout
and that its measurement law is the abstract mode's.
"""

from __future__ import annotations

import numpy as np

from schurstream.cg import cg_transform
from schurstream.errors import (InvalidInputError, NumericalCollapseError,
                                check_stream)
from schurstream.partitions import LatticePath, Partition, dim_unitary, one_box
from schurstream.resources import qudit_width, removal
from schurstream.sampler import (DEFAULT_PRUNE, BranchDistribution, RunResult,
                                 _is_matrix, _normalized, _sample, _split, make_rng)
from reference_walk import _enumerate

PAD_TOL = 1e-12


def _register_stream(stream: list[np.ndarray]) -> tuple[list[np.ndarray], np.ndarray]:
    """The checked qubits of a register-mode stream, each a pure state, and
    the first one on the register held after k = 1: 2^(qudit_width(1, 2)
    - 1) = 4 amplitudes."""
    stream = check_stream(stream, 2)
    if any(_is_matrix(q) for q in stream):
        raise InvalidInputError("register mode needs pure qubit states")
    return stream, np.pad(stream[0], (0, 2))


def _register_outcomes(k: int, lam: Partition, vec: np.ndarray, qubit: np.ndarray
                       ) -> list[tuple[int, Partition, float, np.ndarray]]:
    """One Algorithm-2 iteration on the explicit register after k qubits.
    `vec` holds 2^(width-1) amplitudes, width = qudit_width(k, 2), of which
    the leading dim Q^2_lam carry the state and the rest are zero padding.
    The qubit is coupled in by the CG transform, the rearrangement lets the
    leading (L) qubit index j, and each block comes back on top of the
    register kept once L is measured: 2^(width - removal(k, 2)) amplitudes,
    the half itself when L is discarded, else a zeroed 2^width register
    (for j = 1 the step-6 permutation brings the block up)."""
    width = qudit_width(k, 2)
    if 2 * len(vec) != 2 ** width:
        raise NumericalCollapseError(
            f"register of {len(vec)} amplitudes after k={k} qubits, not 2^{width - 1}")
    dimq = dim_unitary(lam)
    if np.max(np.abs(vec[dimq:])) > PAD_TOL:
        raise NumericalCollapseError("padding qubits are not exactly zero")
    kept = 2 ** (width - removal(k, 2))
    t = cg_transform(lam)
    return [(j, target, p, np.pad(sub, (0, kept - len(sub))))
            for j, target, p, sub in _split(t, t._product(vec[:dimq], qubit))]


def register_run(stream: list[np.ndarray], seed: int = 0) -> RunResult:
    """Register-level analogue of run_stream (d = 2, pure states only)."""
    stream, vec = _register_stream(stream)
    rng = make_rng(seed)
    lam, path = one_box(2), []
    for k in range(1, len(stream)):
        outcomes = _register_outcomes(k, lam, vec, stream[k])
        i, _ = _sample([p for _, _, p, _ in outcomes], rng)
        j, lam, p, sub = outcomes[i]
        vec = _normalized(sub, p)
        path.append(j)
    return RunResult(lam=lam, path=LatticePath(tuple(path)), amplitudes=vec)


def register_branch_distribution(stream: list[np.ndarray],
                                 prune: float = DEFAULT_PRUNE) -> BranchDistribution:
    """Exhaustive branch enumeration in register mode, for cross-checking
    the abstract mode's measurement law."""
    stream, root = _register_stream(stream)
    return _enumerate(
        2, len(stream), root,
        lambda k, lam, vec: _register_outcomes(k, lam, vec, stream[k]),
        prune)
