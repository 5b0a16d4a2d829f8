"""The state check reads a density matrix a block of rows at a time: its
verdicts and messages are those of the whole-array check kept below, at
sizes of one block and of several (with a partial last block), and its
temporaries stay near 1 MiB at any size.  A vector's check takes one
reduction, and still names a non-finite entry before any other fault."""

import tracemalloc

import numpy as np
import pytest

from schurstream.errors import (STATE_TOL, InvalidInputError, NumericalCollapseError,
                                _row_blocks, check_state)
from schurstream.partitions import Partition
from schurstream.sampler import StreamState


def whole_array_check(state, dim):
    """The check as it read before it went by blocks of rows: every
    temporary the size of the whole matrix."""
    state = np.asarray(state, dtype=complex)
    if not np.isfinite(state).all():
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
    radii = np.sum(np.abs(state), axis=1) - np.abs(state.diagonal())
    if np.min(state.diagonal().real - radii) < -STATE_TOL:
        try:
            np.linalg.cholesky(state + STATE_TOL * np.eye(dim))
        except np.linalg.LinAlgError:
            raise InvalidInputError("density matrix not positive semidefinite") from None
    return state


def check_kept_real(state, dim):
    return check_state(state, dim, keep_real=True)


def verdict(check, state, dim):
    try:
        check(state, dim)
    except InvalidInputError as e:
        return str(e)
    return "ok"


def off_hermitian_entries(dim):
    """(i, j) pairs, i != j: in the first row, at each side of the first
    block edge, in the last row, and with rows in different blocks."""
    blocks = _row_blocks(dim)
    edge = blocks[1].start if len(blocks) > 1 else dim
    far = blocks[-1].start
    pairs = [(0, dim - 1), (0, 1), (edge - 1, 0), (edge, 0), (edge - 1, edge),
             (dim - 1, 0), (dim - 1, dim - 2), (1, far), (far, 1)]
    return sorted({(i, j) for i, j in pairs if 0 <= i < dim and 0 <= j < dim and i != j})


def cases(dim):
    """(name, matrix) pairs that reach every verdict of the check."""
    rng = np.random.default_rng(dim)
    mixed = np.eye(dim) / dim
    out = [("I/D float", mixed), ("I/D complex", mixed.astype(complex)),
           ("trace off", mixed * 1.01)]
    for i, j in off_hermitian_entries(dim):
        for delta in (2e-9, 2e-9j, 0.5e-9):
            rho = mixed.astype(complex)
            rho[i, j] += delta
            out.append((f"({i}, {j}) + {delta}", rho))
    for i, j in [(dim - 1, dim - 1), (0, dim - 1), (dim // 2, 0)]:
        for bad in (np.nan, np.inf, complex(0, -np.inf)):
            rho = mixed.astype(complex)
            rho[i, j] = bad
            out.append((f"({i}, {j}) = {bad}", rho))
    if dim > 1:
        # rows 0 and 1 carry an eigenvalue 1/dim - 2/dim below zero: the
        # Gershgorin discs and the Cholesky factor both fail
        rho = mixed.copy()
        rho[0, 1] = rho[1, 0] = 2 / dim
        out.append(("not PSD", rho))
        # a pure state fails the discs, and its Cholesky factor passes
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        out.append(("pure", np.outer(v, v.conj())))
    out += [("one size over", np.eye(dim + 1) / (dim + 1)),
            ("not square", np.ones((dim, dim + 1)) / dim),
            ("not square, NaN", np.full((dim, dim + 1), np.nan))]
    return out


@pytest.mark.parametrize("dim", [1, 2, 1000, 1024])
def test_verdicts_match_the_whole_array_check(dim):
    """Equal verdicts and messages on one block (dim 1, 2) and on several,
    whose last is partial at dim 1000."""
    if dim >= 1000:
        assert len(_row_blocks(dim)) > 2
        assert (dim % _row_blocks(dim)[0].stop != 0) == (dim == 1000)
    seen = set()
    for name, rho in cases(dim):
        want = verdict(whole_array_check, rho, dim)
        assert verdict(check_state, rho, dim) == want, name
        seen.add(want)
    if dim > 1:
        assert {"ok", "state has a non-finite entry", "density matrix trace != 1",
                "density matrix not Hermitian",
                "density matrix not positive semidefinite"} <= seen


@pytest.mark.parametrize("dim", [2, 1000])
def test_a_real_input_kept_real_gets_the_same_verdicts_and_stays_as_it_was(dim):
    """Every case whose entries are all real, checked as float64, gets the
    whole-array verdict and is left unchanged: a real array's .conj() is
    the array itself, so a subtraction into it would overwrite the input."""
    seen = set()
    for name, rho in cases(dim):
        if np.iscomplexobj(rho) and rho.imag.any():
            continue
        real, before = np.array(rho.real), np.array(rho.real)
        want = verdict(whole_array_check, real, dim)
        assert verdict(check_kept_real, real, dim) == want, name
        assert np.array_equal(real, before, equal_nan=True), name
        seen.add(want)
    assert {"ok", "state has a non-finite entry", "density matrix trace != 1",
            "density matrix not Hermitian",
            "density matrix not positive semidefinite"} <= seen
    mixed = np.eye(dim) / dim
    assert check_kept_real(mixed, dim).dtype == np.float64
    assert check_state(mixed, dim).dtype == np.complex128


def test_an_overflowing_row_sum_is_not_a_non_finite_entry():
    """Finite entries near the float limit make the row sums infinite;
    the check then looks at the entries, and reports the trace."""
    rho = np.eye(4, dtype=complex) / 4
    rho[1, 2] = rho[2, 1] = 1e308
    rho[1, 3] = rho[3, 1] = 1e308
    rho[0, 0] = 2.0
    assert verdict(check_state, rho, 4) == "density matrix trace != 1"
    assert verdict(whole_array_check, rho, 4) == "density matrix trace != 1"


def traced_added(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_temporaries_stay_near_one_mebibyte():
    """At D = 1024 a complex input adds at most 2 MiB; a float input adds
    its complex copy, 16 D^2, and at most 2 MiB beside it, unless it is
    kept real."""
    dim = 1024
    mixed = np.eye(dim) / dim
    assert traced_added(check_state, mixed.astype(complex), dim) <= 2 << 20
    assert traced_added(check_state, mixed, dim) <= 16 * dim * dim + (2 << 20)
    assert traced_added(check_kept_real, mixed, dim) <= 2 << 20


@pytest.mark.parametrize("vector,dim,says", [
    ([np.nan, 0], 2, "state has a non-finite entry"),
    ([np.inf, 0], 2, "state has a non-finite entry"),
    ([complex(0.6, np.nan), 0.8], 2, "state has a non-finite entry"),
    ([1e200, 0], 2, "state vector not normalized"),
    ([np.nan, 1, 0], 2, "state has a non-finite entry"),
    ([1, 0, 0], 2, "state length 3 != 2"),
    ([0.6, 0.8j * (1 + 1e-8)], 2, "state vector not normalized"),
    ([0.6, 0.8j], 2, "ok"),
])
def test_vector_messages(vector, dim, says):
    assert verdict(check_state, np.array(vector), dim) == says


@pytest.mark.parametrize("amplitudes,drifted", [
    ([0.6, 0.8j], False), ([0.6, 0.8j * (1 + 2e-9)], True), ([1e200, 0], True)])
def test_stream_state_norm_check(amplitudes, drifted):
    state = StreamState(lam=Partition((1, 0)), amplitudes=np.array(amplitudes, dtype=complex))
    if drifted:
        with pytest.raises(NumericalCollapseError, match="^state norm drifted from 1$"):
            state.check()
    else:
        state.check()
