"""Streaming sampler: single steps, trajectories, branch enumeration,
full-state mode and the explicit qubit-register mode."""

import math
from fractions import Fraction

import numpy as np
import pytest

from cg_reference import path_probs
from schurstream import errors
from schurstream.cg import cg_transform
from schurstream.errors import SizeLimitError
from schurstream.gt_basis import enumerate_gt, pattern_weight
from schurstream.oracle import schur_transform, weak_schur_probs
from schurstream.partitions import (LatticePath, Partition, dim_symmetric, one_box,
                                    partitions_of)
from schurstream.resources import qudit_width
from schurstream.sampler import (InvalidInputError, NumericalCollapseError,
                                 _leaf_bytes, branch_distribution,
                                 init_state, make_rng, register_branch_distribution,
                                 register_init, register_run, register_step,
                                 run_full_state, run_stream, step, _couple,
                                 _outcomes)

KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])
MIXED = np.eye(2) / 2


def haar_state(size, rng):
    v = rng.normal(size=size) + 1j * rng.normal(size=size)
    return v / np.linalg.norm(v)


def haar_unitary(d, rng):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_qubit(rng):
    return haar_state(2, rng)


def random_density(size, rng, rank=2):
    a = rng.normal(size=(size, rank)) + 1j * rng.normal(size=(size, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


class TestStep:
    def test_two_zeros_deterministic(self):
        state = init_state(KET0, 2, seed=0)
        state, j, p = step(state, KET0)
        assert j == 0
        assert abs(p - 1.0) < 1e-12
        assert state.lam == Partition((2, 0))

    def test_zero_then_one_is_even_split(self):
        probs = {0: 0, 1: 0}
        for seed in range(200):
            state = init_state(KET0, 2, seed=seed)
            _, j, p = step(state, KET1)
            assert abs(p - 0.5) < 1e-12
            probs[j] += 1
        assert probs[0] > 0 and probs[1] > 0

    def test_mixed_first_step_probabilities(self):
        state = init_state(MIXED, 2, seed=3)
        _, j, p = step(state, MIXED)
        want = {0: 0.75, 1: 0.25}
        assert abs(p - want[j]) < 1e-12

    def test_rejects_unnormalized(self):
        state = init_state(KET0, 2, seed=0)
        with pytest.raises(InvalidInputError):
            step(state, np.array([1.0, 1.0]))

    def test_norm_preserved(self):
        rng = np.random.default_rng(17)
        state = init_state(random_qubit(rng), 2, seed=1)
        for _ in range(6):
            state, _, _ = step(state, random_qubit(rng))
            assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-9
            assert len(state.path) == state.lam.n - 1


class TestInputValidation:
    NON_PSD = np.array([[1.5, 0.0], [0.0, -0.5]])  # Hermitian, trace 1

    def test_non_psd_qudit_rejected(self):
        with pytest.raises(InvalidInputError):
            run_stream([self.NON_PSD] * 3, 2)
        with pytest.raises(InvalidInputError):
            branch_distribution([self.NON_PSD] * 3, 2)
        with pytest.raises(InvalidInputError):
            step(init_state(MIXED, 2), self.NON_PSD)

    def test_non_psd_full_state_rejected(self):
        with pytest.raises(InvalidInputError):
            run_full_state(np.diag([1.5, -0.5, 0.0, 0.0]), 2)

    def test_non_hermitian_full_state_rejected(self):
        rho = np.eye(4, dtype=complex) / 4
        rho[0, 1] = 0.1
        with pytest.raises(InvalidInputError):
            run_full_state(rho, 2)

    def test_psd_not_diagonally_dominant_accepted(self):
        # a pure state whose off-diagonal entry (0.48) exceeds a diagonal
        # one (0.36): the Gershgorin bound fails, the eigenvalues pass
        psi = np.array([0.8, 0.6])
        dist = branch_distribution([np.outer(psi, psi)] * 3, 2)
        assert abs(dist.marginal[Partition((3, 0))] - 1.0) < 1e-12


class TestRunStream:
    def test_symmetric_stream(self):
        res = run_stream([KET0] * 6, 2, seed=42)
        assert res.lam == Partition((6, 0))
        assert res.path == LatticePath((0,) * 5)
        assert str(res.path) == "0,0,0,0,0"

    def test_determinism(self):
        rng = np.random.default_rng(23)
        stream = [random_qubit(rng) for _ in range(5)]
        a = run_stream(stream, 2, seed=9)
        b = run_stream(stream, 2, seed=9)
        assert a.lam == b.lam and a.path == b.path
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_empirical_frequency(self):
        hits = sum(run_stream([KET0, KET1], 2, seed=s).lam == Partition((2, 0))
                   for s in range(4000))
        assert abs(hits / 4000 - 0.5) < 0.03

    def test_early_stop(self):
        rng = np.random.default_rng(29)
        stream = [random_qubit(rng) for _ in range(6)]
        res = run_stream(stream, 2, seed=1, max_steps=3)
        assert res.lam.n == 4
        assert len(res.path.steps) == 3

    def test_empty_stream_rejected(self):
        with pytest.raises(InvalidInputError):
            run_stream([], 2)


class TestBranchDistribution:
    def test_single_branch(self):
        dist = branch_distribution([KET0] * 4, 2)
        assert set(dist.entries) == {(0, 0, 0)}
        assert abs(dist.entries[(0, 0, 0)] - 1.0) < 1e-12

    def test_mixed_qubits_n3(self):
        dist = branch_distribution([MIXED] * 3, 2)
        assert abs(dist.entries[(0, 0)] - 0.5) < 1e-12
        assert abs(dist.entries[(0, 1)] - 0.25) < 1e-12
        assert abs(dist.entries[(1, 0)] - 0.25) < 1e-12
        marg = dist.marginal
        assert abs(marg[Partition((3, 0))] - 0.5) < 1e-12
        assert abs(marg[Partition((2, 1))] - 0.5) < 1e-12

    def test_normalization(self):
        rng = np.random.default_rng(31)
        stream = [random_qubit(rng) for _ in range(5)]
        dist = branch_distribution(stream, 2)
        assert abs(dist.total + dist.pruned - 1.0) < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_oracle_marginal_qubits(self, n):
        rng = np.random.default_rng(100 + n)
        stream = [random_qubit(rng) for _ in range(n)]
        dist = branch_distribution(stream, 2)
        rho = np.eye(1, dtype=complex)
        for q in stream:
            rho = np.kron(rho, np.outer(q, q.conj()))
        su = schur_transform(n, 2)
        oracle = weak_schur_probs(rho, su)
        for lam, p in oracle.items():
            assert abs(dist.marginal.get(lam, 0.0) - p) <= 1e-9

    def test_matches_oracle_per_path_qutrits(self):
        rng = np.random.default_rng(37)
        stream = [haar_state(3, rng) for _ in range(3)]
        dist = branch_distribution(stream, 3)
        rho = np.eye(1, dtype=complex)
        for q in stream:
            rho = np.kron(rho, np.outer(q, q.conj()))
        su = schur_transform(3, 3)
        for (lam, steps), p in path_probs(rho, su).items():
            assert abs(dist.entries.get(steps, 0.0) - p) <= 1e-9

    def test_branch_cap(self, monkeypatch):
        # the leaves held replace the branch cap: 10 mixed qubits have 252
        branch_distribution([MIXED] * 10, 2)  # builds every CG transform
        monkeypatch.setattr(errors, "MEMORY_BUDGET", 3 * _leaf_bytes(10))
        with pytest.raises(SizeLimitError, match="4 leaves"):
            branch_distribution([MIXED] * 10, 2)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(41)
        stream = [random_qubit(rng) for _ in range(4)]
        a = branch_distribution(stream, 2).marginal
        b = branch_distribution(stream[::-1], 2).marginal
        for lam in a:
            assert abs(a[lam] - b.get(lam, 0.0)) <= 1e-9


class TestRunFullState:
    def test_singlet(self):
        vec = np.array([0, 1, -1, 0]) / np.sqrt(2)
        dist = run_full_state(vec, 2)
        assert abs(dist.marginal[Partition((1, 1))] - 1.0) < 1e-12

    def test_ghz3_matches_oracle(self):
        vec = np.zeros(8)
        vec[0] = vec[7] = 1 / np.sqrt(2)
        dist = run_full_state(vec, 2)
        su = schur_transform(3, 2)
        oracle = weak_schur_probs(vec, su)
        for lam, p in oracle.items():
            assert abs(dist.marginal.get(lam, 0.0) - p) <= 1e-9

    def test_haar_4qubit_matches_oracle(self):
        rng = np.random.default_rng(43)
        vec = haar_state(16, rng)
        dist = run_full_state(vec, 2)
        su = schur_transform(4, 2)
        oracle = weak_schur_probs(np.outer(vec, vec.conj()), su)
        for lam, p in oracle.items():
            assert abs(dist.marginal.get(lam, 0.0) - p) <= 1e-9

    def test_unitary_invariance(self):
        rng = np.random.default_rng(47)
        vec = haar_state(16, rng)
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(z)
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        u4 = np.kron(np.kron(u, u), np.kron(u, u))
        a = run_full_state(vec, 2).marginal
        b = run_full_state(u4 @ vec, 2).marginal
        for lam in a:
            assert abs(a[lam] - b.get(lam, 0.0)) <= 1e-8

    def test_product_state_agrees_with_streaming(self):
        rng = np.random.default_rng(53)
        stream = [random_qubit(rng) for _ in range(4)]
        vec = stream[0]
        for q in stream[1:]:
            vec = np.kron(vec, q)
        a = run_full_state(vec, 2)
        b = branch_distribution(stream, 2)
        for steps, p in b.entries.items():
            assert abs(a.entries.get(steps, 0.0) - p) <= 1e-10

    def test_rejects_bad_size(self):
        with pytest.raises(InvalidInputError):
            run_full_state(np.ones(6) / np.sqrt(6), 2)


class TestLeafOrder:
    """`_enumerate` yields the leaves in sorted path order and sums each
    label's marginal in that order, whatever the mode and the pruning."""

    @staticmethod
    def replayed_marginal(dist):
        out = {}
        for steps in sorted(dist.entries):
            lam = LatticePath(steps).endpoint(dist.d)
            out[lam] = out.get(lam, 0.0) + dist.entries[steps]
        return out

    def check(self, dist):
        assert dist.pruned > 0
        assert list(dist.entries) == sorted(dist.entries)
        replayed = self.replayed_marginal(dist)
        assert list(dist.marginal.items()) == list(replayed.items())

    def test_product_mode(self):
        rng = np.random.default_rng(61)
        self.check(branch_distribution([random_qubit(rng) for _ in range(9)], 2,
                                       prune=1e-2))
        self.check(branch_distribution([haar_state(3, rng) for _ in range(5)], 3,
                                       prune=1e-2))

    def test_full_state_mode(self):
        rng = np.random.default_rng(67)
        self.check(run_full_state(haar_state(2 ** 8, rng), 2, prune=1e-2))
        vec = haar_state(3 ** 4, rng)
        self.check(run_full_state(np.outer(vec, vec.conj()), 3, prune=3e-2))

    def test_register_mode(self):
        rng = np.random.default_rng(71)
        self.check(register_branch_distribution(
            [random_qubit(rng) for _ in range(9)], prune=1e-2))


class TestOutcomes:
    """`_outcomes` applies t (x) I_rest on the leading axis by a reshape; a
    kron-padded operator is the reference."""

    @staticmethod
    def kron_reference(t, big, rest):
        op = np.kron(t.matrix, np.eye(rest))
        mixed = big.ndim == 2
        rotated = op @ big @ op.conj().T if mixed else op @ big
        out = []
        for b in t.blocks:
            sl = slice(b.offset * rest, (b.offset + b.dim) * rest)
            out.append((b.j, b.target, rotated[sl, sl] if mixed else rotated[sl]))
        return out

    @pytest.mark.parametrize("d,parts", [(2, (3, 1)), (3, (2, 1, 0))])
    @pytest.mark.parametrize("power", [0, 1, 2])
    @pytest.mark.parametrize("mixed", [False, True])
    def test_matches_kron(self, d, parts, power, mixed):
        rng = np.random.default_rng(73 + 10 * d + power)
        t = cg_transform(Partition(parts))
        rest = d ** power
        big = haar_state(t.size * rest, rng)
        if mixed:
            a = rng.normal(size=(len(big), 3)) + 1j * rng.normal(size=(len(big), 3))
            big = a @ a.conj().T
            big /= np.trace(big).real
        got = _outcomes(t, big)
        want = self.kron_reference(t, big, rest)
        assert [(j, target) for j, target, _, _ in got] == \
            [(j, target) for j, target, _ in want]
        for (_, _, w, sub), (_, _, ref) in zip(got, want):
            assert sub.shape == ref.shape
            assert np.max(np.abs(sub - ref)) <= 1e-15
            ref_w = np.trace(ref).real if mixed else np.vdot(ref, ref).real
            assert abs(w - ref_w) <= 1e-15


class TestCouple:
    """`_couple` broadcasts the product that np.kron forms from the
    promoted factors, bit for bit."""

    @staticmethod
    def promoted(x, mixed):
        return np.outer(x, x.conj()) if mixed and x.ndim == 1 else x

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("state_mixed", [False, True])
    @pytest.mark.parametrize("qudit_mixed", [False, True])
    def test_matches_kron(self, d, state_mixed, qudit_mixed):
        rng = np.random.default_rng(79 + d)
        state, qudit = haar_state(4 * d, rng), haar_state(d, rng)
        if state_mixed:
            state = random_density(len(state), rng)
        if qudit_mixed:
            qudit = random_density(d, rng)
        mixed = state_mixed or qudit_mixed
        want = np.kron(self.promoted(state, mixed), self.promoted(qudit, mixed))
        assert np.array_equal(_couple(state, qudit), want)

    def test_register_vector(self):
        rng = np.random.default_rng(83)
        rs = register_init(random_qubit(rng))
        for _ in range(4):
            rs, _, _ = register_step(rs, random_qubit(rng), make_rng(3))
        amplitudes, qubit = rs.vector[:rs.lam[0] - rs.lam[1] + 1], random_qubit(rng)
        assert np.array_equal(_couple(amplitudes, qubit), np.kron(amplitudes, qubit))


def schur_polynomial(lam, r):
    """s_lam(r) as the sum over the GT patterns of lam of r^weight."""
    return sum(np.prod(r ** np.array(pattern_weight(p))) for p in enumerate_gt(lam))


class TestIidLaw:
    """For rho^(x)n every lattice path to lam has probability s_lam(spec rho)
    (Keyl-Werner), at n beyond the brute-force oracle's reach."""

    @pytest.mark.parametrize("d,n", [(2, 15), (3, 9)])
    def test_every_path_is_a_schur_polynomial(self, d, n):
        rng = np.random.default_rng(89 + d)
        # mixed with I/d, so no path falls under the pruning threshold
        rho = (random_density(d, rng, rank=d) + np.eye(d) / d) / 2
        r = np.linalg.eigvalsh(rho)
        dist = branch_distribution([rho] * n, d)
        assert 0.0 <= dist.pruned <= 1.0
        assert abs(dist.total + dist.pruned - 1.0) <= 1e-12
        assert len(dist.entries) == sum(dim_symmetric(lam)
                                        for lam in partitions_of(n, d))
        for steps, p in dist.entries.items():
            lam = LatticePath(steps).endpoint(d)
            assert abs(p - schur_polynomial(lam, r)) <= n * 1e-15

    @pytest.mark.parametrize("seed", range(5))
    def test_step_is_the_schur_polynomial_ratio(self, seed):
        """Along a trajectory of rho^(x)n each step moves lam to lam+e_j with
        probability s_(lam+e_j)(r)/s_lam(r), with the two-row s_(a,b)(x, y) =
        (xy)^b (x^(m+1) - y^(m+1))/(x - y), m = a - b, in exact fractions."""
        def s2(lam, x, y):
            a, b = lam.parts
            return (x * y) ** b * (x ** (a - b + 1) - y ** (a - b + 1)) / (x - y)

        n, spectrum = 201, (Fraction(41, 50), Fraction(9, 50))
        u = haar_unitary(2, np.random.default_rng(seed))
        rho = u @ np.diag([float(r) for r in spectrum]) @ u.conj().T
        state = init_state(rho, 2, seed=seed)
        for _ in range(n - 1):
            lam = state.lam
            state, _, p = step(state, rho)
            want = float(s2(state.lam, *spectrum) / s2(lam, *spectrum))
            assert abs(p - want) <= n * 1e-16 * want


class TestRegisterMode:
    def test_figure_layout_k3(self):
        # at k=3, lambda=(3,0): CG blocks are 5- and 3-dimensional, laid out
        # as top/bottom halves of a 16-dim register; the leading qubit
        # indexes the measured branch
        rng = np.random.default_rng(59)
        stream = [random_qubit(rng) for _ in range(4)]
        rs = register_init(stream[0])
        gen = make_rng(5)
        forced = [KET0, KET0]  # drive lambda to (3,0)
        for q in forced:
            rs, _, _ = register_step(rs, q, gen)
        while rs.lam != Partition((3, 0)):
            rs = register_init(KET0)
            for q in forced:
                rs, _, _ = register_step(rs, q, gen)
        assert rs.k == 3
        assert qudit_width(3, 2) == 4  # 16-dim register during the step
        rs, j, _ = register_step(rs, stream[3], gen)
        ev = rs.events[-1]
        assert ev.width == 4
        if j == 1:
            assert rs.lam == Partition((3, 1))

    def test_width_sequence(self):
        res = register_run([KET0] * 10, seed=0)
        widths = [e.width for e in res.events]
        assert widths == [math.ceil(math.log2(2 * k + 4)) for k in range(1, 10)]

    def test_removal_rule(self):
        res = register_run([KET0] * 12, seed=0)
        for e in res.events:
            want = math.ceil(math.log2(2 * e.k + 4)) != math.ceil(math.log2(e.k + 3))
            assert e.removal == want

    def test_matches_abstract_mode(self):
        rng = np.random.default_rng(61)
        for trial in range(5):
            stream = [random_qubit(rng) for _ in range(5)]
            a = branch_distribution(stream, 2)
            b = register_branch_distribution(stream)
            for steps, p in a.entries.items():
                assert abs(b.entries.get(steps, 0.0) - p) <= 1e-10

    def test_trajectory_matches_abstract_with_same_seed(self):
        rng = np.random.default_rng(67)
        stream = [random_qubit(rng) for _ in range(6)]
        a = run_stream(stream, 2, seed=3)
        b = register_run(stream, seed=3)
        assert a.lam == b.lam and a.path == b.path

    def test_rejects_density_matrices(self):
        with pytest.raises(InvalidInputError):
            register_init(MIXED)

    def test_padding_assertion(self):
        rs = register_init(KET0)
        rs.vector[3] = 0.5
        with pytest.raises(NumericalCollapseError):
            register_step(rs, KET0, make_rng(0))


class TestEarlyStopConsistency:
    def test_truncated_stream_equals_prefix(self):
        rng = np.random.default_rng(71)
        stream = [random_qubit(rng) for _ in range(6)]
        full_prefix = branch_distribution(stream[:4], 2)
        # marginal over the first 3 steps of the 6-qudit enumeration
        whole = branch_distribution(stream, 2)
        prefix_mass: dict = {}
        for steps, p in whole.entries.items():
            key = steps[:3]
            prefix_mass[key] = prefix_mass.get(key, 0.0) + p
        for steps, p in full_prefix.entries.items():
            assert abs(prefix_mass.get(steps, 0.0) - p) <= 1e-9
