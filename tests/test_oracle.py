"""Brute-force Schur transform and projector algebra on small systems."""

import numpy as np
import pytest

from cg_reference import (copy_projector, path_probs, perm_rep, rows_for_path,
                          super_cg, tensor_rep)
from schurstream import errors
from schurstream.cg import cg_qubit
from schurstream.errors import InvalidInputError, SizeLimitError
from schurstream.oracle import (_schur_diagonal, isotypic_projector, schur_transform,
                                weak_schur_probs)
from schurstream.partitions import (LatticePath, Partition, dim_symmetric,
                                    dim_unitary, enumerate_paths, one_box,
                                    partitions_of, schur_weyl_weight)


def haar_unitary(d, rng):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestSuperCG:
    def test_first_step_is_plain_cg(self):
        assert np.allclose(super_cg(1, 2), cg_qubit(one_box(2)).matrix)

    def test_second_step_block_sizes(self):
        m = super_cg(2, 2)
        # one 6-dim block for (2,0), one 2-dim block for (1,1)
        assert m.shape == (8, 8)
        assert np.max(np.abs(m[:6, 6:])) == 0.0
        assert np.max(np.abs(m[6:, :6])) == 0.0

    @pytest.mark.parametrize("k,d", [(1, 2), (2, 2), (3, 2), (4, 2), (1, 3), (2, 3)])
    def test_unitary(self, k, d):
        m = super_cg(k, d)
        assert np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) <= 1e-10

    @pytest.mark.parametrize("k,d", [(k, 2) for k in range(1, 10)] +
                             [(k, 3) for k in range(2, 6)] + [(3, 4)])
    def test_schur_transform_is_the_super_cg_product(self, k, d):
        """U_Sch(k+1) = S(k) (U_Sch(k) (x) I_d) to rounding."""
        want = super_cg(k, d) @ np.kron(schur_transform(k, d).matrix, np.eye(d))
        assert np.max(np.abs(schur_transform(k + 1, d).matrix - want)) <= 1e-15


class TestSchurTransform:
    def test_n2_symmetric_antisymmetric_split(self):
        su = schur_transform(2, 2)
        sym = su.matrix[su.rows_for(Partition((2, 0)))]
        anti = su.matrix[su.rows_for(Partition((1, 1)))]
        swap = perm_rep((1, 0), 2, 2)
        p_sym = (np.eye(4) + swap) / 2
        p_anti = (np.eye(4) - swap) / 2
        assert np.max(np.abs(sym.conj().T @ sym - p_sym)) < 1e-12
        assert np.max(np.abs(anti.conj().T @ anti - p_anti)) < 1e-12

    def test_row_counts(self):
        su = schur_transform(3, 2)
        assert len(su.rows_for(Partition((3, 0)))) == 4
        assert len(su.rows_for(Partition((2, 1)))) == 4

    @pytest.mark.parametrize("n,d", [(2, 2), (4, 2), (6, 2), (2, 3), (4, 3)])
    def test_row_bookkeeping(self, n, d):
        su = schur_transform(n, d)
        for lam in partitions_of(n, d):
            assert len(su.rows_for(lam)) == \
                dim_symmetric(lam) * dim_unitary(lam)
            for path in enumerate_paths(lam):
                assert len(rows_for_path(su, lam, path)) == dim_unitary(lam)

    def test_unitarity(self):
        for n, d in [(5, 2), (3, 3)]:
            su = schur_transform(n, d)
            dev = np.max(np.abs(su.matrix.conj().T @ su.matrix -
                                np.eye(d ** n)))
            assert dev <= 1e-10

    def test_size_guardrail(self, monkeypatch):
        with pytest.raises(SizeLimitError):
            schur_transform(12, 2)
        with pytest.raises(SizeLimitError):
            schur_transform(4, 2, limit=3)
        monkeypatch.setattr(errors, "MEMORY_BUDGET", 0)
        schur_transform(4, 2, limit=4)  # explicit override allowed


class TestProjectors:
    def test_singlet_rank_one(self):
        su = schur_transform(2, 2)
        p = isotypic_projector(su, Partition((1, 1)))
        assert abs(np.trace(p) - 1) < 1e-12

    def test_symmetric_rank_three(self):
        su = schur_transform(2, 2)
        p = isotypic_projector(su, Partition((2, 0)))
        assert abs(np.trace(p) - 3) < 1e-12

    def test_algebra(self):
        su = schur_transform(4, 2)
        projs = [isotypic_projector(su, lam) for lam in partitions_of(4, 2)]
        total = sum(projs)
        assert np.max(np.abs(total - np.eye(16))) <= 1e-10
        for i, p in enumerate(projs):
            assert np.max(np.abs(p @ p - p)) <= 1e-9
            assert np.max(np.abs(p - p.conj().T)) <= 1e-9
            for q in projs[i + 1:]:
                assert np.max(np.abs(p @ q)) <= 1e-9

    def test_copy_projectors_sum_to_isotypic(self):
        su = schur_transform(4, 2)
        for lam in partitions_of(4, 2):
            total = sum(copy_projector(su, lam, p) for p in enumerate_paths(lam))
            assert np.max(np.abs(total - isotypic_projector(su, lam))) <= 1e-10

    def test_unknown_label_rejected(self):
        su = schur_transform(3, 2)
        with pytest.raises(KeyError):
            su.rows_for(Partition((1, 1)))


class TestWeakSchurProbs:
    def test_all_zeros_state(self):
        su = schur_transform(4, 2)
        vec = np.zeros(16)
        vec[0] = 1.0
        probs = weak_schur_probs(vec, su)
        assert abs(probs[Partition((4, 0))] - 1.0) < 1e-12

    def test_maximally_mixed(self):
        su = schur_transform(3, 2)
        probs = weak_schur_probs(np.eye(8) / 8, su)
        for lam, p in probs.items():
            assert abs(p - float(schur_weyl_weight(lam))) < 1e-12

    def test_non_psd_rejected(self):
        su = schur_transform(2, 2)
        with pytest.raises(InvalidInputError):
            weak_schur_probs(np.diag([1.5, -0.5, 0.0, 0.0]), su)
        with pytest.raises(InvalidInputError):
            path_probs(np.diag([1.5, -0.5, 0.0, 0.0]), su)

    def test_singlet_pair(self):
        su = schur_transform(4, 2)
        singlet = np.zeros(4)
        singlet[1], singlet[2] = 1 / np.sqrt(2), -1 / np.sqrt(2)
        vec = np.kron(singlet, singlet)
        probs = weak_schur_probs(vec, su)
        # total spin zero lives entirely in the (2,2) component
        assert abs(probs[Partition((2, 2))] - 1.0) < 1e-10

    @pytest.mark.parametrize("n,d", [(8, 2), (5, 3)])
    def test_elementwise_trace_equals_product_trace(self, n, d):
        """The standard-basis route sums rho * P^T elementwise; it equals
        tr(rho P) through the dense product to rounding."""
        rng = np.random.default_rng(n)
        size = d ** n
        a = rng.normal(size=(size, 4)) + 1j * rng.normal(size=(size, 4))
        su = schur_transform(n, d)
        for rho in (a @ a.conj().T / np.trace(a @ a.conj().T), np.eye(size) / size):
            for lam, p in weak_schur_probs(rho, su).items():
                want = np.trace(rho @ isotypic_projector(su, lam)).real
                assert abs(p - want) <= 1e-15

    @pytest.mark.parametrize("n,d", [(8, 2), (5, 3)])
    def test_schur_diagonal_is_the_two_product_diagonal(self, n, d):
        """diag(U rho U^dag) by one product equals the diagonal of the two
        dense products to rounding."""
        rng = np.random.default_rng(n + d)
        size = d ** n
        a = rng.normal(size=(size, 4)) + 1j * rng.normal(size=(size, 4))
        rho = a @ a.conj().T / np.trace(a @ a.conj().T)
        su = schur_transform(n, d)
        u = su.matrix
        want = np.real(np.diag(u @ rho @ u.conj().T))
        assert np.max(np.abs(_schur_diagonal(rho, su) - want)) <= 1e-15


class TestGroupActions:
    def test_identity_perm(self):
        assert np.array_equal(perm_rep((0, 1, 2), 3, 2), np.eye(8))

    def test_swap_on_01(self):
        swap = perm_rep((1, 0), 2, 2)
        vec = np.zeros(4)
        vec[0b01] = 1.0
        out = swap @ vec
        assert out[0b10] == 1.0

    def test_commutators_vanish(self):
        su = schur_transform(4, 2)
        rng = np.random.default_rng(13)
        sigma = tuple(rng.permutation(4))
        u = haar_unitary(2, rng)
        p_sigma = perm_rep(sigma, 4, 2)
        u_n = tensor_rep(u, 4)
        for lam in partitions_of(4, 2):
            proj = isotypic_projector(su, lam)
            assert np.max(np.abs(proj @ p_sigma - p_sigma @ proj)) <= 1e-8
            assert np.max(np.abs(proj @ u_n - u_n @ proj)) <= 1e-8

    def test_rejects_bad_permutation(self):
        with pytest.raises(ValueError):
            perm_rep((0, 0, 1), 3, 2)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            tensor_rep(np.array([[1.0, 1.0], [0.0, 1.0]]), 2)
