"""The CG-free oracle against the Schur-transform reference, and the
reference's own transform and projector algebra, on small systems."""

import numpy as np
import pytest

from cg_reference import (SchurUnitary, _schur_diagonal, copy_projector, enumerate_paths,
                          gt_patterns, haar_state, haar_unitary, isotypic_projector,
                          path_probs, pattern_weight, perm_rep, rows_for, rows_for_path,
                          schur_transform, super_cg, tensor_rep, two_route_probs)
from schurstream import oracle
from schurstream.cg import cg_qubit
from schurstream.errors import InvalidInputError, SizeLimitError
from schurstream.oracle import weak_schur_probs
from schurstream.partitions import (Partition, dim_symmetric, dim_unitary, one_box,
                                    partitions_of, schur_weyl_weight)


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
        sym = su.matrix[rows_for(su, Partition((2, 0)))]
        anti = su.matrix[rows_for(su, Partition((1, 1)))]
        swap = perm_rep((1, 0), 2, 2)
        p_sym = (np.eye(4) + swap) / 2
        p_anti = (np.eye(4) - swap) / 2
        assert np.max(np.abs(sym.conj().T @ sym - p_sym)) < 1e-12
        assert np.max(np.abs(anti.conj().T @ anti - p_anti)) < 1e-12

    def test_row_counts(self):
        su = schur_transform(3, 2)
        assert len(rows_for(su, Partition((3, 0)))) == 4
        assert len(rows_for(su, Partition((2, 1)))) == 4

    @pytest.mark.parametrize("n,d", [(2, 2), (4, 2), (6, 2), (2, 3), (4, 3)])
    def test_row_bookkeeping(self, n, d):
        su = schur_transform(n, d)
        for lam in partitions_of(n, d):
            assert len(rows_for(su, lam)) == \
                dim_symmetric(lam) * dim_unitary(lam)
            for path in enumerate_paths(lam):
                assert len(rows_for_path(su, lam, path)) == dim_unitary(lam)

    def test_unitarity(self):
        for n, d in [(5, 2), (3, 3)]:
            su = schur_transform(n, d)
            dev = np.max(np.abs(su.matrix.conj().T @ su.matrix -
                                np.eye(d ** n)))
            assert dev <= 1e-10

    @pytest.mark.parametrize("n,d", [(8, 2), (5, 3), (4, 4)])
    def test_matrix_is_real(self, n, d):
        assert schur_transform(n, d).matrix.dtype == np.float64

    def test_size_guardrail(self):
        with pytest.raises(SizeLimitError):
            schur_transform(13, 2)


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
            rows_for(su, Partition((1, 1)))


class TestWeakSchurProbs:
    def test_all_zeros_state(self):
        vec = np.zeros(16)
        vec[0] = 1.0
        probs = weak_schur_probs(vec, 4, 2)
        assert abs(probs[Partition((4, 0))] - 1.0) < 1e-12

    def test_maximally_mixed(self):
        probs = weak_schur_probs(np.eye(8) / 8, 3, 2)
        for lam, p in probs.items():
            assert abs(p - float(schur_weyl_weight(lam))) < 1e-12

    def test_non_psd_rejected(self):
        su = schur_transform(2, 2)
        with pytest.raises(InvalidInputError):
            weak_schur_probs(np.diag([1.5, -0.5, 0.0, 0.0]), 2, 2)
        with pytest.raises(InvalidInputError):
            two_route_probs(np.diag([1.5, -0.5, 0.0, 0.0]), su)
        with pytest.raises(InvalidInputError):
            path_probs(np.diag([1.5, -0.5, 0.0, 0.0]), su)

    def test_singlet_pair(self):
        singlet = np.zeros(4)
        singlet[1], singlet[2] = 1 / np.sqrt(2), -1 / np.sqrt(2)
        vec = np.kron(singlet, singlet)
        probs = weak_schur_probs(vec, 4, 2)
        # total spin zero lives entirely in the (2,2) component
        assert abs(probs[Partition((2, 2))] - 1.0) < 1e-10

    @pytest.mark.parametrize("n,d", [(8, 2), (5, 3)])
    def test_elementwise_trace_equals_product_trace(self, n, d):
        """The standard-basis route sums rho * P^T elementwise, and the
        oracle contracts rho with powers of X_n; each equals tr(rho P)
        through the dense product to rounding."""
        rng = np.random.default_rng(n)
        size = d ** n
        a = rng.normal(size=(size, 4)) + 1j * rng.normal(size=(size, 4))
        su = schur_transform(n, d)
        for rho in (a @ a.conj().T / np.trace(a @ a.conj().T), np.eye(size) / size):
            for lam, p in [*two_route_probs(rho, su).items(),
                           *weak_schur_probs(rho, n, d).items()]:
                want = np.trace(rho @ isotypic_projector(su, lam)).real
                assert abs(p - want) <= 1e-15

    @pytest.mark.parametrize("n,d", [(6, 2), (4, 3)])
    def test_imaginary_part_of_rho_drops_out(self, n, d):
        """On a Hermitian rho whose off-diagonal entries are purely
        imaginary, the real-arithmetic routes and the oracle still give
        tr(rho P)."""
        rng = np.random.default_rng(10 * n + d)
        size = d ** n
        b = rng.normal(size=(size, size))
        anti = b - b.T
        rho = (np.eye(size) + 1j * anti / np.linalg.norm(anti, 2)) / size
        su = schur_transform(n, d)
        for lam, p in [*two_route_probs(rho, su).items(), *weak_schur_probs(rho, n, d).items()]:
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


# every (n, d) at which the tests build U: the super-CG products, the
# acceptance suite, the sampler comparisons and the weight-block checks
U_SIZES = ([(n, 2) for n in range(1, 11)] + [(n, 3) for n in range(1, 7)]
           + [(n, 4) for n in range(1, 5)])


def random_density(size, rng, real):
    a = rng.normal(size=(size, size))
    if not real:
        a = a + 1j * rng.normal(size=(size, size))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


class TestJucysMurphyOracle:
    @pytest.mark.parametrize("n,d", U_SIZES)
    def test_equals_the_two_route_computation(self, n, d):
        """The CG-free oracle equals the Schur-transform reference's two
        routes within 1e-10: on I/D, on a Haar vector, and, to D = 729, on
        random full-rank real and complex density matrices."""
        rng = np.random.default_rng(1000 * d + n)
        size = d ** n
        su = schur_transform(n, d)
        states = [np.eye(size) / size, haar_state(size, rng)]
        if size <= 729:
            states += [random_density(size, rng, real=True),
                       random_density(size, rng, real=False)]
        for rho in states:
            want, got = two_route_probs(rho, su), weak_schur_probs(rho, n, d)
            assert list(got) == list(want) == partitions_of(n, d)
            assert max(abs(got[lam] - want[lam]) for lam in want) <= 1e-10

    def test_a_corrupted_content_is_refused(self, monkeypatch):
        """One wrong content, row 1's of (2,1), makes two Lagrange
        polynomials that are not projectors on Pi_(2,1) (x) I; the sum of the
        level-4 projectors is still the identity, so only the trace check
        refuses it.  Without the check, the marginal is wrong and sums to 1."""
        addable = oracle._addable

        def corrupted(mu):
            contents = addable(mu)
            if mu == Partition((2, 1)):
                contents[1] -= 1
            return contents

        monkeypatch.setattr(oracle, "_addable", corrupted)
        mixed = np.eye(32) / 32
        with pytest.raises(AssertionError, match=r"^level 4: the projector of 3,1 has trace"):
            weak_schur_probs(mixed, 5, 2)
        monkeypatch.setattr(oracle, "_check_traces", lambda *args: None)
        wrong = weak_schur_probs(mixed, 5, 2)
        assert abs(sum(wrong.values()) - 1.0) <= 1e-12
        assert max(abs(p - float(schur_weyl_weight(lam))) for lam, p in wrong.items()) > 0.01

    @pytest.mark.parametrize("kind", ["density matrix", "vector"])
    def test_a_nan_total_is_refused(self, kind):
        """check_state refuses a NaN before the oracle runs; the oracle's
        body, given one past it, refuses the NaN total it makes rather than
        return NaN probabilities."""
        if kind == "vector":
            state = np.full(8, 8 ** -0.5)
            state[3] = np.nan
        else:
            state = np.eye(8) / 8
            state[1, 2] = np.nan
        with pytest.raises(AssertionError, match="^probabilities sum to nan$"):
            oracle._probs(state, 3, 2)

    @pytest.mark.parametrize("n,d", [(1, 2), (1, 1000), (2, 40)])
    def test_one_and_two_copies(self, n, d):
        """One copy is one label, of probability tr rho; two are the
        symmetric and antisymmetric parts, (1 +- tr(rho F))/2 with F the
        swap, here of a product state."""
        rng = np.random.default_rng(d)
        a, b = haar_state(d, rng), haar_state(d, rng)
        state = a if n == 1 else np.kron(a, b)
        probs = weak_schur_probs(state, n, d)
        if n == 1:
            assert probs == {one_box(d): pytest.approx(1.0, abs=1e-12)}
        else:
            overlap = abs(np.vdot(a, b)) ** 2
            sym = Partition((2,) + (0,) * (d - 1))
            anti = Partition((1, 1) + (0,) * (d - 2))
            assert abs(probs[sym] - (1 + overlap) / 2) <= 1e-12
            assert abs(probs[anti] - (1 - overlap) / 2) <= 1e-12


def letter_counts(index, n, d):
    """How often each letter a < d appears in basis state `index` of n qudits."""
    digits = np.base_repr(index, d).zfill(n)
    return tuple(digits.count(str(a)) for a in range(d))


def full_rank_density(size, rng):
    """A random full-rank complex density matrix: every entry is nonzero,
    so rho holds coherences between every pair of weight blocks."""
    a = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


class TestWeightBlocks:
    @pytest.mark.parametrize("n,d", [(8, 2), (4, 3), (3, 4)])
    def test_blocked_routes_equal_the_dense_two_route_reference(self, n, d):
        """Both routes, run a weight block at a time, give what the dense
        D x D products give: tr(rho Pi^Std_lam) and diag(U rho U^T)."""
        rng = np.random.default_rng(100 * n + d)
        size = d ** n
        rho = full_rank_density(size, rng)
        su = schur_transform(n, d)
        u = su.matrix
        want = np.real(np.diag(u @ rho @ u.T))
        assert np.max(np.abs(_schur_diagonal(rho, su) - want)) <= 1e-15
        for lam, p in two_route_probs(rho, su).items():
            assert abs(p - np.trace(rho @ isotypic_projector(su, lam)).real) <= 1e-15

    @pytest.mark.parametrize("n,d", [(8, 2), (4, 3)])
    def test_vector_equals_its_density_matrix(self, n, d):
        rng = np.random.default_rng(n + 10 * d)
        size = d ** n
        v = rng.normal(size=size) + 1j * rng.normal(size=size)
        v /= np.linalg.norm(v)
        su = schur_transform(n, d)
        rho = np.outer(v, v.conj())
        assert np.max(np.abs(_schur_diagonal(v, su) - _schur_diagonal(rho, su))) <= 1e-15
        pure, mixed = two_route_probs(v, su), two_route_probs(rho, su)
        assert all(abs(pure[lam] - mixed[lam]) <= 1e-15 for lam in mixed)

    @pytest.mark.parametrize("n,d", [(4, 2), (3, 3)])
    def test_a_nonzero_outside_its_weight_block_is_refused(self, n, d):
        """One entry of U moved to a column of another weight, in its own
        row, keeps U's nonzero count and is refused."""
        su = schur_transform(n, d)
        matrix = su.matrix.copy()
        r, c = np.argwhere(matrix != 0)[1]
        other = next(k for k in range(d ** n)
                     if letter_counts(k, n, d) != letter_counts(c, n, d))
        matrix[r, other], matrix[r, c] = matrix[r, c], 0.0
        moved = SchurUnitary(matrix=matrix, sectors=su.sectors)
        mixed = np.eye(d ** n) / d ** n
        with pytest.raises(AssertionError, match="^U_Sch has 1 nonzeros outside its weight"):
            two_route_probs(mixed, moved)
        with pytest.raises(AssertionError, match="outside its weight blocks"):
            _schur_diagonal(mixed, moved)

    @pytest.mark.parametrize("n,d", [(6, 2), (4, 3), (3, 4), (1, 3)])
    def test_row_weight_is_the_letter_count_of_its_columns(self, n, d):
        """Each row's GT weight, read off the reference patterns, counts
        the letters of every basis state its row of U touches."""
        su = schur_transform(n, d)
        weight = {}
        for s in su.sectors:
            for i, pat in enumerate(gt_patterns(s.lam)):
                weight[s.offset + i] = pattern_weight(pat)
        for r, c in np.argwhere(su.matrix != 0):
            assert weight[r] == letter_counts(c, n, d)
        blocks = su.weight_blocks
        assert sorted(np.concatenate([r for r, _, _ in blocks])) == list(range(d ** n))
        assert sorted(np.concatenate([c for _, c, _ in blocks])) == list(range(d ** n))


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
