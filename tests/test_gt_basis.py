"""Gelfand-Tsetlin bases and U(d) generator matrix elements."""

import numpy as np
import pytest

from cg_reference import (build_irrep, casimir2, gt_patterns, haar_unitary,
                          irrep_unitary, pattern_weight)
from schurstream.gt_basis import enumerate_gt
from schurstream.partitions import (Partition, add_box, dim_unitary, one_box,
                                    partitions_of, valid_rows)


class TestEnumerateGT:
    def test_fundamental(self):
        pats = enumerate_gt(one_box(2))
        assert pats.tolist() == [[1, 0, 1], [1, 0, 0]]

    def test_3_1_has_three_patterns(self):
        assert len(enumerate_gt(Partition((3, 1)))) == 3

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_count_matches_dimension(self, d):
        for n in range(1, 9 if d == 2 else 6):
            for lam in partitions_of(n, d):
                assert len(enumerate_gt(lam)) == dim_unitary(lam)

    def test_interlacing(self):
        for flat in enumerate_gt(Partition((3, 2, 1))).tolist():
            pat = [flat[:3], flat[3:5], flat[5:]]
            for k in range(len(pat) - 1):
                above, below = pat[k], pat[k + 1]
                for i, b in enumerate(below):
                    assert above[i] >= b >= above[i + 1]

    def test_descending_order(self):
        for lam in partitions_of(4, 3):
            flat = enumerate_gt(lam).tolist()
            assert flat == sorted(flat, reverse=True)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_equals_tuple_reference(self, d):
        """Row for row the patterns of the itertools reference, for every
        lam with at most 8 boxes."""
        for n in range(9):
            for lam in partitions_of(n, d) if n else [Partition((0,) * d)]:
                pats = enumerate_gt(lam)
                assert pats.dtype == np.int64
                assert pats.tolist() == [list(sum(p, ())) for p in gt_patterns(lam)], lam


class TestWeights:
    def test_weight_sums_equal_box_count(self):
        for lam in partitions_of(4, 3):
            for pat in gt_patterns(lam):
                assert sum(pattern_weight(pat)) == 4

    def test_diagonal_generators_are_weights(self):
        rep = build_irrep(Partition((2, 1, 0)))
        for a in range(3):
            diag = rep.diagonal(a)
            assert np.allclose(diag, np.diag(np.diag(diag)))
            assert np.allclose(np.diag(diag),
                               [w[a] for w in rep.weights])


class TestBuildIrrep:
    def test_fundamental_raising(self):
        rep = build_irrep(one_box(2))
        assert np.allclose(rep.raising[0], [[0, 1], [0, 0]])

    def test_hermiticity_pairing(self):
        rep = build_irrep(Partition((3, 1, 0)))
        for a in range(3):
            for b in range(3):
                e, f = rep.generator(a, b), rep.generator(b, a)
                assert np.max(np.abs(e.conj().T - f)) < 1e-12

    def test_commutation_relations_sampled(self):
        rep = build_irrep(Partition((2, 1, 0, 0)))
        rng = np.random.default_rng(3)
        eye = np.eye(rep.dim)
        for _ in range(10):
            a, b, c, e = rng.integers(0, 4, size=4)
            x, y = rep.generator(a, b), rep.generator(c, e)
            comm = x @ y - y @ x
            want = (b == c) * rep.generator(a, e) - (e == a) * rep.generator(c, b)
            want = want if isinstance(want, np.ndarray) else want * eye
            assert np.max(np.abs(comm - want)) < 1e-10

    def test_lowering_elements_non_negative(self):
        for lam in partitions_of(4, 3):
            rep = build_irrep(lam)
            for m in rep.raising:
                assert np.min(m) >= 0.0

    def test_cache_returns_same_object(self):
        assert build_irrep(Partition((2, 1))) is build_irrep(Partition((2, 1)))


class TestCasimir:
    def test_fundamental_matches_numeric(self):
        for d in (2, 3, 4):
            rep = build_irrep(one_box(d))
            c = rep.casimir_matrix()
            assert np.max(np.abs(c - casimir2(one_box(d)) * np.eye(d))) < 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_scalar_on_every_irrep(self, d):
        for n in range(1, 7 if d == 2 else 5):
            for lam in partitions_of(n, d):
                rep = build_irrep(lam)
                c = rep.casimir_matrix()
                target = casimir2(lam)
                assert np.max(np.abs(c - target * np.eye(rep.dim))) < 1e-9

    def test_trivial_rep_zero(self):
        assert casimir2(Partition((0, 0, 0))) == 0

    def test_two_row_values_distinct(self):
        for n in range(2, 21):
            assert casimir2(Partition((n, 0))) != \
                casimir2(Partition((n - 1, 1)))

    def test_single_box_gap_at_least_one(self):
        # exact integers; gap >= 1 between sibling blocks
        for d in (2, 3, 4):
            for n in range(1, 7):
                for lam in partitions_of(n, d):
                    vals = [casimir2(add_box(lam, j)) for j in valid_rows(lam)]
                    assert len(set(vals)) == len(vals)
                    for x, y in zip(vals, vals[1:]):
                        assert abs(x - y) >= 1


class TestIrrepUnitary:
    def test_fundamental_is_identity_map(self):
        rng = np.random.default_rng(5)
        u = haar_unitary(3, rng)
        q = irrep_unitary(one_box(3), u)
        # the fundamental GT basis coincides with the standard basis
        assert np.max(np.abs(q - u)) < 1e-9

    def test_homomorphism_property(self):
        rng = np.random.default_rng(7)
        lam = Partition((2, 1))
        u, v = haar_unitary(2, rng), haar_unitary(2, rng)
        qu, qv = irrep_unitary(lam, u), irrep_unitary(lam, v)
        quv = irrep_unitary(lam, u @ v)
        assert np.max(np.abs(qu @ qv - quv)) < 1e-8

    def test_image_is_unitary(self):
        rng = np.random.default_rng(9)
        lam = Partition((2, 1, 0))
        q = irrep_unitary(lam, haar_unitary(3, rng))
        assert np.max(np.abs(q.conj().T @ q - np.eye(q.shape[0]))) < 1e-10
