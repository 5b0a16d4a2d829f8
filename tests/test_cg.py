"""Clebsch-Gordan transform construction and structural checks."""

from dataclasses import replace
from math import prod

import numpy as np
import pytest

from cg_reference import (_chains, cg_closed_loop, cg_numeric, gt_patterns,
                          haar_unitary, irrep_unitary)
from schurstream import cg, errors
from schurstream.cg import (CGTransform, DegeneracyError, cg_closed, cg_qubit,
                            cg_transform, verify_sparsity)
from schurstream.gt_basis import enumerate_gt
from schurstream.partitions import (Partition, add_box, dim_unitary, one_box,
                                    partitions_of, valid_rows)


class TestCgQubit:
    def test_rejects_other_d(self):
        with pytest.raises(ValueError):
            cg_qubit(Partition((1, 0, 0)))

    def test_fundamental_coupling(self):
        # coupled mixed-weight states (|01> +- |10>)/sqrt(2)
        t = cg_qubit(one_box(2))
        assert t.size == 4
        sym = t.matrix[1]
        anti = t.matrix[3]
        inv = 1 / np.sqrt(2)
        assert np.allclose(np.abs(sym[1:3]), inv)
        assert np.allclose(np.abs(anti[1:3]), inv)
        assert abs(np.vdot(sym, anti)) < 1e-14

    def test_3_0_block_dims(self):
        t = cg_qubit(Partition((3, 0)))
        assert [(b.j, b.dim) for b in t.blocks] == [(0, 5), (1, 3)]

    def test_equal_rows_single_block(self):
        for k in (1, 2, 3):
            t = cg_qubit(Partition((k, k)))
            assert [(b.j, b.dim) for b in t.blocks] == [(0, 2)]

    def test_unitarity(self):
        for n in range(1, 9):
            for lam in partitions_of(n, 2):
                assert cg_qubit(lam).check_unitary() <= 1e-12

    def test_stored_as_rotations(self):
        """dim Q 2 x 2 rotations, held as two coefficients per row: no
        (2 dim Q)^2 matrix is built or kept."""
        t = cg_qubit(Partition((500, 0)))
        assert t.coef.shape == (2, 1002)
        assert t.rotations.shape == (501, 2, 2)
        assert not any(isinstance(v, np.ndarray) and v.size >= 1002 ** 2
                       for v in vars(t).values())

    @staticmethod
    def closed_form(dimq):
        """The coefficients laid out entry by entry from cos_r and sin_r."""
        sin = np.sqrt(np.arange(1, dimq + 1) / dimq)
        cos = sin[::-1]
        coef = np.zeros((2, 2 * dimq), dtype=complex)
        coef[0, :dimq] = cos
        coef[0, dimq + 1:] = -sin[:-1]
        coef[1, 1:dimq + 1] = sin
        coef[1, dimq + 1:] = cos[1:]
        return coef

    def test_coefficients_equal_the_closed_form(self):
        """Bit for bit, and complex-typed, at dim Q from 1 to 2 10^4: every
        one to 1000, then every 97th."""
        for dimq in [*range(1, 1001), *range(1001, 20001, 97), 20000]:
            coef = cg_qubit(Partition((dimq - 1, 0))).coef
            assert coef.dtype == np.complex128
            assert coef.tobytes() == self.closed_form(dimq).tobytes(), dimq

    @pytest.mark.parametrize("parts", [(1, 0), (1, 1), (4, 4), (7, 2), (12, 0), (40, 0),
                                       (150, 50)])
    def test_corrupted_coefficient_is_refused(self, parts):
        """Moving any one of the 4 dim Q stored coefficients, zeros
        included, giving it an imaginary part, or making it NaN breaks
        unitarity and check_unitary raises."""
        t = cg_qubit(Partition(parts))
        for index in np.ndindex(t.coef.shape):
            for delta in (1e-9, 1e-9j, np.nan):
                bad = replace(t, coef=t.coef.copy())
                bad.coef[index] += delta
                with pytest.raises(DegeneracyError):
                    bad.check_unitary()


@pytest.mark.parametrize("parts", [(3, 1), (7, 2), (3, 1, 0), (4, 2, 1),
                                   (2, 1, 0, 0), (3, 2, 1, 0)])
def test_matrix_is_real(parts):
    """The CG coefficients are real, and the sampler's and the Schur-transform
    reference's real-arithmetic products rely on the float64 dtype."""
    assert cg_transform(Partition(parts)).matrix.dtype == np.float64


class TestBlockStructure:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_dimension_identity(self, d):
        # sum_j dim Q^d_{lam+e_j} = d * dim Q^d_lam, exactly
        for n in range(1, 9):
            for lam in partitions_of(n, d):
                total = sum(dim_unitary(add_box(lam, j))
                            for j in valid_rows(lam))
                assert total == d * dim_unitary(lam)

    def test_blocks_ascending_and_contiguous(self):
        t = cg_transform(Partition((2, 1, 0)))
        js = [b.j for b in t.blocks]
        assert js == sorted(js)
        off = 0
        for b in t.blocks:
            assert b.offset == off
            assert b.dim == dim_unitary(b.target)
            off += b.dim
        assert off == t.size

    def test_1_0_0_block_dims(self):
        t = cg_numeric(one_box(3))
        assert [(str(b.target), b.dim) for b in t.blocks] == \
            [("2,0,0", 6), ("1,1,0", 3)]


class TestCgNumeric:
    def test_matches_closed_form_fundamental(self):
        a = cg_numeric(one_box(2)).matrix
        b = cg_qubit(one_box(2)).matrix
        assert np.max(np.abs(a - b)) <= 1e-10

    def test_matches_closed_form_all_small_shapes(self):
        for n in range(1, 7):
            for lam in partitions_of(n, 2):
                a = cg_numeric(lam).matrix
                b = cg_qubit(lam).matrix
                assert np.max(np.abs(a - b)) <= 1e-10, lam

    @pytest.mark.parametrize("d", [3, 4])
    def test_unitarity(self, d):
        for n in range(1, 5):
            for lam in partitions_of(n, d):
                assert cg_numeric(lam).check_unitary() <= 1e-12

    def test_deterministic_reconstruction(self):
        lam = Partition((2, 1, 0))
        a = cg_numeric(lam).matrix
        b = cg_numeric(lam).matrix
        assert np.array_equal(a, b)


class TestEquivariance:
    @pytest.mark.parametrize("lam,d", [
        (Partition((1, 0)), 2),
        (Partition((2, 1)), 2),
        (Partition((1, 0, 0)), 3),
        (Partition((2, 1, 0)), 3),
    ])
    def test_intertwines_group_action(self, lam, d):
        # U_CG (Q_lam(u) (x) u) U_CG^dag is block diagonal with Q_{lam+e_j}(u)
        rng = np.random.default_rng(11)
        t = cg_transform(lam)
        for _ in range(20):
            u = haar_unitary(d, rng)
            left = np.kron(irrep_unitary(lam, u), u)
            rotated = t.matrix @ left @ t.matrix.conj().T
            for b in t.blocks:
                sl = slice(b.offset, b.offset + b.dim)
                want = irrep_unitary(b.target, u)
                assert np.max(np.abs(rotated[sl, sl] - want)) <= 1e-8
            # off-diagonal blocks vanish
            mask = np.ones_like(rotated)
            for b in t.blocks:
                sl = slice(b.offset, b.offset + b.dim)
                mask[sl, sl] = 0
            assert np.max(np.abs(rotated * mask)) <= 1e-8


class TestSparsity:
    def test_fundamental_claim_holds(self):
        rep = verify_sparsity(cg_transform(one_box(2)))
        assert rep.two_per_row_claim_holds
        assert rep.max_nonzeros_per_row <= 2

    def test_qubit_rows_always_two_sparse(self):
        for n in range(1, 8):
            for lam in partitions_of(n, 2):
                rep = verify_sparsity(cg_transform(lam))
                assert rep.two_per_row_claim_holds, lam

    def test_degenerate_block_is_permutation_like(self):
        rep = verify_sparsity(cg_transform(Partition((2, 2))))
        assert rep.max_nonzeros_per_row <= 2

    def test_givens_count_recorded(self):
        rep = verify_sparsity(cg_transform(Partition((3, 0))))
        assert rep.givens_count >= 1
        assert rep.size == 8


class TestCgClosed:
    @pytest.mark.parametrize("d,n_max", [(3, 6), (4, 5), (5, 4)])
    def test_matches_numeric_reference(self, d, n_max):
        for n in range(1, n_max + 1):
            for lam in partitions_of(n, d):
                a = cg_closed(lam).matrix
                b = cg_numeric(lam).matrix
                assert np.max(np.abs(a - b)) <= 1e-12, lam

    @pytest.mark.parametrize("d,n_max", [(3, 10), (4, 7), (5, 5), (6, 4)])
    def test_equals_loop_reference(self, d, n_max):
        for n in range(1, n_max + 1):
            for lam in partitions_of(n, d):
                assert np.array_equal(cg_closed(lam).matrix,
                                      cg_closed_loop(lam).matrix), lam

    # sides 1029 and 1440; integers past 2^53; pattern keys past int64
    @pytest.mark.parametrize("parts", [(12, 6, 0), (5, 3, 1, 0), (8, 0, 0, 0, 0),
                                       (19, 18, 18, 18, 18),
                                       (13, 12, 12, 12, 12, 12)])
    def test_equals_loop_reference_at(self, parts):
        lam = Partition(parts)
        assert np.array_equal(cg_closed(lam).matrix, cg_closed_loop(lam).matrix)

    def test_integers_pass_float_precision(self):
        lam = Partition((8, 0, 0, 0, 0))
        top = max(max(abs(num), abs(den))
                  for pat in gt_patterns(lam)
                  for _, _, num, den, _ in _chains(
                      [[m - s for s, m in enumerate(row)] for row in pat],
                      0, 0, 1, 1, 1, ()))
        assert top > 2 ** 53

    @pytest.mark.parametrize("parts", [(1, 0, 0), (2, 1, 0), (3, 1, 0, 0)])
    def test_walk_missing_a_target_is_refused(self, monkeypatch, parts):
        """Target rows are ranked from the walk's own entries, so a walk
        that misses a target pattern is refused: here every block loses
        the entries whose box stops on the top row."""
        factors = cg._factors
        d = len(parts)

        def without_top_stop(t, b):
            stop, tden, move, mden = factors(t, b)
            return (stop * 0 if t.shape[1] == d else stop), tden, move, mden

        monkeypatch.setattr(cg, "_factors", without_top_stop)
        with pytest.raises(DegeneracyError, match="reaches"):
            cg_closed(Partition(parts))

    @pytest.mark.parametrize("d,n_max", [(3, 8), (4, 8), (5, 8), (6, 8)])
    def test_rows_follow_the_target_gt_order(self, d, n_max):
        """Row r of a block is pattern r of enumerate_gt(target): each of
        its entries, column g d + a, reaches that pattern from source
        pattern g by one unit step on each row the box entered, from
        position j of the top row down to the row of length a + 1."""
        starts = np.cumsum([0, *range(d, 0, -1)])
        for n in range(1, n_max + 1):
            for lam in partitions_of(n, d):
                t = cg_closed(lam)
                source = enumerate_gt(lam)
                for blk in t.blocks:
                    target = enumerate_gt(blk.target)
                    rows = np.arange(blk.offset, blk.offset + blk.dim)
                    live = t.vals[rows] != 0
                    r, slot = np.nonzero(live)
                    col = t.cols[rows][live]
                    step = target[r] - source[col // d]
                    stop_row = d - 1 - col % d
                    # one unit step per row down to the stop row, none below
                    per_row = np.add.reduceat(step, starts[:-1], axis=1)
                    assert np.all(step >= 0) and np.all(step <= 1), (lam, blk.j)
                    assert np.array_equal(per_row, np.arange(d) <= stop_row[:, None]), (lam, blk.j)
                    assert np.all(step[:, blk.j] == 1), (lam, blk.j)
                    # and every target pattern has a row
                    assert np.all(live.any(axis=1)), (lam, blk.j)

    def test_enumerates_the_source_patterns_only(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cg, "enumerate_gt",
                            lambda lam: calls.append(lam) or enumerate_gt(lam))
        lam = Partition((3, 1, 0))
        cg_closed(lam)
        assert calls == [lam]

    def test_qubit_is_bit_identical(self):
        """The dense d=2 matrix formed on demand from the rotations is
        cg_closed's matrix bit for bit, for every lam with lam_0 <= 40."""
        for n in range(1, 41):
            for lam in partitions_of(n, 2):
                assert np.array_equal(cg_closed(lam).matrix,
                                      cg_qubit(lam).matrix), lam


def _factor_dtypes(monkeypatch):
    """Record the dtype of every row step's factor tables."""
    dtypes = []
    factors = cg._factors

    def recorded(t, b):
        dtypes.append(t.dtype)
        return factors(t, b)

    monkeypatch.setattr(cg, "_factors", recorded)
    return dtypes


class TestMachineWords:
    """The walk's exact integers are float64 wherever they provably stay
    below 2^53, and Python ints past that bound."""

    def test_benchmark_and_ci_labels_fit(self):
        """Every d=3 label up to 60 boxes (the iid qutrit run) and every
        d=4 label up to 7 boxes is within the bound."""
        for d, n_max in ((3, 60), (4, 7)):
            for n in range(1, n_max + 1):
                assert all(cg._in_machine_words(lam) for lam in partitions_of(n, d)), (d, n)

    @pytest.mark.parametrize("d,n_max", [(3, 18), (4, 7)])
    def test_builds_take_float64(self, monkeypatch, d, n_max):
        """Every d=3 label up to 18 boxes, so every label an 18-qutrit
        `sample` reaches, and every d=4 label up to 7 boxes is built with
        no object-dtype table."""
        dtypes = _factor_dtypes(monkeypatch)
        for n in range(1, n_max + 1):
            for lam in partitions_of(n, d):
                cg_closed(lam)
        assert dtypes and set(dtypes) == {np.dtype(float)}

    @pytest.mark.parametrize("parts", [(60, 0, 0), (30, 30, 0), (40, 20, 0)])
    def test_largest_qutrit_labels_take_float64(self, monkeypatch, parts):
        dtypes = _factor_dtypes(monkeypatch)
        cg_closed(Partition(parts))
        assert set(dtypes) == {np.dtype(float)}

    # (bound, label just below it, label just above it); a bound of None is
    # 2^53 itself, which at d=3 and d=4 first fails at sides past 10^5
    @pytest.mark.parametrize("bound,below,above", [
        (9 ** 4, (6, 2, 0), (7, 2, 0)),
        (7 ** 9, (3, 1, 0, 0), (4, 1, 0, 0)),
        (None, (5, 0, 0, 0, 0), (6, 0, 0, 0, 0)),
        (None, (5, 5, 5, 5, 0), (6, 6, 6, 6, 0)),
    ])
    def test_both_sides_of_the_bound_equal_the_loop_reference(self, monkeypatch, bound,
                                                              below, above):
        if bound is not None:
            monkeypatch.setattr(cg, "_EXACT", bound)
        dtypes = _factor_dtypes(monkeypatch)
        for parts, dtype in ((below, float), (above, object)):
            lam = Partition(parts)
            dtypes.clear()
            assert cg._in_machine_words(lam) == (dtype is float)
            assert np.array_equal(cg_closed(lam).matrix, cg_closed_loop(lam).matrix), lam
            assert set(dtypes) == {np.dtype(dtype)}, lam

    @pytest.mark.parametrize("scale", [1, 10 ** 6])
    def test_tables_of_python_int_rows_are_exact(self, scale):
        """Python-int rows get Python-int tables, equal to the products
        written out, whether or not the float64 products pass 2^53 (at
        scale 10^6 they pass 2^63)."""
        l = 6
        top = [scale * (l - s) - s for s in range(l)]
        below = [scale * (l - 1 - s) + 2 * (l - s) - s for s in range(l - 1)]
        stop, tden, move, mden = cg._factors(np.array([top], dtype=object),
                                             np.array([below], dtype=object))
        for i, t_i in enumerate(top):
            assert stop[i, 0] == prod(b_s - t_i - 1 for b_s in below)
            assert tden[i, 0] == prod(t_s - t_i for s, t_s in enumerate(top) if s != i)
            for k, b_k in enumerate(below):
                assert move[k, i, 0] == (
                    prod(b_s - t_i - 1 for s, b_s in enumerate(below) if s != k)
                    * prod(t_s - b_k for s, t_s in enumerate(top) if s != i))
                assert mden[k, i, 0] == tden[i, 0] * prod(
                    b_s - b_k - 1 for s, b_s in enumerate(below) if s != k)
        assert all(type(x) is int for x in np.concatenate([stop.ravel(), mden.ravel()]))
        assert (abs(max(move.ravel(), key=abs)) > 2 ** 63) == (scale > 1)

    @pytest.mark.parametrize("d,n_max", [(3, 9), (4, 6), (5, 5)])
    def test_python_ints_give_the_same_rows(self, monkeypatch, d, n_max):
        """Forced onto Python ints, every build has the same columns and
        values, bit for bit."""
        labels = [lam for n in range(1, n_max + 1) for lam in partitions_of(n, d)]
        machine = [cg_closed(lam) for lam in labels]
        monkeypatch.setattr(cg, "_EXACT", 0)
        dtypes = _factor_dtypes(monkeypatch)
        for lam, t in zip(labels, machine):
            exact = cg_closed(lam)
            assert np.array_equal(exact.cols, t.cols) and np.array_equal(exact.vals, t.vals), lam
        assert set(dtypes) == {np.dtype(object)}


class TestSparseRows:
    """d >= 3 transforms are kept as fixed-width sparse rows."""

    @pytest.mark.parametrize("parts,width", [((12, 6, 0), 5), ((5, 3, 1, 0), 16)])
    def test_stored_as_rows(self, parts, width):
        """cols and vals of shape (size, w), w the longest row: no
        size^2 array is built or kept."""
        t = cg_closed(Partition(parts))
        assert isinstance(t, CGTransform)
        assert t.cols.shape == t.vals.shape == (t.size, width)
        assert np.array_equal(np.count_nonzero(t.matrix, axis=1),
                              np.count_nonzero(t.vals, axis=1))
        # each row's entries in column order, then the padding
        live = t.vals != 0
        assert np.all(live[:, :-1] >= live[:, 1:])
        assert np.all(np.diff(t.cols, axis=1)[live[:, 1:]] > 0)
        assert not any(isinstance(v, np.ndarray) and v.size >= t.size ** 2
                       for v in vars(t).values())

    @pytest.mark.parametrize("parts", [(1, 0, 0), (2, 1, 0), (3, 3, 0), (4, 2, 1),
                                       (1, 1, 0, 0), (2, 1, 0, 0), (3, 2, 1, 0)])
    def test_corrupted_entry_is_refused(self, parts):
        """Moving any one stored value by 1e-9 or making it NaN, padding
        included, or pointing the column index of any entry at another
        column makes check_unitary raise."""
        t = cg_closed(Partition(parts))
        for index in np.ndindex(t.vals.shape):
            for delta in (1e-9, np.nan):
                bad = replace(t, vals=t.vals.copy())
                bad.vals[index] += delta
                with pytest.raises(DegeneracyError):
                    bad.check_unitary()
            if t.vals[index] != 0:
                for shift in (1, t.size - 1):
                    bad = replace(t, cols=t.cols.copy())
                    bad.cols[index] = (t.cols[index] + shift) % t.size
                    with pytest.raises(DegeneracyError):
                        bad.check_unitary()

    def test_check_runs_hold_whole_columns(self, monkeypatch):
        """With runs of a few pairs, each column's sums still come from one
        run: the check passes, and a corrupted entry is still refused."""
        t = cg_closed(Partition((4, 2, 1, 0)))
        monkeypatch.setattr(cg, "_CHECK_PAIRS", 7)
        assert t.check_unitary() <= 1e-12
        bad = replace(t, vals=t.vals.copy())
        bad.vals[t.size // 2, 0] += 1e-9
        with pytest.raises(DegeneracyError):
            bad.check_unitary()


class TestSizeLimit:
    @pytest.mark.parametrize("d,parts", [(2, (3, 1)), (3, (2, 1, 0))])
    def test_limit_is_inclusive_and_checked_before_build(self, monkeypatch, d, parts):
        lam = Partition(parts)
        size = d * dim_unitary(lam)
        monkeypatch.setattr(cg, "_cache", {})
        monkeypatch.setattr(errors, "MEMORY_BUDGET", cg._build_bytes(d, size) - 1)
        with pytest.raises(errors.SizeLimitError, match=f"size {size}"):
            cg_transform(lam)
        assert cg._cache == {}
        monkeypatch.setattr(errors, "MEMORY_BUDGET", cg._build_bytes(d, size))
        assert cg_transform(lam).size == size


def _plus_columns(lam, c):
    return Partition(tuple(p + c for p in lam.parts))


class TestSharedRows:
    """lam and lam + c (1^d) are one SU(d) irrep up to det^c, so they have
    the same coefficients: cg_transform builds each transform once, at its
    reduced label, and every label with that reduced form shares its rows."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self, monkeypatch):
        monkeypatch.setattr(cg, "_cache", {})
        monkeypatch.setattr(cg, "_cache_bytes", 0)
        cg._terms.cache_clear()

    @staticmethod
    def term_bytes(d):
        """The bytes of the row-step term tables that a build at d makes
        and the cache counts (a d=2 build makes none)."""
        return sum(a.nbytes for l in range(2, d + 1) for a in cg._terms(l)) if d > 2 else 0

    @staticmethod
    def build(lam):
        return cg_qubit(lam) if lam.d == 2 else cg_closed(lam)

    @pytest.mark.parametrize("d,n_max", [(2, 8), (3, 5), (4, 4), (5, 3)])
    def test_equal_to_the_build_at_each_label(self, d, n_max):
        """The shared entry of lam + c (1^d) has the bytes of the
        transform built at that label, and the offsets and dims of lam's
        blocks."""
        arrays = ("coef",) if d == 2 else ("cols", "vals")
        for n in range(1, n_max + 1):
            for lam in partitions_of(n, d):
                base = cg_transform(lam)
                for c in (1, 2, 3):
                    shifted = _plus_columns(lam, c)
                    t, want = cg_transform(shifted), self.build(shifted)
                    for name in arrays:
                        got, built = getattr(t, name), getattr(want, name)
                        assert got.dtype == built.dtype and got.shape == built.shape
                        assert got.tobytes() == built.tobytes(), (shifted, name)
                        assert got.tobytes() == getattr(base, name).tobytes()
                    assert ([(b.j, b.offset, b.dim) for b in t.blocks]
                            == [(b.j, b.offset, b.dim) for b in base.blocks]
                            == [(b.j, b.offset, b.dim) for b in want.blocks]), shifted

    @pytest.mark.parametrize("parts", [(2, 1, 0), (3, 3, 0), (2, 1, 0, 0), (3, 1, 1, 0),
                                       (2, 1, 1, 0, 0)])
    def test_equal_to_the_loop_reference(self, parts):
        lam = Partition(parts)
        for c in (1, 2):
            shifted = _plus_columns(lam, c)
            assert np.array_equal(cg_transform(shifted).matrix,
                                  cg_closed_loop(shifted).matrix), shifted

    @pytest.mark.parametrize("parts", [(3, 1), (2, 2), (2, 1, 0), (1, 1, 1),
                                       (3, 2, 0, 0), (2, 1, 1, 0, 0)])
    def test_lookup_after_the_same_reduced_form_builds_nothing(self, monkeypatch, parts):
        """After any label with the same reduced form is looked up, a new
        label runs no build, and its entry holds its own lam and blocks."""
        builds = []
        for name in ("cg_qubit", "cg_closed"):
            monkeypatch.setattr(cg, name, lambda lam, f=getattr(cg, name):
                                builds.append(lam) or f(lam))
        lam = Partition(parts)
        labels = [_plus_columns(lam, c) for c in (2, 0, 3, 1)]
        for label in labels:
            t = cg_transform(label)
            assert t.lam == label
            assert [b.j for b in t.blocks] == valid_rows(label)
            assert [b.target for b in t.blocks] == [add_box(label, b.j) for b in t.blocks]
            assert len(builds) == 1, (label, builds)
            assert cg_transform(label) is t
        assert builds == [Partition(cg._reduced(lam.parts))]

    def test_a_relabel_constructs_only_its_targets(self, monkeypatch):
        """A d=2 lookup of a label that is not reduced, whose reduced entry
        is cached, constructs its two target labels and no other label."""
        cg_transform(Partition((30, 0)))
        lam = Partition((45, 15))
        made, post_init = [], Partition.__post_init__

        def counted(self):
            post_init(self)
            made.append(self.parts)

        monkeypatch.setattr(Partition, "__post_init__", counted)
        t = cg_transform(lam)
        assert made == [(46, 15), (45, 16)]
        assert [b.target.parts for b in t.blocks] == made

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_a_rectangle_reduces_to_one_column(self, d):
        """(c^d) is built at (1^d), a label with a box; no entry is made
        for a label no caller asked for but its reduced one."""
        for c in (1, 2, 5):
            cg_transform(Partition((c,) * d))
        assert set(cg._cache) == {(c,) * d for c in (1, 2, 5)}
        row = Partition((2,) + (0,) * (d - 1))
        assert cg._reduced(row.parts) is row.parts
        assert cg._reduced((7,) + (3,) * (d - 1)) == (4,) + (0,) * (d - 1)

    @pytest.mark.parametrize("parts", [(4, 1), (3, 1, 0), (2, 1, 0, 0)])
    def test_shared_arrays_are_read_only(self, parts):
        lam = Partition(parts)
        base, t = cg_transform(lam), cg_transform(_plus_columns(lam, 2))
        arrays = ("coef", "rotations") if lam.d == 2 else ("cols", "vals")
        for name in arrays:
            assert getattr(t, name) is getattr(base, name)
            with pytest.raises(ValueError, match="read-only"):
                getattr(t, name)[0, 0] = 1
        assert t.check_unitary() <= 1e-12

    @pytest.mark.parametrize("parts", [(5, 0), (3, 1, 0)])
    def test_shared_entry_counts_its_objects(self, monkeypatch, parts):
        """A shared entry counts 4 KB beside its base, and all it holds
        once an eviction keeps it alone."""
        lam = Partition(parts)
        base = cg_transform(lam)
        terms = self.term_bytes(lam.d)
        assert cg._cache_bytes == base._held_bytes() + terms
        shifted = _plus_columns(lam, 1)
        t = cg_transform(shifted)
        assert cg._cache_bytes == base._held_bytes() + 4096 + terms
        # one byte short of the two entries beside the step; the eviction
        # frees the term tables too
        monkeypatch.setattr(errors, "MEMORY_BUDGET",
                            cg._cache_bytes - terms + cg._step_bytes(t.size) - 1)
        assert cg_transform(shifted, mixed=True) is t
        assert list(cg._cache) == [shifted.parts]
        assert cg._cache_bytes == t._held_bytes() == base._held_bytes()

    @pytest.mark.parametrize("d,n_max", [(2, 12), (3, 12), (4, 8), (5, 6)])
    def test_relabelled_blocks_equal_the_built_ones(self, monkeypatch, d, n_max):
        """Every label that is not its own reduced label gets the blocks
        _blocks_for would build for it, field by field, from its reduced
        entry's blocks: _blocks_for runs once per build and never for a
        relabel."""
        blocks_for, calls = cg._blocks_for, []
        monkeypatch.setattr(cg, "_blocks_for", lambda lam: calls.append(lam) or blocks_for(lam))
        shifted = [lam for n in range(1, n_max + 1) for lam in partitions_of(n, d)
                   if cg._reduced(lam.parts) != lam.parts]
        assert shifted
        for lam in shifted:
            t = cg_transform(lam)
            assert t.lam == lam
            assert t.blocks == blocks_for(lam), lam
        assert sorted(calls) == sorted({Partition(cg._reduced(lam.parts)) for lam in shifted})

    @pytest.mark.parametrize("parts,other", [((20, 0), (9, 0)), ((2, 1, 0), (3, 1, 0)),
                                             ((2, 1, 0, 0), (3, 0, 0, 0))])
    def test_entry_kept_through_an_eviction_has_the_reduced_blocks(
            self, monkeypatch, parts, other):
        """A density-matrix lookup that keeps a shared label whose reduced
        entry is gone makes that entry again from the label's own: the
        reduced label's blocks, field by field, and the same arrays."""
        budget = errors.MEMORY_BUDGET
        base = Partition(parts)
        shifted = _plus_columns(base, 2)
        t = cg_transform(shifted)
        step_room = cg._step_bytes(t.size)
        monkeypatch.setattr(errors, "MEMORY_BUDGET", t._held_bytes() + 4095 + step_room)
        assert cg_transform(shifted, mixed=True) is t
        assert list(cg._cache) == [shifted.parts]  # kept alone
        monkeypatch.setattr(errors, "MEMORY_BUDGET", budget)
        cg_transform(Partition(other))
        monkeypatch.setattr(errors, "MEMORY_BUDGET", t._held_bytes() + 4096 + step_room)
        assert cg_transform(shifted, mixed=True) is t
        assert sorted(cg._cache) == sorted([shifted.parts, base.parts])
        kept = cg._cache[base.parts]
        assert kept.lam == base
        assert kept.blocks == cg._blocks_for(base)
        arrays = ("coef", "rotations") if base.d == 2 else ("cols", "vals")
        for name in arrays:
            assert getattr(kept, name) is getattr(t, name)


class TestTermTables:
    """The row-step term tables (_terms) that d >= 3 builds leave behind
    count in the cache's bytes and are freed whenever the cache is
    emptied."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self, monkeypatch):
        monkeypatch.setattr(cg, "_cache", {})
        monkeypatch.setattr(cg, "_cache_bytes", 0)
        cg._terms.cache_clear()

    @pytest.mark.parametrize("d", [3, 30])
    def test_counted_after_a_one_box_build(self, d):
        """A one-box build at d meets every row length 2 .. d; at d = 30
        its tables hold about 13 MiB, against 32 KiB of rows."""
        t = cg_transform(one_box(d))
        assert cg._terms.cache_info().currsize == d - 1
        tables = sum(a.nbytes for l in range(2, d + 1) for a in cg._terms(l))
        assert cg._cache_bytes >= tables
        assert cg._cache_bytes == t._held_bytes() + tables

    @pytest.mark.parametrize("mixed", [False, True])
    def test_freed_with_the_cache(self, monkeypatch, mixed):
        """Emptied before a build that would take the cache over its cap,
        and by a density-matrix lookup that keeps only its own entry."""
        t = cg_transform(one_box(6))
        assert cg._terms.cache_info().currsize == 5
        if mixed:
            monkeypatch.setattr(errors, "MEMORY_BUDGET",
                                cg._cache_bytes + cg._step_bytes(t.size) - 1)
            assert cg_transform(one_box(6), mixed=True) is t
            assert cg._cache_bytes == t._held_bytes()
        else:
            # a d=2 build makes no tables, and its own bytes fill the cap
            monkeypatch.setattr(errors, "MEMORY_BUDGET", cg._build_bytes(2, 4))
            cg_transform(one_box(2))
            assert list(cg._cache) == [(1, 0)]
        assert cg._terms.cache_info().currsize == 0
