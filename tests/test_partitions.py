"""Young-label combinatorics: validity, dimensions, path enumeration."""

import itertools
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cg_reference import enumerate_paths, path_index
from schurstream.partitions import (
    InvalidPartitionError, LatticePath, Partition, _path_texts, add_box, dim_symmetric,
    dim_unitary, one_box, partitions_of, schur_weyl_weight, valid_rows)


def brute_force_dim_symmetric(lam):
    """Count standard Young tableaux of shape lam by filling cells."""
    cells = [(r, c) for r, p in enumerate(lam.parts) for c in range(p)]
    count = 0
    for perm in itertools.permutations(range(1, len(cells) + 1)):
        fill = dict(zip(cells, perm))
        ok = all(fill[(r, c)] < fill.get((r, c + 1), 10 ** 9) and
                 fill[(r, c)] < fill.get((r + 1, c), 10 ** 9)
                 for r, c in cells)
        if ok:
            count += 1
    return count


class TestPartition:
    def test_rejects_increasing_rows(self):
        with pytest.raises(ValueError):
            Partition((1, 2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Partition((2, -1))

    @pytest.mark.parametrize("parts,message", [
        ((), "need at least 2 rows, got ()"),
        ((3,), "need at least 2 rows, got (3,)"),
        ((-1,), "need at least 2 rows, got (-1,)"),
        ((2, -1), "negative row length in (2, -1)"),
        ((3, 1, -2), "negative row length in (3, 1, -2)"),
        ((1, 2), "rows must be non-increasing: (1, 2)"),
        ((2, 2, 0, 1), "rows must be non-increasing: (2, 2, 0, 1)"),
        ((-1, 0), "negative row length in (-1, 0)"),
        ((1, -1, 2), "negative row length in (1, -1, 2)"),
    ])
    def test_refusals_keep_their_type_and_message(self, parts, message):
        """Each kind of invalid label is refused as ValueError with the
        message of its first failed check, in the order: at least 2 rows,
        no negative row, non-increasing rows."""
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
            Partition(parts)
        assert type(info.value) is ValueError

    def test_parts_are_converted_to_int(self):
        lam = Partition([np.int64(3), 1.0, True])
        assert lam.parts == (3, 1, 1)
        assert all(type(p) is int for p in lam.parts)

    def test_string_round_trip(self):
        lam = Partition((3, 1, 0))
        assert str(lam) == "3,1,0"
        assert Partition.from_string("3,1,0") == lam

    def test_n_and_d(self):
        lam = Partition((3, 1, 0))
        assert lam.n == 4 and lam.d == 3


class TestAddBox:
    def test_equal_rows_invalid(self):
        with pytest.raises(InvalidPartitionError):
            add_box(Partition((1, 1)), 1)

    def test_first_row_always_valid(self):
        assert add_box(Partition((3, 0)), 0) == Partition((4, 0))

    def test_second_row(self):
        assert add_box(Partition((3, 0)), 1) == Partition((3, 1))

    def test_never_mutates(self):
        lam = Partition((2, 1))
        add_box(lam, 0)
        assert lam.parts == (2, 1)

    @given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
    def test_validity_rule(self, a, b, c):
        parts = tuple(sorted((a, b, c), reverse=True))
        lam = Partition(parts)
        for j in range(3):
            valid = j == 0 or parts[j - 1] > parts[j]
            if valid:
                out = add_box(lam, j)
                assert out.n == lam.n + 1
                assert all(out.parts[i] >= out.parts[i + 1] for i in range(2))
            else:
                with pytest.raises(InvalidPartitionError):
                    add_box(lam, j)

    def test_valid_rows_matches_add_box(self):
        for lam in partitions_of(5, 3):
            assert valid_rows(lam) == [
                j for j in range(3)
                if j == 0 or lam.parts[j - 1] > lam.parts[j]]


class TestDimSymmetric:
    def test_single_row(self):
        for n in range(1, 8):
            assert dim_symmetric(Partition((n, 0))) == 1

    def test_2_1_by_brute_force(self):
        assert dim_symmetric(Partition((2, 1))) == 2
        assert dim_symmetric(Partition((2, 1))) == \
            brute_force_dim_symmetric(Partition((2, 1)))

    @pytest.mark.parametrize("parts", [(3, 1), (2, 2), (3, 2), (2, 1, 1),
                                       (3, 2, 1), (2, 2, 1)])
    def test_small_shapes_by_brute_force(self, parts):
        lam = Partition(parts if len(parts) > 1 else parts + (0,))
        assert dim_symmetric(lam) == brute_force_dim_symmetric(lam)

    def test_two_row_closed_form(self):
        # C(l0+l1, l0) * (l0-l1+1) / (l0+1) for all two-row shapes, n <= 12
        from math import comb
        for n in range(1, 13):
            for lam in partitions_of(n, 2):
                l0, l1 = lam.parts
                want = comb(l0 + l1, l0) * (l0 - l1 + 1) // (l0 + 1)
                assert dim_symmetric(lam) == want

    def test_exact_at_large_n(self):
        # staircase of n=210 overflows doubles; must still be exact
        lam = Partition(tuple(range(20, 0, -1)))
        val = dim_symmetric(lam)
        assert isinstance(val, int) and val > 0


class TestDimUnitary:
    def test_two_row_closed_form(self):
        for n in range(0, 10):
            for lam in partitions_of(n, 2):
                assert dim_unitary(lam) == lam.parts[0] - lam.parts[1] + 1

    def test_single_row_bound(self):
        for d in range(2, 6):
            for k in range(0, 21):
                lam = Partition((k,) + (0,) * (d - 1))
                assert dim_unitary(lam) <= (k + 1) ** (d - 1)

    def test_antisymmetric_is_one_dimensional(self):
        assert dim_unitary(Partition((1, 1, 1))) == 1

    def test_fundamental(self):
        for d in range(2, 6):
            assert dim_unitary(one_box(d)) == d


class TestSchurWeylDuality:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_dimension_identity(self, d):
        for n in range(1, 11):
            total = sum(dim_symmetric(lam) * dim_unitary(lam)
                        for lam in partitions_of(n, d))
            assert total == d ** n

    def test_weights_sum_to_one(self):
        for d in (2, 3, 4):
            for n in range(1, 11):
                assert sum(schur_weyl_weight(lam)
                           for lam in partitions_of(n, d)) == 1

    def test_weight_values(self):
        assert schur_weyl_weight(Partition((2, 0))) == Fraction(3, 4)
        assert schur_weyl_weight(Partition((1, 1))) == Fraction(1, 4)


class TestPaths:
    def test_single_row_unique_path(self):
        paths = enumerate_paths(Partition((3, 0)))
        assert [p.steps for p in paths] == [(0, 0)]

    def test_2_1_paths(self):
        paths = enumerate_paths(Partition((2, 1)))
        assert [p.steps for p in paths] == [(0, 1), (1, 0)]

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_count_equals_dim_symmetric(self, d):
        for n in range(1, 11 if d == 2 else 8):
            for lam in partitions_of(n, d):
                assert len(enumerate_paths(lam)) == dim_symmetric(lam)

    def test_lexicographic_order(self):
        for lam in partitions_of(5, 3):
            steps = [p.steps for p in enumerate_paths(lam)]
            assert steps == sorted(steps)

    def test_every_path_is_valid_and_indexed(self):
        lam = Partition((3, 2, 1))
        for i, p in enumerate(enumerate_paths(lam)):
            assert p.endpoint(3) == lam
            assert path_index(lam, p) == i

    def test_wrong_endpoint_rejected(self):
        with pytest.raises(ValueError):
            path_index(Partition((2, 1)), LatticePath((0, 0)))

    @pytest.mark.parametrize("d", [2, 3])
    def test_endpoint_equals_replay(self, d):
        """endpoint walks a list of ints: on every path with n <= 8 it
        ends where the replay through add_box ends, and on every step
        sequence with n <= 6 (row index d included) it raises the same
        InvalidPartitionError at the same step."""
        def replay(steps):
            lam = one_box(d)
            for j in steps:
                lam = add_box(lam, j)
            return lam

        for n in range(1, 9):
            for lam in partitions_of(n, d):
                for path in enumerate_paths(lam):
                    assert path.endpoint(d) == replay(path.steps) == lam
        for n in range(1, 7):
            for steps in itertools.product(range(d + 1), repeat=n - 1):
                try:
                    want = replay(steps)
                except InvalidPartitionError as e:
                    with pytest.raises(InvalidPartitionError, match=f"^{re.escape(str(e))}$"):
                        LatticePath(steps).endpoint(d)
                else:
                    assert LatticePath(steps).endpoint(d) == want

    def test_endpoint_invalid_middle_step(self):
        with pytest.raises(InvalidPartitionError,
                           match=r"^1,1 \+ e_1 is not a valid partition$"):
            LatticePath((1, 1, 0)).endpoint(2)


class TestPartitionsOf:
    def test_one_box_at_any_d(self):
        """Any number of rows: no stack frame is held per row."""
        assert [lam.parts for lam in partitions_of(1, 1000)] == [(1,) + (0,) * 999]
        assert [lam.parts[:3] for lam in partitions_of(3, 5000)] == [
            (3, 0, 0), (2, 1, 0), (1, 1, 1)]

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
    def test_equals_brute_force_in_descending_lex_order(self, d):
        for n in range(0, 13):
            want = sorted({tuple(sorted(c, reverse=True))
                           for c in itertools.combinations_with_replacement(range(n + 1), d)
                           if sum(c) == n}, reverse=True)
            assert [lam.parts for lam in partitions_of(n, d)] == want, (n, d)


class TestPathString:
    """One formula gives a path's text, for LatticePath and for the
    reports, which gather each step's name from a table of the d names."""

    @pytest.mark.parametrize("steps", [(), (0,), (0, 1, 0, 1), (1, 2, 10),
                                       (12, 0, 11, 10, 3), tuple(range(13))])
    def test_table_lookup_is_the_text_of_each_step(self, steps):
        paths = np.array(steps, dtype=np.uint8).reshape(1, len(steps))
        text, = _path_texts(paths, 13)
        assert text == str(LatticePath(steps)) == ",".join(str(j) for j in steps)
