"""Register-width profiles, Givens decomposition, gate-count models."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cg_reference import (cg_givens_count, givens_reconstruct, haar_unitary,
                          two_level_total_by_sum)
from schurstream.cg import cg_transform
from schurstream.partitions import Partition, dim_unitary, one_box, partitions_of
from schurstream.resources import (givens_decompose, memory_profile,
                                   peak_width, qubit_gate_count,
                                   qudit_gate_bound, qudit_m_generic_sum,
                                   qudit_m_integral_bound, qudit_m_sum,
                                   qudit_width, two_level_total)


class TestMemoryProfile:
    def test_qubit_widths_n10(self):
        widths = [r.width for r in memory_profile(10, 2)]
        assert widths == [3, 3, 4, 4, 4, 4, 5, 5, 5]
        for k in range(1, 2000):
            assert qudit_width(k, 2) == math.ceil(math.log2(2 * k + 4))

    def test_removals_fire_by_rule(self):
        for r in memory_profile(40, 2):
            want = qudit_width(r.k, 2) != math.ceil(math.log2(r.k + 3))
            assert r.removal == want

    def test_removal_count_logarithmic(self):
        for n in (10, 100, 1000):
            removals = sum(1 for r in memory_profile(n, 2) if not r.removal)
            # no-removal events are the rare ones; removals dominate
            assert removals <= math.ceil(math.log2(n)) + 2

    def test_peak_closed_form(self):
        for n in range(2, 10001, 97):
            assert peak_width(n, 2) == math.ceil(math.log2(2 * (n - 1) + 4))
            assert max(r.width for r in memory_profile(n, 2)) == peak_width(n, 2)

    def test_qudit_width_monotone(self):
        for d in (3, 4):
            ws = [r.width for r in memory_profile(30, d)]
            assert all(a <= b for a, b in zip(ws, ws[1:]))

    def test_qudit_width_exact(self):
        # smallest m with d^m >= (k+2)^(d(d-1)/2), by search from m = 0
        for d in range(2, 8):
            m = 0
            for k in range(3000):
                while d ** m < (k + 2) ** (d * (d - 1) // 2):
                    m += 1
                assert qudit_width(k, d) == 1 + m, (d, k)

    @given(st.integers(min_value=2, max_value=7), st.integers(min_value=1, max_value=12))
    def test_qudit_width_at_powers(self, d, e):
        # k+2 = d^e makes (k+2)^(d(d-1)/2) = d^(e d(d-1)/2) an exact power
        # of d, so the register is exactly that wide and the next is wider
        k, pairs = d ** e - 2, d * (d - 1) // 2
        assert qudit_width(k, d) == 1 + e * pairs
        assert qudit_width(k + 1, d) > 1 + e * pairs

    @pytest.mark.parametrize("d,kmax", [(3, 60), (4, 60), (5, 30), (6, 30)])
    def test_qudit_width_holds_every_label(self, d, kmax):
        """The Q register of iteration k, width - 1 qudits, holds dim Q of
        every label of k+1 boxes the sampler can reach."""
        for k in range(1, kmax + 1):
            largest = max(dim_unitary(lam) for lam in partitions_of(k + 1, d))
            assert d ** (qudit_width(k, d) - 1) >= largest, (d, k)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            memory_profile(1, 2)


class TestGivens:
    def test_identity_needs_no_rotations(self):
        rotations, diag = givens_decompose(np.eye(5))
        assert rotations == []
        assert np.allclose(diag, 1.0)

    def test_fundamental_cg_rotation_budget(self):
        count = cg_givens_count(one_box(2))
        assert 1 <= count <= 8  # <= 2 * (2 * dim Q) for dim Q = 2

    def test_reconstruction_random_unitaries(self):
        rng = np.random.default_rng(73)
        for _ in range(50):
            u = haar_unitary(8, rng)
            rotations, diag = givens_decompose(u)
            err = np.max(np.abs(givens_reconstruct(rotations, diag) - u))
            assert err <= 1e-8

    def test_reconstruction_cg_matrices(self):
        for n in range(1, 7):
            for lam in partitions_of(n, 2):
                m = cg_transform(lam).matrix
                rotations, diag = givens_decompose(m)
                err = np.max(np.abs(givens_reconstruct(rotations, diag) - m))
                assert err <= 1e-10

    def test_per_matrix_bound(self):
        # measured count never exceeds 2 rows-worth of eliminations
        for n in range(1, 10):
            for lam in partitions_of(n, 2):
                dimq = lam.parts[0] - lam.parts[1] + 1
                assert cg_givens_count(lam) <= 2 * (2 * dimq)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            givens_decompose(np.ones((3, 3)))

    @pytest.mark.parametrize("at", [(0, 0), (2, 1)])
    def test_rejects_a_nan_entry(self, at):
        """Every comparison with NaN is false, so the unitarity check is
        stated to fail on it."""
        u = np.eye(3)
        u[at] = np.nan
        with pytest.raises(ValueError, match="not unitary"):
            givens_decompose(u)


class TestQubitCounts:
    def test_formula_vs_summation(self):
        for n in range(2, 1001):
            assert two_level_total(n) == two_level_total_by_sum(n)

    def test_n2_value(self):
        assert two_level_total(2) == 8

    def test_run_totals_within_bound(self):
        for n in range(2, 11):
            total = sum(cg_givens_count(Partition((k, 0)))
                        for k in range(1, n))
            assert total <= two_level_total(n)

    def test_gate_model_fields(self):
        model = qubit_gate_count(10, 1e-3)
        assert model.two_level_total == two_level_total(10)
        assert model.delta == 1e-3 / 100
        assert "not a synthesized circuit" in model.note

    def test_cubic_scaling(self):
        # doubling n multiplies the estimate by roughly 8 (within factor 2)
        a = qubit_gate_count(64, 1e-3).clifford_t_estimate
        b = qubit_gate_count(128, 1e-3).clifford_t_estimate
        assert 4 <= b / a <= 16

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            qubit_gate_count(1, 1e-3)
        with pytest.raises(ValueError):
            qubit_gate_count(4, 2.0)

    @pytest.mark.parametrize("model", [lambda: qubit_gate_count(3, 1e-308),
                                       lambda: qudit_gate_bound(3, 3, 1e-308)],
                             ids=["d2", "d3"])
    def test_rejects_delta_whose_inverse_overflows(self, model):
        # delta is subnormal, so 1/delta is inf and log2(1/delta) has no depth
        with pytest.raises(ValueError, match="delta = .*1/delta finite"):
            model()


    @pytest.mark.parametrize("p", [300.0, 1000.0])
    def test_rejects_p_whose_estimate_overflows(self, p):
        # ceil(log2(1/delta))^p passes the largest float
        with pytest.raises(ValueError, match=f"p = {p!r} overflows the qudit gate model"):
            qudit_gate_bound(3, 3, 0.01, p=p)

    @pytest.mark.parametrize("n,d,epsilon,what", [
        (100, 80, 0.01, r"n\^\(2d-1\) = 100\^159 passes the float range in the qudit gate model"),
        (2, 330, 0.01, r"qudit gate model's integral bound .* passes the float range at n=2, d=330"),
        (100, 77, 0.99, r"M n passes the float range in the qudit gate model"),
    ], ids=["delta", "integral-bound", "m-n"])
    def test_rejects_a_factor_past_the_float_range(self, n, d, epsilon, what):
        with pytest.raises(ValueError, match=what):
            qudit_gate_bound(n, d, epsilon)


class TestQuditCounts:
    def test_d2_sum_matches_qubit_path(self):
        for n in range(2, 21):
            assert qudit_m_sum(n, 2) == two_level_total_by_sum(n)

    def test_exact_sum_below_integral_bound(self):
        for d in (2, 3, 4):
            for n in range(2, 21):
                assert qudit_m_generic_sum(n, d) <= qudit_m_integral_bound(n, d)

    def test_ratio_bounded(self):
        for d in (2, 3, 4):
            ratios = [qudit_m_sum(n, d) / (d * n ** (2 * d - 1))
                      for n in range(2, 51)]
            assert max(ratios) < 10

    def test_bound_fields(self):
        out = qudit_gate_bound(10, 3, 1e-3)
        assert out.m_exact == qudit_m_sum(10, 3)
        assert out.m_integral_bound == qudit_m_integral_bound(10, 3)
        assert "not a synthesized circuit" in out.note


class TestAccuracyAccumulation:
    def test_operator_norm_accumulation(self):
        # product of M delta-perturbed unitaries deviates by <= M * delta
        rng = np.random.default_rng(79)
        size, m_count, delta = 6, 100, 1e-3
        exact = [haar_unitary(size, rng) for _ in range(m_count)]
        noisy = []
        for u in exact:
            pert = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
            pert *= delta / np.linalg.norm(pert, 2)
            noisy.append(u + pert)
        prod_exact = np.eye(size)
        prod_noisy = np.eye(size)
        for u, v in zip(exact, noisy):
            prod_exact = u @ prod_exact
            prod_noisy = v @ prod_noisy
        dev = np.linalg.norm(prod_exact - prod_noisy, 2)
        # (1 + delta)^M - 1 ~ M delta for small delta; allow the 2nd order
        assert dev <= m_count * delta * (1 + m_count * delta)
