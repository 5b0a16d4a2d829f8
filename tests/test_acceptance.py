"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(visible with ``pytest -s``).  Tolerances are stated inline; none of them
may be loosened without revisiting the claims they certify.
"""

import json
import math
from functools import lru_cache

import numpy as np
import pytest

from cg_reference import (cg_givens_count, cg_numeric, irrep_unitary, path_probs,
                          perm_rep, tensor_rep, two_level_total_by_sum)
from schurstream.cg import cg_qubit, cg_transform
from schurstream.cli import run as cli_run
from schurstream.oracle import isotypic_projector, schur_transform, weak_schur_probs
from schurstream.partitions import (Partition, add_box, dim_symmetric,
                                    dim_unitary, enumerate_paths, one_box,
                                    partitions_of, valid_rows)
from schurstream.resources import qubit_gate_count, qudit_m_sum, two_level_total
from schurstream.sampler import (branch_distribution, make_rng,
                                 register_branch_distribution, register_init,
                                 register_run, _register_outcomes,
                                 run_full_state)


def _emit(criterion: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def haar_unitary(size, rng):
    z = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def haar_state(size, rng):
    v = rng.normal(size=size) + 1j * rng.normal(size=size)
    return v / np.linalg.norm(v)


def _product_rho(stream):
    rho = np.eye(1, dtype=complex)
    for q in stream:
        rho = np.kron(rho, np.outer(q, q.conj()))
    return rho


@lru_cache(maxsize=1)
def _theorem1_suite():
    """50 random product streams and 20 entangled states; returns the max
    marginal and per-path deviations from the brute-force oracle."""
    rng = np.random.default_rng(2024)
    max_marginal = 0.0
    max_path = 0.0

    cases = [(n, 2, 7) for n in (2, 3, 4, 5, 6)] + [(n, 3, 5) for n in (2, 3, 4)]
    assert sum(c[2] for c in cases) == 50
    for n, d, reps in cases:
        su = schur_transform(n, d)
        for _ in range(reps):
            stream = [haar_state(d, rng) for _ in range(n)]
            dist = branch_distribution(stream, d)
            rho = _product_rho(stream)
            for lam, p in weak_schur_probs(rho, su).items():
                max_marginal = max(max_marginal,
                                   abs(dist.marginal.get(lam, 0.0) - p))
            for (lam, steps), p in path_probs(rho, su).items():
                max_path = max(max_path, abs(dist.entries.get(steps, 0.0) - p))

    ent_cases = [(n, 2, 3) for n in (2, 3, 4, 5, 6)] + \
                [(2, 3, 2), (3, 3, 2), (4, 3, 1)]
    assert sum(c[2] for c in ent_cases) == 20
    for n, d, reps in ent_cases:
        su = schur_transform(n, d)
        for _ in range(reps):
            vec = haar_state(d ** n, rng)
            dist = run_full_state(vec, d)
            rho = np.outer(vec, vec.conj())
            for lam, p in weak_schur_probs(rho, su).items():
                max_marginal = max(max_marginal,
                                   abs(dist.marginal.get(lam, 0.0) - p))
            for (lam, steps), p in path_probs(rho, su).items():
                max_path = max(max_path, abs(dist.entries.get(steps, 0.0) - p))
    return max_marginal, max_path


def test_criterion_1_output_distribution_matches_oracle():
    max_marginal, _ = _theorem1_suite()
    _emit(1, max_marginal <= 1e-9,
          f"max marginal deviation {max_marginal:.3e} <= 1e-9 over 70 inputs")


def test_criterion_2_per_path_refinement_and_path_counts():
    _, max_path = _theorem1_suite()
    counts_ok = True
    for n in range(1, 11):
        for lam in partitions_of(n, 2):
            counts_ok &= len(enumerate_paths(lam)) == dim_symmetric(lam)
    for n in range(1, 9):
        for lam in partitions_of(n, 3):
            counts_ok &= len(enumerate_paths(lam)) == dim_symmetric(lam)
    _emit(2, max_path <= 1e-9 and counts_ok,
          f"max per-path deviation {max_path:.3e} <= 1e-9; "
          f"path counts match hook-length values exactly")


def test_criterion_3_dimension_identities():
    ok = True
    for d in (2, 3, 4):
        for n in range(1, 11):
            total = sum(dim_symmetric(lam) * dim_unitary(lam)
                        for lam in partitions_of(n, d))
            ok &= total == d ** n
    # qubit closed forms, exact for n <= 12
    for n in range(1, 13):
        for lam in partitions_of(n, 2):
            l0, l1 = lam.parts
            ok &= dim_unitary(lam) == l0 - l1 + 1
            ok &= dim_symmetric(lam) == \
                math.comb(l0 + l1, l0) * (l0 - l1 + 1) // (l0 + 1)
    _emit(3, ok, "sum dimP*dimQ = d^n for n<=10, d<=4; "
          "qubit closed forms exact for n<=12")


def test_criterion_4_register_layout_and_measurement_law():
    ok = True
    detail = []

    # block sizes 5 and 3 at k=3, lambda=(3,0), on a 16-dim register
    rng = np.random.default_rng(7)
    rs = register_init(np.array([1.0, 0.0]))
    gen = make_rng(1)
    from schurstream.sampler import register_step
    for _ in range(2):
        rs, _, _ = register_step(rs, np.array([1.0, 0.0]), gen)
    assert rs.lam == Partition((3, 0)) and rs.k == 3
    width, halves = _register_outcomes(rs, haar_state(2, rng))
    dims = [dim_unitary(t) for _, t, _, _ in halves if t is not None]
    ok &= width == 4 and dims == [5, 3]
    detail.append(f"k=3 blocks {dims} on 2^{width} register")

    # rearrangement: each half occupies the top of its 8-dim half register
    for _, t, _, h in halves:
        if t is None:
            continue
        ok &= len(h) == 8
        ok &= np.max(np.abs(h[dim_unitary(t):])) <= 1e-12

    # register measurement law == abstract law within 1e-10
    max_dev = 0.0
    for trial in range(6):
        stream = [haar_state(2, rng) for _ in range(6)]
        a = branch_distribution(stream, 2)
        b = register_branch_distribution(stream)
        for steps, p in a.entries.items():
            max_dev = max(max_dev, abs(b.entries.get(steps, 0.0) - p))
    ok &= max_dev <= 1e-10
    detail.append(f"law deviation {max_dev:.2e}")

    # widths and removal events for n <= 12
    res = register_run([np.array([1.0, 0.0])] * 12, seed=0)
    for e in res.events:
        ok &= e.width == math.ceil(math.log2(2 * e.k + 4))
        ok &= e.removal == (math.ceil(math.log2(2 * e.k + 4)) !=
                            math.ceil(math.log2(e.k + 3)))
    detail.append("widths/removals match for n<=12")
    _emit(4, ok, "; ".join(detail))


def test_criterion_5_resource_claims():
    ok = True
    detail = []

    for n in range(2, 1001):
        ok &= two_level_total(n) == two_level_total_by_sum(n)
    detail.append("2n^2+2n-4 identity for n<=1000")

    for n in range(2, 11):
        measured = sum(max(cg_givens_count(lam)
                           for lam in partitions_of(k, 2))
                       for k in range(1, n))
        ok &= measured <= two_level_total(n)
    detail.append("measured Givens totals within bound for n<=10")

    for d in (2, 3, 4):
        ratios = [qudit_m_sum(n, d) / (d * n ** (2 * d - 1))
                  for n in range(2, 51)]
        ok &= max(ratios) < 10
    detail.append("M-sum / (d n^(2d-1)) bounded for n<=50, d<=4")

    # log-log slope of the count model over n in [16, 512]; epsilon is held
    # small and fixed so the log factor does not tilt the cubic slope
    eps = 1e-9
    ns = [16, 32, 64, 128, 256, 512]
    ys = [qubit_gate_count(n, eps).clifford_t_estimate for n in ns]
    slope = np.polyfit(np.log(ns), np.log(ys), 1)[0]
    ok &= abs(slope - 3.0) <= 0.1
    detail.append(f"log-log slope {slope:.3f} in 3.0 +- 0.1")

    ok &= "not a synthesized circuit" in qubit_gate_count(4, 1e-3).note
    _emit(5, ok, "; ".join(detail))


def test_criterion_6_cg_structural_suite():
    ok = True
    max_unit = 0.0
    for n in range(1, 9):
        for d in (2, 3, 4):
            for lam in partitions_of(n, d):
                total = sum(dim_unitary(add_box(lam, j))
                            for j in valid_rows(lam))
                ok &= total == d * dim_unitary(lam)
    for n in range(1, 7):
        for lam in partitions_of(n, 2):
            max_unit = max(max_unit, cg_transform(lam).check_unitary())
    for n in range(1, 5):
        for lam in partitions_of(n, 3):
            max_unit = max(max_unit, cg_transform(lam).check_unitary())
    ok &= max_unit <= 1e-12

    # numeric vs closed form, d=2
    max_cf = 0.0
    for n in range(1, 6):
        for lam in partitions_of(n, 2):
            dev = np.max(np.abs(cg_numeric(lam).matrix -
                                cg_qubit(lam).matrix))
            max_cf = max(max_cf, dev)
    ok &= max_cf <= 1e-10

    # equivariance under 20 Haar unitaries
    rng = np.random.default_rng(99)
    max_eq = 0.0
    for lam, d in ((Partition((2, 1)), 2), (Partition((1, 1, 0)), 3)):
        t = cg_transform(lam)
        for _ in range(10):
            u = haar_unitary(d, rng)
            rotated = t.matrix @ np.kron(irrep_unitary(lam, u), u) @ \
                t.matrix.conj().T
            for b in t.blocks:
                sl = slice(b.offset, b.offset + b.dim)
                dev = np.max(np.abs(rotated[sl, sl] -
                                    irrep_unitary(b.target, u)))
                max_eq = max(max_eq, dev)
    ok &= max_eq <= 1e-8
    _emit(6, ok, f"unitarity {max_unit:.2e} <= 1e-12; "
          f"closed-form match {max_cf:.2e} <= 1e-10; "
          f"equivariance {max_eq:.2e} <= 1e-8; block identity exact")


def test_criterion_7_symmetry_invariances():
    rng = np.random.default_rng(404)
    ok = True

    # lambda-marginal invariance on random inputs
    max_u, max_perm = 0.0, 0.0
    for _ in range(5):
        vec = haar_state(16, rng)
        u = haar_unitary(2, rng)
        u4 = tensor_rep(u, 4)
        a = run_full_state(vec, 2).marginal
        b = run_full_state(u4 @ vec, 2).marginal
        for lam in a:
            max_u = max(max_u, abs(a[lam] - b.get(lam, 0.0)))
        stream = [haar_state(2, rng) for _ in range(4)]
        perm = list(rng.permutation(4))
        c = branch_distribution(stream, 2).marginal
        e = branch_distribution([stream[i] for i in perm], 2).marginal
        for lam in c:
            max_perm = max(max_perm, abs(c[lam] - e.get(lam, 0.0)))
    ok &= max_u <= 1e-8 and max_perm <= 1e-9

    # commutators at n=4
    su = schur_transform(4, 2)
    sigma = tuple(rng.permutation(4))
    p_sigma = perm_rep(sigma, 4, 2)
    u_n = tensor_rep(haar_unitary(2, rng), 4)
    max_comm = 0.0
    for lam in partitions_of(4, 2):
        proj = isotypic_projector(su, lam)
        max_comm = max(max_comm,
                       np.max(np.abs(proj @ p_sigma - p_sigma @ proj)),
                       np.max(np.abs(proj @ u_n - u_n @ proj)))
    ok &= max_comm <= 1e-8
    _emit(7, ok, f"unitary inv {max_u:.2e} <= 1e-8; "
          f"permutation inv {max_perm:.2e} <= 1e-9; "
          f"commutators {max_comm:.2e} <= 1e-8")


def test_criterion_8_byte_identical_reports(tmp_path):
    stream_file = tmp_path / "stream.json"
    stream_file.write_text(json.dumps(
        {"iid": {"rho": [[0.5, 0], [0, 0.5]], "n": 4}}))
    commands = [
        ["dist", "--d", "2", "--stream", str(stream_file)],
        ["sample", "--d", "2", "--stream", str(stream_file), "--seed", "11",
         "--trials", "4"],
        ["resources", "--n", "8", "--d", "2", "--epsilon", "0.001"],
        ["cg", "--d", "2", "--lambda", "2,1"],
        ["oracle", "--d", "2", "--n", "3"],
    ]
    ok = True
    for argv in commands:
        code_a, out_a = cli_run(list(argv))
        code_b, out_b = cli_run(list(argv))
        ok &= code_a == code_b == 0
        ok &= out_a.encode() == out_b.encode()
    _emit(8, ok, f"{len(commands)} commands byte-identical across reruns")
