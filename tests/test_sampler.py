"""Streaming sampler: single steps, trajectories, branch enumeration,
full-state mode and the explicit qubit-register mode."""

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from cg_reference import (gt_patterns, haar_state, haar_unitary, path_probs, pattern_weight,
                          schur_transform)
from schurstream import errors, sampler
from schurstream.cg import cg_transform
from schurstream.errors import SizeLimitError
from schurstream.oracle import weak_schur_probs
from schurstream.partitions import (LatticePath, Partition, dim_symmetric,
                                    dim_unitary, one_box, partitions_of,
                                    schur_weyl_weight)
from schurstream.resources import qudit_width
from reference_walk import _enumerate as depth_first, node_outcomes, promoted
from register_mode import _register_outcomes, register_branch_distribution, register_run
from schurstream.sampler import (InvalidInputError, NumericalCollapseError,
                                 _leaf_bytes, _sample, branch_distribution,
                                 init_state, run_full_state, run_stream, step,
                                 _couple, _expand, _split, _weight)

KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])
MIXED = np.eye(2) / 2


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

    @pytest.mark.parametrize("amplitudes,says", [
        (np.array([np.nan, 0], dtype=complex), "norm drifted"),
        (np.diag([np.nan, 0]).astype(complex), "trace drifted"),
    ], ids=["vector", "density"])
    def test_nan_state_is_refused(self, amplitudes, says):
        """Every comparison with NaN is false, so each drift check is
        stated to fail on it."""
        state = init_state(KET0, 2, seed=0)
        state.amplitudes = amplitudes
        with pytest.raises(NumericalCollapseError, match=says):
            step(state, KET0)

    @pytest.mark.parametrize("weights", [[np.nan, 0.5], [0.5, np.nan]])
    def test_nan_weight_is_refused(self, weights):
        with pytest.raises(NumericalCollapseError):
            _sample(weights, np.random.default_rng(0))

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

    # element 3 of each stream is not a state
    NAMED = [([1.0, 1.0], "state vector not normalized"),
             (np.diag([0.6, 0.5]), "density matrix trace != 1")]

    @pytest.mark.parametrize("bad,says", NAMED, ids=["vector", "rho"])
    @pytest.mark.parametrize("mode", [run_stream, branch_distribution,
                                      lambda s, d: register_run(s),
                                      lambda s, d: register_branch_distribution(s)],
                             ids=["run_stream", "branch_distribution", "register_run",
                                  "register_branch_distribution"])
    def test_error_names_its_stream_element(self, mode, bad, says):
        stream = [KET0, KET1, np.array([0.6, 0.8]), np.array(bad), KET0]
        with pytest.raises(InvalidInputError) as info:
            mode(stream, 2)
        assert str(info.value) == f"stream element 3: {says}"

    def test_check_stream_checks_each_distinct_array_once(self, monkeypatch):
        calls = []
        check_state = errors.check_state
        monkeypatch.setattr(errors, "check_state",
                            lambda q, d: calls.append(q) or check_state(q, d))
        stream = errors.check_stream([MIXED] * 40 + [KET0], 2)
        assert len(calls) == 2 and len(stream) == 41
        assert all(q is stream[0] for q in stream[:40])
        with pytest.raises(InvalidInputError, match="^empty stream$"):
            errors.check_stream([], 2)

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
        # the streaming property: stopped after 4 qudits, the run has taken
        # the first 3 steps of the whole run's path
        res, whole = run_stream(stream[:4], 2, seed=1), run_stream(stream, 2, seed=1)
        assert res.lam.n == 4
        assert res.path.steps == whole.path.steps[:3]

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
        assert abs(sum(dist.entries.values()) + dist.pruned - 1.0) < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_oracle_marginal_qubits(self, n):
        rng = np.random.default_rng(100 + n)
        stream = [random_qubit(rng) for _ in range(n)]
        dist = branch_distribution(stream, 2)
        rho = np.eye(1, dtype=complex)
        for q in stream:
            rho = np.kron(rho, np.outer(q, q.conj()))
        oracle = weak_schur_probs(rho, n, 2)
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
        # the leaves held replace the branch cap: 10 Haar qubits have 252
        rng = np.random.default_rng(43)
        stream = [random_qubit(rng) for _ in range(10)]
        # builds every CG transform
        assert len(branch_distribution(stream, 2).entries) == 252
        # room for 100 leaves holds every level (sampler._level_bytes)
        monkeypatch.setattr(errors, "MEMORY_BUDGET", 100 * _leaf_bytes(10))
        with pytest.raises(SizeLimitError, match="101 leaves"):
            branch_distribution(stream, 2)

    @pytest.mark.parametrize("d,n", [(2, n) for n in range(1, 19)]
                             + [(3, n) for n in range(1, 10)]
                             + [(4, n) for n in range(1, 8)])
    def test_iid_maximally_mixed_marginal_is_schur_weyl(self, d, n):
        """For (I/d)^(x)n the label law is exact, dim P_lam dim Q_lam / d^n
        (Schur-Weyl duality): the unpruned walk's marginal has every label
        and is within n * 1e-15 of it (largest deviation measured 8.7e-19
        at (2, 18), 7.5e-16 at (3, 9) and 0 at (4, 7)).  A failure is a
        finding about the sampler, not a tolerance to widen."""
        marginal = branch_distribution([np.eye(d) / d] * n, d, prune=0).marginal
        assert set(marginal) == set(partitions_of(n, d))
        for lam, p in marginal.items():
            assert abs(p - float(schur_weyl_weight(lam))) <= n * 1e-15, lam

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
        oracle = weak_schur_probs(vec, 3, 2)
        for lam, p in oracle.items():
            assert abs(dist.marginal.get(lam, 0.0) - p) <= 1e-9

    def test_haar_4qubit_matches_oracle(self):
        rng = np.random.default_rng(43)
        vec = haar_state(16, rng)
        dist = run_full_state(vec, 2)
        oracle = weak_schur_probs(np.outer(vec, vec.conj()), 4, 2)
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


class TestFullStateLargeN:
    """Structural checks on `full` at n=14-16, past the brute-force
    oracle's reach (n=10 for qubits), each within n * 1e-15."""

    @staticmethod
    def tensor_power(u, psi, n):
        """U^(x)n |psi> without forming the 2^n x 2^n matrix."""
        t = psi.reshape((2,) * n)
        for axis in range(n):
            t = np.moveaxis(np.tensordot(u, t, axes=([1], [axis])), 0, axis)
        return t.reshape(-1)

    @pytest.mark.parametrize("n", [14, 16])
    def test_product_state_equals_its_stream(self, n):
        rng = np.random.default_rng(113 + n)
        stream = [random_qubit(rng) for _ in range(n)]
        vec = stream[0]
        for q in stream[1:]:
            vec = np.kron(vec, q)
        a, b = run_full_state(vec, 2), branch_distribution(stream, 2)
        assert list(a.entries) == list(b.entries)
        for steps, p in b.entries.items():
            assert abs(a.entries[steps] - p) <= n * 1e-15

    @pytest.mark.parametrize("ones", [0, 5])
    def test_symmetric_state_is_the_one_row_label(self, ones):
        """|0>^(x)n, and the Dicke state of `ones` excitations, lie in the
        symmetric subspace: lam = (n) with mass 1."""
        n = 16
        vec = np.array([bin(i).count("1") == ones for i in range(2 ** n)], dtype=float)
        dist = run_full_state(vec / np.linalg.norm(vec), 2)
        assert abs(dist.marginal[Partition((n, 0))] - 1.0) <= n * 1e-15
        assert abs(sum(dist.entries.values()) - 1.0) <= n * 1e-15

    def test_marginal_invariances(self):
        n = 14
        rng = np.random.default_rng(127)
        psi = haar_state(2 ** n, rng)
        want = run_full_state(psi, 2).marginal
        rotated = self.tensor_power(haar_unitary(2, rng), psi, n)
        permuted = psi.reshape((2,) * n).transpose(rng.permutation(n)).reshape(-1)
        for state in (rotated, permuted):
            got = run_full_state(state, 2).marginal
            assert list(got) == list(want)
            for lam, p in want.items():
                assert abs(got[lam] - p) <= n * 1e-15


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


def walk_pushing_every_leaf(d, n, root, outcomes_fn, prune):
    """The walk with every node pushed, the leaves too, each node's
    children in reverse; a leaf is recorded when it is popped."""
    entries, marginal, pruned = {}, {}, 0.0
    stack = [(1, one_box(d), root, _weight(root), ())]
    while stack:
        k, lam, cur, w, steps = stack.pop()
        if k == n:
            entries[steps] = w
            marginal[lam] = marginal.get(lam, 0.0) + w
            continue
        for j, target, p, sub in reversed(outcomes_fn(k, lam, cur)):
            if p < prune:
                pruned += p
                continue
            stack.append((k + 1, target, sub, p, steps + (j,)))
    return entries, marginal, pruned


def product_outcomes(stream):
    """The depth-first walk's outcomes function for a product stream."""
    return lambda k, lam, amp: node_outcomes(cg_transform(lam), amp, stream[k])


def full_outcomes(k, lam, cur):
    """The depth-first walk's outcomes function for a full state."""
    return node_outcomes(cg_transform(lam), cur)


def one_column(t, state, qudit=None):
    """`_expand` on one node, as `step` runs a density-matrix step: (j,
    lam+e_j, weight, unnormalized part) per block of t."""
    return [(j, target, w[0], sub[..., 0])
            for j, target, w, sub in _expand(t, state[..., None], qudit)]


def walk_modes(rng):
    """(name, d, n, root, outcomes_fn, run) per mode, outcomes_fn driving
    the depth-first reference walk and run(prune) calling the sampler's
    public entry point on the same input."""
    def dist(name, d, stream):
        return (name, d, len(stream), stream[0], product_outcomes(stream),
                lambda prune: branch_distribution(stream, d, prune=prune))

    def full(name, d, state):
        n = round(math.log(len(state), d))
        return (name, d, n, state, full_outcomes,
                lambda prune: run_full_state(state, d, prune=prune))

    qubits = [random_qubit(rng) for _ in range(7)]
    # at 11 qubits many a node after 10 prunes both of its children,
    # whose order of addition moves the last bit of the pruned mass
    more = [random_qubit(rng) for _ in range(11)]
    qutrits = [haar_state(3, rng) for _ in range(4)]
    mixed = [random_density(2, rng) for _ in range(5)]
    vec, rho = haar_state(2 ** 6, rng), random_density(3 ** 3, rng, rank=3)
    return [dist("qubits", 2, qubits), dist("more qubits", 2, more),
            dist("qutrits", 3, qutrits), dist("mixed", 2, mixed),
            full("full", 2, vec), full("full-rho", 3, rho)]


class TestLeavesAtTheirParent:
    """The depth-first reference walk (tests/reference_walk.py): a node
    after n - 1 qudits writes its children, the leaves, into the result
    itself.  Its numbers are those of a walk that pushes and pops every
    leaf, bit for bit, and a walk over the budget is refused at the same
    leaf, with no node expanded past it."""

    @pytest.mark.parametrize("prune", [0.0, 1e-12, 3e-3, 1e-2, 3e-2, 0.2])
    def test_equals_the_walk_that_pushes_every_leaf(self, prune):
        for name, d, n, root, outcomes_fn, _ in walk_modes(np.random.default_rng(83)):
            entries, marginal, pruned = walk_pushing_every_leaf(d, n, root, outcomes_fn, prune)
            dist = depth_first(d, n, root, outcomes_fn, prune)
            assert list(dist.entries.items()) == list(entries.items()), name
            assert list(dist.marginal.items()) == list(marginal.items()), name
            assert dist.pruned == pruned, name

    @pytest.mark.parametrize("kind", ["dist", "full"])
    def test_refused_at_the_first_leaf_past_the_room(self, monkeypatch, kind):
        """With room for k of the N leaves the walk is refused at leaf
        k + 1, naming that count, having expanded only the nodes on the
        way to it: the proper prefixes of the first k + 1 leaves."""
        rng = np.random.default_rng(89)
        calls = []
        if kind == "dist":
            stream = [random_qubit(rng) for _ in range(8)]
            root, held, outcomes_fn = stream[0], 0, product_outcomes(stream)
        else:
            root = haar_state(2 ** 8, rng)
            held, outcomes_fn = 64 * root.size, full_outcomes

        def run():
            counting = lambda *a: calls.append(a) or outcomes_fn(*a)  # noqa: E731
            return depth_first(2, 8, root, counting, sampler.DEFAULT_PRUNE, held)

        full = run()  # builds every CG transform
        leaves = list(full.entries)
        assert full.pruned == 0 and len(leaves) == 70
        for k in (0, 1, 2, 3, 17, 34, 35, 69):
            for spare in (0, _leaf_bytes(8) - 1):
                calls.clear()
                monkeypatch.setattr(errors, "MEMORY_BUDGET", held + k * _leaf_bytes(8) + spare)
                with pytest.raises(SizeLimitError, match=rf"a walk of {k + 1} leaves needs"):
                    run()
                prefixes = {s[:i] for s in leaves[:k + 1] for i in range(len(s))}
                assert len(calls) == len(prefixes), (k, spare)
        monkeypatch.setattr(errors, "MEMORY_BUDGET", held + 70 * _leaf_bytes(8))
        assert run().entries == full.entries

    @pytest.mark.parametrize("d", [2, 3])
    def test_one_qudit_is_its_own_leaf(self, monkeypatch, d):
        """At n = 1 the root is the only leaf, of its own weight; no
        transform is looked up, and a budget with no room for it refuses
        it."""
        rng = np.random.default_rng(97 + d)
        lookups = counted(monkeypatch, "cg_transform")
        vec, rho = haar_state(d, rng), random_density(d, rng)
        for dist in (branch_distribution([vec], d), branch_distribution([rho], d),
                     run_full_state(vec, d), run_full_state(rho, d)):
            assert list(dist.entries) == [()]
            assert abs(dist.entries[()] - 1.0) <= 1e-12
            assert list(dist.marginal) == [one_box(d)]
            assert dist.marginal[one_box(d)] == dist.entries[()]
            assert dist.pruned == 0.0
        assert lookups == []
        if d == 2:
            reg = register_branch_distribution([vec])
            assert list(reg.entries) == [()] and list(reg.marginal) == [one_box(2)]
        monkeypatch.setattr(errors, "MEMORY_BUDGET", _leaf_bytes(1) - 1)
        with pytest.raises(SizeLimitError, match="a walk of 1 leaves"):
            branch_distribution([vec], d)
        monkeypatch.setattr(errors, "MEMORY_BUDGET", 64 * d + _leaf_bytes(1) - 1)
        with pytest.raises(SizeLimitError, match="a walk of 1 leaves"):
            run_full_state(vec, d)


def counted(monkeypatch, name):
    """Count the calls of the sampler's function `name`."""
    calls, fn = [], getattr(sampler, name)
    monkeypatch.setattr(sampler, name, lambda *a, **kw: calls.append(a) or fn(*a, **kw))
    return calls


def assert_close(got, want, name):
    """The same keys in the same order, and floats within 1e-15: the
    level walk weighs a block by summing |x|^2 down a column, where the
    depth-first walk takes np.vdot."""
    for a, b in ((got.entries, want.entries), (got.marginal, want.marginal)):
        assert list(a) == list(b), name
        assert all(abs(a[key] - b[key]) <= 1e-15 for key in a), name
    assert abs(got.pruned - want.pruned) <= 1e-15, name


class TestLevelWalk:
    """The level-by-level walk against the depth-first reference
    (tests/reference_walk.py), and its trace and memory contracts."""

    @pytest.mark.parametrize("prune", [0.0, sampler.DEFAULT_PRUNE, 1e-2, 0.3])
    def test_matches_the_depth_first_walk(self, monkeypatch, prune):
        rng = np.random.default_rng(101)
        modes = walk_modes(rng)
        extra = [
            [haar_state(2, rng) for _ in range(12)],
            [haar_state(3, rng) for _ in range(7)],
            [haar_state(4, rng) for _ in range(5)],
            [haar_state(2, rng) for _ in range(3)],  # paths over 0.3 survive
            # vectors, then a density matrix, then vectors again
            [haar_state(2, rng) for _ in range(3)] + [random_density(2, rng)]
            + [haar_state(2, rng) for _ in range(3)],
            [random_density(3, rng)] + [haar_state(3, rng) for _ in range(3)],
            [np.eye(2) / 2] * 10,
            [np.eye(3) / 3] * 6,
        ]
        for stream in extra:
            d = len(stream[0])
            modes.append((f"d={d} n={len(stream)}", d, len(stream), stream[0],
                          product_outcomes(stream),
                          lambda prune, s=stream, d=d: branch_distribution(s, d, prune=prune)))
        # runs of 64 entries: the 14 nodes at (5, 2) after 7 of these qubits,
        # of side 8, take 14 runs and the 14 at (4, 3), of side 4, four
        several = [random_density(2, rng) for _ in range(8)]

        def in_short_runs(prune):
            with monkeypatch.context() as m:
                m.setattr(sampler, "_RUN_ENTRIES", 64)
                return branch_distribution(several, 2, prune=prune)

        modes.append(("short runs", 2, 8, several[0], product_outcomes(several), in_short_runs))
        for name, d, n, root, outcomes_fn, run in modes:
            held = 64 * root.size if outcomes_fn is full_outcomes else 0
            assert_close(run(prune), depth_first(d, n, root, outcomes_fn, prune, held), name)

    @pytest.mark.parametrize("kind", ["iid", "mixed", "full"])
    def test_run_length_moves_no_bit(self, monkeypatch, kind):
        """A density-matrix group expanded one column at a time, in short
        runs or all at once gives the same paths and weights, bit for bit:
        each entry is the product and rotation of its own column."""
        rng = np.random.default_rng(107)
        if kind == "full":
            state = random_density(2 ** 7, rng, rank=3)
            run = lambda: run_full_state(state, 2)  # noqa: E731
        else:
            stream = ([np.eye(2) / 2] * 10 if kind == "iid" else
                      [random_density(3, rng)] + [haar_state(3, rng)]
                      + [random_density(3, rng) for _ in range(4)])
            run = lambda: branch_distribution(stream, len(stream[0]))  # noqa: E731
        want = run()
        for entries in (1, 64, 1 << 24):
            monkeypatch.setattr(sampler, "_RUN_ENTRIES", entries)
            got = run()
            assert np.array_equal(got.paths, want.paths), entries
            assert np.array_equal(got.weights, want.weights), entries
            assert got.marginal == want.marginal and got.pruned == want.pruned, entries

    @pytest.mark.parametrize("kind", ["dist", "full"])
    def test_one_lookup_per_node(self, monkeypatch, kind):
        """The walk looks the transform up once per node it expands, as
        perfbench counts branch nodes: with nothing pruned, once per
        proper prefix of the leaves."""
        rng = np.random.default_rng(103)
        if kind == "dist":
            stream = [haar_state(3, rng) for _ in range(6)]
            run = lambda: branch_distribution(stream, 3)  # noqa: E731
        else:
            state = haar_state(2 ** 9, rng)
            run = lambda: run_full_state(state, 2)  # noqa: E731
        lookups = counted(monkeypatch, "cg_transform")
        dist = run()
        assert dist.pruned == 0
        prefixes = {s[:i] for s in dist.entries for i in range(len(s))}
        assert len(lookups) == len(prefixes)

    @pytest.mark.parametrize("kind", ["dist", "full"])
    def test_refused_past_the_leaf_room(self, monkeypatch, kind):
        """With room for k of the N leaves, and for every level, the walk
        is refused naming leaf k + 1; with room for N it runs.  A `dist`
        level needs `_level_bytes` of the budget beside the caller's
        held bytes, so small rooms leave `dist` out."""
        rng = np.random.default_rng(89)
        if kind == "dist":
            stream = [random_qubit(rng) for _ in range(8)]
            run, held, rooms = (lambda: branch_distribution(stream, 2)), 0, (40, 55, 69)
        else:
            vec = haar_state(2 ** 8, rng)
            run, held, rooms = ((lambda: run_full_state(vec, 2)), 64 * vec.size,
                                (0, 1, 17, 35, 69))
        full = run()  # builds every CG transform
        assert full.pruned == 0 and len(full.entries) == 70
        for k in rooms:
            for spare in (0, _leaf_bytes(8) - 1):
                monkeypatch.setattr(errors, "MEMORY_BUDGET", held + k * _leaf_bytes(8) + spare)
                with pytest.raises(SizeLimitError, match=rf"a walk of {k + 1} leaves needs"):
                    run()
        monkeypatch.setattr(errors, "MEMORY_BUDGET", held + 70 * _leaf_bytes(8))
        assert run().entries == full.entries


class TestOutcomes:
    """One node's step: `_expand` on one column applies t (x) I_rest on the
    leading axis, a d=2 transform as its rotations and a d >= 3 one as its
    sparse rows, and so does the depth-first walk's `node_outcomes`; a
    kron-padded dense operator is the reference."""

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

    @staticmethod
    def check(got, want, mixed):
        assert [(j, target) for j, target, _, _ in got] == \
            [(j, target) for j, target, _ in want]
        for (_, _, w, sub), (_, _, ref) in zip(got, want):
            assert sub.shape == ref.shape
            assert np.max(np.abs(sub - ref)) <= 1e-15
            ref_w = np.trace(ref).real if mixed else np.vdot(ref, ref).real
            assert abs(w - ref_w) <= 1e-15

    @pytest.mark.parametrize("d,parts", [(2, (3, 1)), (3, (2, 1, 0)), (2, (4, 4)),
                                         (2, (17, 5)), (2, (60, 0))])
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
        want = self.kron_reference(t, big, rest)
        self.check(one_column(t, big), want, mixed)
        self.check(node_outcomes(t, big), want, mixed)

    @pytest.mark.parametrize("parts,rest", [((3, 1), 1), ((2, 0), 4), ((40, 0), 1),
                                            ((2, 1, 0), 1), ((2, 1, 0), 3)])
    def test_second_axis_takes_a_batch(self, parts, rest):
        """`_apply` on axis 1 of a (side, side, m) stack rotates each
        column's matrix as the leading-axis kernel rotates its transpose,
        bit for bit, at d=2 (sides 6, 24 and 82) and d=3."""
        rng = np.random.default_rng(sum(parts) + rest)
        t = cg_transform(Partition(parts))
        side = t.size * rest
        x = rng.normal(size=(side, side, 5)) + 1j * rng.normal(size=(side, side, 5))
        got = t._apply(x, axis=1)
        assert got.shape == x.shape
        for i in range(5):
            assert np.array_equal(got[..., i], t._apply(x[..., i].T.copy()).T)

    # sides 375, 256 (16-entry rows), 513, 1029 and 1440
    @pytest.mark.parametrize("parts,power,mixed", [
        ((10, 6, 2), 1, False), ((10, 6, 2), 1, True), ((3, 2, 1, 0), 1, False),
        ((3, 2, 1, 0), 1, True), ((17, 0, 0), 0, False), ((17, 0, 0), 1, False),
        ((17, 0, 0), 0, True), ((12, 6, 0), 0, False), ((12, 6, 0), 1, False),
        ((5, 3, 1, 0), 0, False)])
    def test_rows_match_kron(self, parts, power, mixed):
        """The d >= 3 rows on larger sides, where the full cross product of
        test_matches_kron would build dense references of gigabytes."""
        self.test_matches_kron(len(parts), parts, power, mixed)

    @pytest.mark.parametrize("parts", [(1, 0), (4, 4), (17, 5), (60, 0), (1, 0, 0),
                                       (2, 1, 0), (6, 4, 2), (17, 0, 0), (3, 2, 1, 0)])
    @pytest.mark.parametrize("state_mixed,qubit_mixed",
                             [(False, False), (False, True), (True, False)])
    def test_product_step_matches_kron(self, parts, state_mixed, qubit_mixed):
        """The product step against the dense transform on the Kronecker
        product.  A vector coupled to a pure qubit folds the qubit into the
        rotations (`_split` of `_product`); at d >= 3 the coupled vector
        goes through the rows.  A mixed factor takes `_expand` on one
        column, as `step` does, and the depth-first walk's `node_outcomes`."""
        rng = np.random.default_rng(sum(parts))
        lam = Partition(parts)
        d = lam.d
        t = cg_transform(lam)
        state = haar_state(t.size // d, rng)
        qubit = random_qubit(rng) if d == 2 else haar_state(d, rng)
        if state_mixed:
            state = random_density(len(state), rng)
        if qubit_mixed:
            qubit = random_density(d, rng)
        mixed = state_mixed or qubit_mixed
        want = self.kron_reference(t, np.kron(promoted(state, mixed), promoted(qubit, mixed)), 1)
        if mixed:
            self.check(one_column(t, state, qubit), want, mixed)
        else:
            self.check(_split(t, t._product(state, qubit)), want, mixed)
        self.check(node_outcomes(t, state, qubit), want, mixed)


class TestCouple:
    """`_couple` broadcasts the density matrix that np.kron forms from the
    factors, each pure one promoted to |v><v|, bit for bit, for each
    state of a stack along the trailing axis."""

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
        want = np.kron(promoted(state, True), promoted(qudit, True))
        assert np.array_equal(_couple(state[..., None], qudit)[..., 0], want)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("state_mixed", [False, True])
    @pytest.mark.parametrize("qudit_mixed", [False, True])
    def test_batch_matches_each_column(self, d, state_mixed, qudit_mixed):
        """A stack of states along a trailing axis couples each column as
        np.kron couples it alone, bit for bit, as the level walk's
        density-matrix runs need."""
        rng = np.random.default_rng(89 + d)
        states = [haar_state(4 * d, rng) for _ in range(3)]
        if state_mixed:
            states = [random_density(4 * d, rng) for _ in states]
        qudit = random_density(d, rng) if qudit_mixed else haar_state(d, rng)
        got = _couple(np.stack(states, axis=-1), qudit)
        for i, state in enumerate(states):
            want = np.kron(promoted(state, True), promoted(qudit, True))
            assert np.array_equal(got[..., i], want)

    def test_register_vector(self):
        rng = np.random.default_rng(83)
        res = register_run([random_qubit(rng) for _ in range(5)], seed=3)
        dimq = res.lam.parts[0] - res.lam.parts[1] + 1
        amplitudes, qubit = res.amplitudes[:dimq], random_qubit(rng)
        want = np.kron(promoted(amplitudes, True), promoted(qubit, True))
        assert np.array_equal(_couple(amplitudes[:, None], qubit)[..., 0], want)


def schur_polynomial(lam, r):
    """s_lam(r) as the sum over the GT patterns of lam of r^weight."""
    return sum(np.prod(r ** np.array(pattern_weight(p))) for p in gt_patterns(lam))


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
        assert abs(sum(dist.entries.values()) + dist.pruned - 1.0) <= 1e-12
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


def register_lengths(stream, seed=0):
    """The length of the register that register_run holds after each
    prefix of `stream`: 2^(width-1) before step k, 2^(width - removal)
    kept after it."""
    return [len(register_run(stream[:k], seed=seed).amplitudes)
            for k in range(1, len(stream) + 1)]


class TestRegisterMode:
    def test_figure_layout_k3(self):
        # at k=3, lambda=(3,0): CG blocks are 5- and 3-dimensional, laid out
        # as top/bottom halves of a 16-dim register; the leading qubit
        # indexes the measured branch
        rng = np.random.default_rng(59)
        stream = [random_qubit(rng) for _ in range(4)]
        res = register_run([stream[0], KET0, KET0], seed=5)
        if res.lam != Partition((3, 0)):  # drive lambda to (3,0)
            res = register_run([KET0] * 3, seed=5)
        assert res.lam.n == 3
        assert qudit_width(3, 2) == 4  # 16-dim register during the step
        assert 2 * len(res.amplitudes) == 2 ** 4
        outcomes = _register_outcomes(3, res.lam, res.amplitudes, stream[3])
        assert [(j, target) for j, target, _, _ in outcomes] == \
            [(0, Partition((4, 0))), (1, Partition((3, 1)))]
        assert [dim_unitary(target) for _, target, _, _ in outcomes] == [5, 3]
        assert [len(sub) for _, _, _, sub in outcomes] == [8, 8]  # L discarded

    def test_width_sequence(self):
        lengths = register_lengths([KET0] * 10)
        widths = [(2 * n).bit_length() - 1 for n in lengths[:-1]]
        assert [2 ** w for w in widths] == [2 * n for n in lengths[:-1]]
        assert widths == [math.ceil(math.log2(2 * k + 4)) for k in range(1, 10)]

    def test_removal_rule(self):
        lengths = register_lengths([KET0] * 12)
        for k, (before, kept) in enumerate(zip(lengths, lengths[1:]), start=1):
            width = (2 * before).bit_length() - 1
            want = math.ceil(math.log2(2 * k + 4)) != math.ceil(math.log2(k + 3))
            assert kept == 2 ** (width - want)

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
            register_run([MIXED])

    @pytest.mark.parametrize("run", [register_run, lambda s: run_stream(s, 2)])
    def test_no_subnormal_amplitudes(self, run):
        """Both modes normalize alike: after 1500 copies of (0.6, 0.8i) no
        real or imaginary part of the state is subnormal."""
        parts = run([np.array([0.6, 0.8j])] * 1500).amplitudes.view(float)
        assert not np.any((parts != 0) & (np.abs(parts) < np.finfo(float).tiny))

    @pytest.mark.parametrize("position", [1, 2])
    @pytest.mark.parametrize("entry", [register_run, register_branch_distribution])
    def test_rejects_density_matrices_at_any_position(self, entry, position):
        stream = [KET0, KET0, KET0]
        stream[position] = MIXED
        with pytest.raises(InvalidInputError, match="pure qubit states"):
            entry(stream)

    def test_padding_assertion(self):
        vec = np.array([1.0, 0.0, 0.0, 0.5], dtype=complex)
        with pytest.raises(NumericalCollapseError, match="padding"):
            _register_outcomes(1, one_box(2), vec, KET0)

    def test_register_length_check(self):
        # after k=3 qubits the register holds 2^(4-1) = 8 amplitudes, not 4
        vec = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        with pytest.raises(NumericalCollapseError, match="amplitudes"):
            _register_outcomes(3, Partition((3, 0)), vec, KET0)


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


def nondegenerate_density(d, seed):
    """A rho with spectrum (d, d-1, ..., 1)/sum in a Haar basis, so no
    branch of rho^(x)n has a vanishing probability."""
    r = np.arange(d, 0, -1) / (d * (d + 1) / 2)
    u = haar_unitary(d, np.random.default_rng(seed))
    return u @ np.diag(r) @ u.conj().T, r


class TestUnravelling:
    """`run_stream` couples in one eigenvector of each density matrix,
    drawn with its eigenvalue as probability.  The measurement is linear in
    each qudit, so the (lambda, path) law is the density-matrix step's."""

    @pytest.mark.parametrize("d,n", [(2, 6), (3, 4)])
    def test_average_over_components_is_the_mixed_law(self, d, n):
        rho, _ = nondegenerate_density(d, 97 + d)
        w, v = np.linalg.eigh(rho)
        want = branch_distribution([rho] * n, d, prune=0.0)
        avg = dict.fromkeys(want.entries, 0.0)
        for picks in itertools.product(range(d), repeat=n):
            dist = branch_distribution([v[:, i] for i in picks], d, prune=0.0)
            weight = np.prod(w[list(picks)])
            for steps, p in dist.entries.items():
                avg[steps] += weight * p
        for steps, p in want.entries.items():
            assert abs(avg[steps] - p) <= n * 1e-15

    @pytest.mark.parametrize("d,n,trials", [(2, 6, 10000), (3, 4, 4000)])
    def test_trajectory_histogram_matches_the_mixed_law(self, d, n, trials):
        """Path and label counts over `trials` seeds are within `z_bound`
        binomial standard deviations of the exact mixed `dist` law and of
        dim P_lam * s_lam(r)."""
        z_bound = 5.0
        rho, r = nondegenerate_density(d, 101 + d)
        stream = [rho] * n
        exact = branch_distribution(stream, d, prune=0.0)
        paths, labels = Counter(), Counter()
        for seed in range(trials):
            res = run_stream(stream, d, seed=seed)
            paths[res.path.steps] += 1
            labels[res.lam] += 1

        def z(count, p):
            return abs(count - trials * p) / math.sqrt(trials * p * (1 - p))

        assert set(paths) <= set(exact.entries)
        assert max(z(paths[s], p) for s, p in exact.entries.items()) <= z_bound
        law = {lam: dim_symmetric(lam) * schur_polynomial(lam, r)
               for lam in partitions_of(n, d)}
        assert abs(sum(law.values()) - 1.0) <= 1e-12
        assert set(labels) <= set(law)
        assert max(z(labels[lam], p) for lam, p in law.items()) <= z_bound

    def test_pure_stream_draws_nothing(self):
        """A vector stream runs the steps of `init_state` and `step` with
        the run's seed, amplitude for amplitude."""
        rng = np.random.default_rng(103)
        stream = [haar_state(3, rng) for _ in range(7)]
        state = init_state(stream[0], 3, seed=11)
        for q in stream[1:]:
            state, _, _ = step(state, q)
        res = run_stream(stream, 3, seed=11)
        assert res.path.steps == tuple(state.path)
        assert np.array_equal(res.amplitudes, state.amplitudes)

    def test_each_distinct_element_is_decomposed_once(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
        rho, _ = nondegenerate_density(2, 107)
        res = run_stream([rho] * 9 + [MIXED, KET0, MIXED], 2, seed=5)
        assert len(calls) == 2
        assert res.amplitudes.ndim == 1
        assert abs(np.linalg.norm(res.amplitudes) - 1.0) <= 1e-9

    def test_rank_one_density_matrix_gives_its_vector(self):
        psi = haar_state(3, np.random.default_rng(109))
        for seed in range(5):
            res = run_stream([np.outer(psi, psi.conj())], 3, seed=seed)
            assert abs(abs(np.vdot(psi, res.amplitudes)) - 1.0) <= 1e-12
