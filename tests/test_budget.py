"""The memory budget: each guarded allocator's byte estimate is an upper
bound on its traced peak, the budget refuses a request one byte below its
estimate and runs it at the estimate, and an oversized CLI request exits 2
under an address-space limit instead of running out of memory."""

import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cg_reference import enumerate_paths, haar_state
from schurstream import cg, cli, errors, sampler
from schurstream.cli import run
from schurstream.errors import SizeLimitError
from schurstream.oracle import _transform_bytes
from schurstream.partitions import (LatticePath, Partition, dim_unitary,
                                    partitions_of)
from schurstream.sampler import (_leaf_bytes, branch_distribution, init_state,
                                 run_full_state, step)

SRC = Path(__file__).resolve().parent.parent / "src"
DATA = Path(__file__).parent / "data"
ADDRESS_LIMIT = 2500 * 10 ** 6  # bytes of address space for the child


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def cg_side(d, parts):
    return d * dim_unitary(Partition(parts))


def fresh_cache(monkeypatch, cache=None):
    """Install `cache`, or an empty dict, as the CG cache, with a zero byte
    count; returns it."""
    cache = {} if cache is None else cache
    monkeypatch.setattr(cg, "_cache", cache)
    monkeypatch.setattr(cg, "_cache_bytes", 0)
    return cache


def cg_report_bytes(size):
    return 440 * size * size + 4096 * size


def iid_mixed(tmp_path, n, d=2):
    p = tmp_path / f"iid_{d}_{n}.json"
    p.write_text(json.dumps({"iid": {"rho": (np.eye(d) / d).tolist(), "n": n}}))
    return str(p)


def haar_qubits(tmp_path, n, seed=0):
    """A stream of n Haar-random pure qubits, whose walk reaches every
    lattice path, as the maximally mixed one does."""
    rng = np.random.default_rng(seed)
    p = tmp_path / f"haar_{n}.json"
    p.write_text(json.dumps([[[z.real, z.imag] for z in haar_state(2, rng)]
                             for _ in range(n)]))
    return str(p)


def random_state(n, mixed, seed=0):
    rng = np.random.default_rng(seed)
    size = 2 ** n
    if not mixed:
        v = rng.normal(size=size) + 1j * rng.normal(size=size)
        return v / np.linalg.norm(v)
    a = rng.normal(size=(size, 3)) + 1j * rng.normal(size=(size, 3))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


class TestEstimatesAreUpperBounds:
    @pytest.mark.parametrize("d,parts", [(2, (200, 0)), (3, (6, 3, 0)), (2, (20000, 0)),
                                         (3, (12, 6, 0)), (4, (5, 3, 1, 0)),
                                         (6, (2, 1, 0, 0, 0, 0))])
    def test_cg_build(self, monkeypatch, d, parts):
        fresh_cache(monkeypatch)
        peak, t = traced_peak(cg.cg_transform, Partition(parts))
        assert peak <= cg._build_bytes(d, t.size)

    @pytest.mark.parametrize("d,n", [(2, 60), (3, 12), (4, 7)])
    def test_cache_bytes(self, monkeypatch, d, n):
        """The cache counts each entry at the bytes it holds, over what the
        entry keeps, and is emptied before a build would take it over its
        cap: QUBIT_CACHE_BYTES at d=2, the budget otherwise."""
        labels = [lam for k in range(1, n + 1) for lam in partitions_of(k, d)]
        cache = fresh_cache(monkeypatch)
        tracemalloc.start()
        try:
            for lam in labels:
                t = cg.cg_transform(lam)
                if d == 2:
                    t.rotations  # laid out on first use, counted from the build
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(cache) == len(labels)
        assert kept <= cg._cache_bytes
        fresh_cache(monkeypatch, CountingCache())
        monkeypatch.setattr(CountingCache, "clears", 0)
        # every build fits, but not next to every cached transform
        owner, cap = (cg, "QUBIT_CACHE_BYTES") if d == 2 else (errors, "MEMORY_BUDGET")
        monkeypatch.setattr(owner, cap,
                            max(cg._build_bytes(d, cg_side(d, lam.parts)) for lam in labels))
        for lam in labels:
            cg.cg_transform(lam)
            assert cg._cache_bytes <= getattr(owner, cap)
        assert CountingCache.clears > 0

    @pytest.mark.parametrize("d,parts", [(2, (40, 0)), (3, (5, 2, 0))])
    def test_cached_density_lookup_is_refused(self, monkeypatch, d, parts):
        """A density-matrix step over the budget is refused on a label that
        a vector lookup has already built."""
        fresh_cache(monkeypatch)
        lam = Partition(parts)
        cg.cg_transform(lam)
        monkeypatch.setattr(errors, "MEMORY_BUDGET",
                            cg._step_bytes(cg_side(d, parts)) - 1)
        with pytest.raises(SizeLimitError, match="density-matrix step"):
            cg.cg_transform(lam, mixed=True)

    @pytest.mark.parametrize("d,n", [(2, 59), (3, 8)])
    def test_density_lookup_leaves_step_room(self, monkeypatch, d, n):
        """A density-matrix step on a cached label empties the cache,
        keeping that label, when the cache and the step would not fit the
        budget together, and leaves it alone when they would."""
        cache = fresh_cache(monkeypatch)
        labels = [lam for k in range(1, n + 1) for lam in partitions_of(k, d)]
        for lam in labels:
            cg.cg_transform(lam)
        lam = max(labels, key=lambda lam: dim_unitary(lam))
        t, room = cache[lam.parts], cg._step_bytes(cg_side(d, lam.parts))
        filled = cg._cache_bytes
        monkeypatch.setattr(errors, "MEMORY_BUDGET", filled + room)
        assert cg.cg_transform(lam, mixed=True) is t
        assert len(cache) == len(labels) and cg._cache_bytes == filled
        monkeypatch.setattr(errors, "MEMORY_BUDGET", filled + room - 1)
        assert cg.cg_transform(lam, mixed=True) is t
        assert list(cache) == [lam.parts]
        assert cg._cache_bytes + room <= errors.MEMORY_BUDGET

    def test_density_lookup_keeps_the_shared_rows(self, monkeypatch):
        """A density-matrix lookup whose eviction keeps a label that shares
        rows keeps its reduced entry too when the step still fits beside
        both, so the next label with that reduced form builds nothing;
        one byte short of that, the shared label is kept alone."""
        builds = []
        cg_qubit = cg.cg_qubit
        monkeypatch.setattr(cg, "cg_qubit", lambda lam: builds.append(lam) or cg_qubit(lam))
        for room, kept in [(4096, [(30, 10), (20, 0)]), (4095, [(30, 10)])]:
            cache = fresh_cache(monkeypatch)
            for parts in [(20, 0), (30, 10), (10, 0)]:
                cg.cg_transform(Partition(parts))
            t, step_room = cache[(30, 10)], cg._step_bytes(cg_side(2, (30, 10)))
            budget = t._held_bytes() + room + step_room
            assert cg._cache_bytes + step_room > budget  # the lookup evicts
            monkeypatch.setattr(errors, "MEMORY_BUDGET", budget)
            assert cg.cg_transform(Partition((30, 10)), mixed=True) is t
            assert sorted(cache) == sorted(kept)
            assert cg._cache_bytes == t._held_bytes() + 4096 * (len(kept) - 1)
            assert cg._cache_bytes + step_room <= budget
            builds.clear()
            cg.cg_transform(Partition((31, 11)))
            assert builds == ([] if len(kept) == 2 else [Partition((20, 0))])

    @pytest.mark.parametrize("d,lam", [(2, "60,0"), (3, "5,2,0")])
    def test_cg_report(self, monkeypatch, d, lam):
        fresh_cache(monkeypatch)
        peak, (code, _) = traced_peak(run, ["cg", "--d", str(d), "--lambda", lam])
        assert code == 0
        assert peak <= cg_report_bytes(cg_side(d, Partition.from_string(lam).parts))

    @pytest.mark.parametrize("n,fmt", [(11, "json"), (13, "csv")])
    def test_dist_leaves(self, tmp_path, n, fmt):
        stream = iid_mixed(tmp_path, n)
        warm = branch_distribution([np.eye(2) / 2] * n, 2)  # builds every CG transform
        peak, (code, _) = traced_peak(
            run, ["dist", "--stream", stream, "--format", fmt])
        assert code == 0
        assert peak <= len(warm.entries) * _leaf_bytes(n)

    @pytest.mark.parametrize("d,n,mixed", [(2, 14, False), (3, 9, False), (5, 6, False),
                                           (2, 11, True), (3, 7, True), (2, 14, True)])
    def test_dist_levels(self, monkeypatch, d, n, mixed):
        """The traced peak of each `dist` level but the last, read when the
        next level is checked, is within its estimate, beside the largest
        density-matrix step of a mixed level, which the step's lookup
        checks on its own."""
        rng = np.random.default_rng(d + n)
        stream = [budget_rho(d)] * n if mixed else [haar_state(d, rng) for _ in range(n)]
        branch_distribution(stream, d)  # builds every CG transform
        levels = []
        check = sampler.check_budget

        def spy(request, estimate):
            if request.startswith("level "):
                levels.append((tracemalloc.get_traced_memory()[1], estimate))
                tracemalloc.reset_peak()
            check(request, estimate)

        monkeypatch.setattr(sampler, "check_budget", spy)
        tracemalloc.start()
        try:
            branch_distribution(stream, d)
        finally:
            tracemalloc.stop()
        assert len(levels) == n - 1
        for k, ((_, estimate), (peak, _)) in enumerate(zip(levels, levels[1:]), start=1):
            step = cg._step_bytes(max(cg_side(d, lam.parts) for lam in partitions_of(k, d)))
            assert peak <= estimate + (step if mixed else 0), k

    @pytest.mark.parametrize("n,mixed", [(12, False), (8, True)])
    def test_full_state(self, n, mixed):
        state = random_state(n, mixed)
        run_full_state(state, 2)  # builds every CG transform
        peak, dist = traced_peak(run_full_state, state, 2)
        assert peak <= 64 * state.size + len(dist.entries) * _leaf_bytes(n)

    @pytest.mark.parametrize("d,n", [(2, 8), (3, 5), (400, 1), (600, 1), (2, 12),
                                     (15, 3), (3, 8)])
    def test_oracle(self, tmp_path, d, n):
        """At n = 1 the compare stream's d x d density matrix, parsed from
        JSON, sets the peak (about 90 d^2), and at n = 3 the compare walk's
        last density-matrix step (about 15 D^2); elsewhere I/D and the
        level-(n-1) projectors do.  D = 4096 and 6561 are the largest qubit
        and qutrit oracles that the budget admits."""
        argv = ["oracle", "--d", str(d), "--n", str(n),
                "--compare", iid_mixed(tmp_path, n, d)]
        run(argv)
        peak, (code, _) = traced_peak(run, argv)
        assert code == 0
        assert peak <= _transform_bytes(n, d)

    def test_oracle_at_two_copies(self):
        """The largest n = 2 oracle the budget admits, d = 85.  A compare
        walk's density-matrix step there (about 64 D^2) is refused or
        admitted by cg._step_bytes, so the oracle's own work is read
        without one."""
        assert _transform_bytes(2, 86) > errors.MEMORY_BUDGET
        argv = ["oracle", "--d", "85", "--n", "2"]
        peak, (code, _) = traced_peak(run, argv)
        assert code == 0
        assert peak <= _transform_bytes(2, 85)

    def test_oracle_at_one_copy(self, tmp_path):
        """The largest n = 1 oracle the budget admits, d = 2672, with its
        compare stream's density matrix parsed from 36 MB of JSON: the max
        RSS of a fresh process, which counts the interpreter, numpy and
        every page the parse touches, is under the estimate.  Traced, the
        whole call peaks at 89 d^2 (608 MiB); tracing it here would take
        about 40 s and 2 GB."""
        d = 2672
        assert _transform_bytes(1, d + 1) > errors.MEMORY_BUDGET >= _transform_bytes(1, d)
        p = tmp_path / "iid.json"
        with open(p, "w") as f:  # the tokens json.dumps writes for I/d, a row at a time
            f.write('{"iid": {"n": 1, "rho": [')
            for i in range(d):
                row = ["0.0"] * d
                row[i] = repr(1 / d)
                f.write(("," if i else "") + "[" + ", ".join(row) + "]")
            f.write("]}}")
        child = ("import resource, sys\nfrom schurstream.cli import main\ncode = main()\n"
                 "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
                 "sys.exit(code)")
        env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", child, "oracle", "--d", str(d), "--n", "1",
                               "--compare", str(p)], stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stderr) * 1024 <= _transform_bytes(1, d)  # ru_maxrss is in KiB

    @pytest.mark.parametrize("n,d", [(2000, 2), (5000, 3)])
    def test_resources(self, n, d):
        peak, (code, _) = traced_peak(
            run, ["resources", "--n", str(n), "--d", str(d), "--epsilon", "0.01"])
        assert code == 0
        assert peak <= 1100 * (n - 1)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_sample_trials(self, tmp_path, fmt):
        """300 trials hold at most their records' estimate more than one
        trial does, whose trajectory's own work the CG budget covers."""
        argv = ["sample", "--stream", iid_mixed(tmp_path, 8), "--format", fmt,
                "--trials"]
        run(argv + ["300"])  # builds every CG transform these seeds reach
        one, _ = traced_peak(run, argv + ["1"])
        peak, (code, _) = traced_peak(run, argv + ["300"])
        assert code == 0
        assert peak <= one + 300 * cli._trial_bytes(8)

    @pytest.mark.parametrize("n,fmt", [(2, "json"), (1000, "json"), (1000, "csv")])
    def test_sample_report(self, tmp_path, monkeypatch, n, fmt):
        """The records and the report alone, for paths of n - 1 steps: each
        trajectory returns one fixed result."""
        path = LatticePath(((0, 1) * n)[:n - 1])
        result = sampler.RunResult(lam=path.endpoint(2), path=path,
                                   amplitudes=np.ones(1))
        monkeypatch.setattr(cli, "run_stream", lambda *args, **kwargs: result)
        stream = tmp_path / "zeros.json"
        stream.write_text(json.dumps([[1, 0]] * n))
        peak, (code, _) = traced_peak(run, ["sample", "--stream", str(stream),
                                            "--trials", "2000", "--format", fmt])
        assert code == 0
        assert peak <= 2000 * cli._trial_bytes(n)


class TestRefusedBelowTheEstimate:
    """One byte below the estimate the request exits 2 before it
    allocates; at the estimate it runs."""

    def test_cg_report(self, monkeypatch):
        cache = fresh_cache(monkeypatch)
        need = cg_report_bytes(cg_side(2, (5, 0)))
        monkeypatch.setattr(errors, "MEMORY_BUDGET", need - 1)
        code, out = run(["cg", "--d", "2", "--lambda", "5,0"])
        assert code == 2
        assert str(need) in json.loads(out)["error"]
        assert cache == {}
        monkeypatch.setattr(errors, "MEMORY_BUDGET", need)
        assert run(["cg", "--d", "2", "--lambda", "5,0"])[0] == 0

    def test_dist_leaves(self, tmp_path, monkeypatch):
        stream = haar_qubits(tmp_path, 6)
        assert run(["dist", "--stream", stream])[0] == 0  # builds the CG transforms
        need = 20 * _leaf_bytes(6)  # 6 Haar qubits have 20 leaves
        monkeypatch.setattr(errors, "MEMORY_BUDGET", need - 1)
        code, out = run(["dist", "--stream", stream])
        assert code == 2
        assert "20 leaves" in json.loads(out)["error"]
        monkeypatch.setattr(errors, "MEMORY_BUDGET", need)
        assert run(["dist", "--stream", stream])[0] == 0

    def test_unprunable_walk_before_any_work(self, tmp_path, monkeypatch):
        """With --prune 0 the walk reaches every one of the 20 lattice paths
        of 6 qubits: one byte below their leaves it exits 2 without
        coupling a qudit, and at them it runs."""
        stream = haar_qubits(tmp_path, 6)
        argv = ["dist", "--stream", stream, "--prune", "0"]
        assert run(argv)[0] == 0  # builds the CG transforms
        need = 20 * _leaf_bytes(6)

        def no_work(*args):
            pytest.fail("the walk started")

        with monkeypatch.context() as m:
            m.setattr(sampler, "cg_transform", no_work)  # a level's first work is a lookup
            m.setattr(errors, "MEMORY_BUDGET", need - 1)
            code, out = run(argv)
        assert code == 2
        assert "at least 20 leaves" in json.loads(out)["error"]
        monkeypatch.setattr(errors, "MEMORY_BUDGET", need)
        assert len(json.loads(run(argv)[1])["paths"]) == 20

    def test_dist_level(self, tmp_path, monkeypatch):
        """One byte below its first level's estimate, `dist` exits 2 before
        any product; at it, that level's product runs and the next level
        is refused."""
        stream = haar_qubits(tmp_path, 6)
        assert run(["dist", "--stream", stream])[0] == 0  # builds the CG transforms
        need = sampler._level_bytes([(Partition((1, 0)), 1)], False)
        products = []
        product = cg.QubitCG._product
        monkeypatch.setattr(cg.QubitCG, "_product",
                            lambda *args: products.append(args) or product(*args))
        monkeypatch.setattr(errors, "MEMORY_BUDGET", need - 1)
        code, out = run(["dist", "--stream", stream])
        assert code == 2
        assert f"level 1 of a walk, 1 nodes needs about {need} bytes" in json.loads(out)["error"]
        assert products == []
        monkeypatch.setattr(errors, "MEMORY_BUDGET", need)
        code, out = run(["dist", "--stream", stream])
        assert code == 2
        assert "level 2 of a walk" in json.loads(out)["error"]
        assert len(products) == 1

    def test_dist_level_on_iid_mixed_qubits(self, tmp_path, monkeypatch):
        """test_dist_level on I/2 (x) 6: one byte below the first level's
        estimate `dist` exits 2 before any rotation.  Each node's step
        (cg._step_bytes), which its lookup checks after the level, is
        larger than the level here: at the level's estimate that lookup
        refuses before any rotation, and at the step the level's two
        rotations run and a step of the next level is refused."""
        stream = iid_mixed(tmp_path, 6)
        assert run(["dist", "--stream", stream])[0] == 0  # builds the CG transforms
        need = sampler._level_bytes([(Partition((1, 0)), 1)], True)
        step = cg._step_bytes(4)
        assert step > need
        rotations = []
        rotate = cg.QubitCG._apply
        monkeypatch.setattr(cg.QubitCG, "_apply",
                            lambda *args, **kw: rotations.append(args) or rotate(*args, **kw))
        for budget, says in ((need - 1, f"level 1 of a walk, 1 nodes needs about {need} bytes"),
                             (need, f"a density-matrix step of side 4 at lambda=1,0 needs "
                                    f"about {step} bytes")):
            monkeypatch.setattr(errors, "MEMORY_BUDGET", budget)
            code, out = run(["dist", "--stream", stream])
            assert code == 2
            assert says in json.loads(out)["error"]
            assert rotations == []
        monkeypatch.setattr(errors, "MEMORY_BUDGET", step)
        code, out = run(["dist", "--stream", stream])
        assert code == 2
        assert "a density-matrix step of side 6 at lambda=2,0" in json.loads(out)["error"]
        assert [len(args[1]) for args in rotations[:2]] == [4, 4]

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_path_counts(self, d):
        counts = list(sampler._path_counts(d, 10))
        assert counts == [sum(len(enumerate_paths(lam)) for lam in partitions_of(n, d))
                          for n in range(1, 11)]

    def test_long_unprunable_walk_refused_at_once(self, monkeypatch):
        """Refused at the first level whose paths' leaves are over the
        budget, C(11, 5) = 462 paths of 11 boxes, not after counting all
        1000 levels."""
        monkeypatch.setattr(errors, "MEMORY_BUDGET", 400 * _leaf_bytes(1000))
        with pytest.raises(SizeLimitError, match="at least 462 leaves"):
            branch_distribution([np.eye(2) / 2] * 1000, 2, prune=0.0)

    @pytest.mark.parametrize("mixed", [False, True])
    def test_full_state(self, monkeypatch, mixed):
        state = random_state(4, mixed)
        leaves = len(run_full_state(state, 2).entries)
        held = 64 * state.size
        monkeypatch.setattr(errors, "MEMORY_BUDGET", held - 1)
        with pytest.raises(SizeLimitError, match="full state of n=4"):
            run_full_state(state, 2)
        monkeypatch.setattr(errors, "MEMORY_BUDGET", held + leaves * _leaf_bytes(4) - 1)
        with pytest.raises(SizeLimitError, match=f"{leaves} leaves"):
            run_full_state(state, 2)
        monkeypatch.setattr(errors, "MEMORY_BUDGET", held + leaves * _leaf_bytes(4))
        assert len(run_full_state(state, 2).entries) == leaves

    def test_oracle(self, monkeypatch):
        need = _transform_bytes(4, 2)
        monkeypatch.setattr(errors, "MEMORY_BUDGET", need - 1)
        code, out = run(["oracle", "--n", "4"])
        assert code == 2
        assert str(need) in json.loads(out)["error"]
        monkeypatch.setattr(errors, "MEMORY_BUDGET", need)
        assert run(["oracle", "--n", "4"])[0] == 0

    def test_resources(self, monkeypatch):
        argv = ["resources", "--n", "50", "--epsilon", "0.01"]
        monkeypatch.setattr(errors, "MEMORY_BUDGET", 1100 * 49 - 1)
        code, out = run(argv)
        assert code == 2
        assert "n=50" in json.loads(out)["error"]
        monkeypatch.setattr(errors, "MEMORY_BUDGET", 1100 * 49)
        assert run(argv)[0] == 0

    def test_sample_trials(self, tmp_path, monkeypatch):
        """One byte below the records of its trials, `sample` exits 2
        before its first trajectory, and at them it runs; 10^8 trials are
        refused at once under the default budget."""
        stream = iid_mixed(tmp_path, 6)
        argv = ["sample", "--stream", stream, "--trials", "40"]
        assert run(argv)[0] == 0  # builds the CG transforms
        need = 40 * cli._trial_bytes(6)

        def no_work(*args, **kwargs):
            pytest.fail("a trajectory started")

        with monkeypatch.context() as m:
            m.setattr(cli, "run_stream", no_work)
            code, out = run(["sample", "--stream", stream, "--trials", str(10 ** 8)])
            assert code == 2
            assert "100000000 trials" in json.loads(out)["error"]
            m.setattr(errors, "MEMORY_BUDGET", need - 1)
            code, out = run(argv)
        assert code == 2
        assert str(need) in json.loads(out)["error"]
        monkeypatch.setattr(errors, "MEMORY_BUDGET", need)
        assert len(json.loads(run(argv)[1])["trials"]) == 40


class CountingCache(dict):
    clears = 0

    def clear(self):
        CountingCache.clears += 1
        super().clear()


@pytest.mark.parametrize("d,stream", [(2, "qubits.json"), (3, "qutrits.json")])
def test_sample_with_emptied_cache_is_identical(monkeypatch, d, stream):
    argv = ["sample", "--d", str(d), "--stream", str(DATA / stream),
            "--seed", "5", "--trials", "4"]
    cache = fresh_cache(monkeypatch)
    want = run(argv)
    largest = max(t.size for t in cache.values())
    fresh_cache(monkeypatch, CountingCache())
    monkeypatch.setattr(CountingCache, "clears", 0)
    # every build fits, but not next to every cached transform; the d=2
    # cache is capped below the budget
    owner, cap = (cg, "QUBIT_CACHE_BYTES") if d == 2 else (errors, "MEMORY_BUDGET")
    monkeypatch.setattr(owner, cap, cg._build_bytes(d, largest))
    assert run(argv) == want
    assert CountingCache.clears > 0


def test_memory_error_is_a_backstop_exit_2(monkeypatch):
    def oom(n, d):
        raise MemoryError()

    monkeypatch.setattr(cli, "memory_profile", oom)
    code, out = run(["resources", "--n", "10", "--epsilon", "0.01"])
    assert code == 2
    assert json.loads(out)["error"]


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_LIMIT, ADDRESS_LIMIT))


@pytest.mark.parametrize("argv", [
    ["cg", "--d", "3", "--lambda", "20,10,0"],
    ["resources", "--n", "100000000", "--d", "2", "--epsilon", "0.1"],
    ["oracle", "--d", "2", "--n", "13"],
])
def test_oversized_request_exits_2_under_address_limit(argv):
    """Each of these ran out of memory, or would have, before the budget:
    under a 2.5 GB address-space limit on the child they exit 2 at once."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "schurstream.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60,
                          preexec_fn=_limit_address_space)
    assert proc.returncode == 2, proc.stderr
    assert "memory budget" in json.loads(proc.stdout)["error"]
    assert time.monotonic() - start < 20


def budget_rho(d):
    rng = np.random.default_rng(17)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_density_steps_stay_in_budget(tmp_path, monkeypatch):
    """`sample` on an iid density stream unravels each density matrix and
    holds only vectors.  Under the build estimate of its largest CG
    transform, far below that transform's density-step estimate, the cache
    is emptied, the traced peak stays within the budget, and the report is
    unchanged."""
    rho = budget_rho(3)
    p = tmp_path / "iid.json"
    p.write_text(json.dumps({"iid": {
        "rho": [[[x.real, x.imag] for x in row] for row in rho], "n": 24}}))
    argv = ["sample", "--d", "3", "--stream", str(p), "--seed", "3"]
    cache = fresh_cache(monkeypatch)
    want = run(argv)
    largest = max(t.size for t in cache.values())
    fresh_cache(monkeypatch, CountingCache())
    monkeypatch.setattr(CountingCache, "clears", 0)
    monkeypatch.setattr(errors, "MEMORY_BUDGET", cg._build_bytes(3, largest))
    peak, got = traced_peak(run, argv)
    assert got == want
    assert peak <= errors.MEMORY_BUDGET
    assert CountingCache.clears > 0


def density_trajectory(d, n):
    rho = budget_rho(d)

    def trajectory():
        state = init_state(rho, d, seed=3)
        for _ in range(n - 1):
            state, _, _ = step(state, rho)
        return state.lam, state.path, state.amplitudes

    return trajectory


def test_density_matrix_steps_stay_in_budget(monkeypatch):
    """`init_state` and `step` on a density matrix hold each step's
    temporaries on top of the CG cache: the d >= 3 cache is emptied early
    enough that the traced peak stays within the budget, and the run is
    unchanged."""
    trajectory = density_trajectory(3, 20)
    cache = fresh_cache(monkeypatch)
    want = trajectory()
    largest = max(t.size for t in cache.values())
    fresh_cache(monkeypatch, CountingCache())
    monkeypatch.setattr(CountingCache, "clears", 0)
    monkeypatch.setattr(errors, "MEMORY_BUDGET", cg._step_bytes(largest))
    peak, got = traced_peak(trajectory)
    assert got[:2] == want[:2] and np.array_equal(got[2], want[2])
    assert peak <= errors.MEMORY_BUDGET
    assert CountingCache.clears > 0


def test_qubit_density_matrix_steps_fit_their_estimate(monkeypatch):
    """The d=2 rotation step on density matrices: under the density-step
    budget of the largest transform, a 300-step trajectory runs unchanged
    with its traced peak within the budget; one byte below, its first
    lookup of that label is refused."""
    trajectory = density_trajectory(2, 300)
    cache = fresh_cache(monkeypatch)
    want = trajectory()
    largest = max(t.size for t in cache.values())
    fresh_cache(monkeypatch)
    monkeypatch.setattr(errors, "MEMORY_BUDGET", cg._step_bytes(largest))
    peak, got = traced_peak(trajectory)
    assert got[:2] == want[:2] and np.array_equal(got[2], want[2])
    assert peak <= errors.MEMORY_BUDGET
    fresh_cache(monkeypatch)
    monkeypatch.setattr(errors, "MEMORY_BUDGET", cg._step_bytes(largest) - 1)
    with pytest.raises(SizeLimitError, match=f"density-matrix step of side {largest}"):
        trajectory()


def test_iid_stream_refused_before_the_list(tmp_path, monkeypatch):
    p = tmp_path / "iid.json"
    p.write_text(json.dumps({"iid": {"rho": [[1, 0], [0, 0]], "n": 1000}}))
    monkeypatch.setattr(errors, "MEMORY_BUDGET", 8 * 1000 - 1)
    code, out = run(["sample", "--stream", str(p)])
    assert code == 2
    assert "iid stream of n=1000" in json.loads(out)["error"]
    monkeypatch.setattr(errors, "MEMORY_BUDGET", 8 * 1000)
    assert len(cli.load_stream(str(p), 2)) == 1000
