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

from schurstream import cg, cli, errors
from schurstream.cli import run
from schurstream.errors import SizeLimitError
from schurstream.oracle import _transform_bytes, schur_transform
from schurstream.partitions import Partition, dim_unitary
from schurstream.sampler import _leaf_bytes, branch_distribution, run_full_state

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


def cg_report_bytes(size):
    return 440 * size * size + 4096 * size


def iid_mixed(tmp_path, n, d=2):
    p = tmp_path / f"iid_{d}_{n}.json"
    p.write_text(json.dumps({"iid": {"rho": (np.eye(d) / d).tolist(), "n": n}}))
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
    @pytest.mark.parametrize("d,parts", [(2, (200, 0)), (3, (6, 3, 0))])
    def test_cg_build(self, monkeypatch, d, parts):
        monkeypatch.setattr(cg, "_cache", {})
        peak, t = traced_peak(cg.cg_transform, Partition(parts))
        assert peak <= cg._build_bytes(t.size)

    @pytest.mark.parametrize("d,lam", [(2, "60,0"), (3, "5,2,0")])
    def test_cg_report(self, monkeypatch, d, lam):
        monkeypatch.setattr(cg, "_cache", {})
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

    @pytest.mark.parametrize("n,mixed", [(12, False), (8, True)])
    def test_full_state(self, n, mixed):
        state = random_state(n, mixed)
        run_full_state(state, 2)  # builds every CG transform
        peak, dist = traced_peak(run_full_state, state, 2)
        assert peak <= 64 * state.size + len(dist.entries) * _leaf_bytes(n)

    @pytest.mark.parametrize("d,n", [(2, 8), (3, 5)])
    def test_oracle(self, tmp_path, d, n):
        argv = ["oracle", "--d", str(d), "--n", str(n),
                "--compare", iid_mixed(tmp_path, n, d)]
        run(argv)
        peak, (code, _) = traced_peak(run, argv)
        assert code == 0
        assert peak <= _transform_bytes(n, d)

    @pytest.mark.parametrize("n,d", [(2000, 2), (5000, 3)])
    def test_resources(self, n, d):
        peak, (code, _) = traced_peak(
            run, ["resources", "--n", str(n), "--d", str(d), "--epsilon", "0.01"])
        assert code == 0
        assert peak <= 1100 * (n - 1)


class TestRefusedBelowTheEstimate:
    """One byte below the estimate the request exits 2 before it
    allocates; at the estimate it runs."""

    def test_cg_report(self, monkeypatch):
        monkeypatch.setattr(cg, "_cache", {})
        need = cg_report_bytes(cg_side(2, (5, 0)))
        monkeypatch.setattr(errors, "MEMORY_BUDGET", need - 1)
        code, out = run(["cg", "--d", "2", "--lambda", "5,0"])
        assert code == 2
        assert str(need) in json.loads(out)["error"]
        assert cg._cache == {}
        monkeypatch.setattr(errors, "MEMORY_BUDGET", need)
        assert run(["cg", "--d", "2", "--lambda", "5,0"])[0] == 0

    def test_dist_leaves(self, tmp_path, monkeypatch):
        stream = iid_mixed(tmp_path, 6)
        assert run(["dist", "--stream", stream])[0] == 0  # builds the CG transforms
        need = 20 * _leaf_bytes(6)  # 6 mixed qubits have 20 leaves
        monkeypatch.setattr(errors, "MEMORY_BUDGET", need - 1)
        code, out = run(["dist", "--stream", stream])
        assert code == 2
        assert "20 leaves" in json.loads(out)["error"]
        monkeypatch.setattr(errors, "MEMORY_BUDGET", need)
        assert run(["dist", "--stream", stream])[0] == 0

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
        # an explicit limit replaces the check of the state
        monkeypatch.setattr(errors, "MEMORY_BUDGET", leaves * _leaf_bytes(4))
        assert len(run_full_state(state, 2, limit=4).entries) == leaves
        with pytest.raises(SizeLimitError, match="limit 3"):
            run_full_state(state, 2, limit=3)

    def test_oracle(self, monkeypatch):
        schur_transform(4, 2)  # builds the CG transforms
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


class CountingCache(dict):
    clears = 0

    def clear(self):
        CountingCache.clears += 1
        super().clear()


@pytest.mark.parametrize("d,stream", [(2, "qubits.json"), (3, "qutrits.json")])
def test_sample_with_emptied_cache_is_identical(monkeypatch, d, stream):
    argv = ["sample", "--d", str(d), "--stream", str(DATA / stream),
            "--seed", "5", "--trials", "4"]
    monkeypatch.setattr(cg, "_cache", {})
    monkeypatch.setattr(cg, "_cache_bytes", 0)
    want = run(argv)
    largest = max(t.size for t in cg._cache.values())
    monkeypatch.setattr(cg, "_cache", CountingCache())
    monkeypatch.setattr(cg, "_cache_bytes", 0)
    monkeypatch.setattr(CountingCache, "clears", 0)
    # every build fits, but not next to every cached transform
    monkeypatch.setattr(errors, "MEMORY_BUDGET", cg._build_bytes(largest))
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
    ["oracle", "--d", "2", "--n", "12"],
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
