"""Seeded input generator for the benchmark workloads.

    python3 perfbench/gen.py --workload NAME --seed N --out DIR

writes the workload's stream/state JSON files into DIR and `DIR/spec.json`,
which lists the op (one or more `schur` argv lists) with the facts the
correctness checks need.  The same seed gives the same files; the program
under test only sees the files and the argv.

The sampling workloads keep the work the same for every seed.  Weak Schur
sampling commutes with U^(x)n, so every branch probability of a stream is
unchanged when one unitary U rotates every qudit.  Their streams are a
fixed configuration rotated by a seeded Haar U, and `schur sample` gets a
fixed `--seed`: the seed changes every number the program computes with
but not which Young labels it visits, and the cost of a cold op is set by
those labels.  (With free sampling seeds the cold cost of `qutrit-sample`
varies more than 2x from seed to seed.)
"""

from __future__ import annotations

import argparse
import json
import os

import numpy as np

from workloads import WORKLOADS

SAMPLE_SEED = 0      # `schur sample --seed`
QUTRIT_BASE_SEED = 0  # the fixed 18-qutrit configuration before rotation
SPECTRUM = (0.82, 0.18)  # Keyl-Werner spectrum estimation input


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def haar_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def pairs(a: np.ndarray) -> list:
    """[re, im] entries, the CLI's complex amplitude format."""
    if a.ndim == 1:
        return [[float(x.real), float(x.imag)] for x in a]
    return [pairs(row) for row in a]


def apply_tensor_power(u: np.ndarray, psi: np.ndarray, n: int) -> np.ndarray:
    """U^(x)n |psi> without forming the d^n x d^n matrix."""
    d = u.shape[0]
    t = psi.reshape((d,) * n)
    for axis in range(n):
        t = np.moveaxis(np.tensordot(u, t, axes=([1], [axis])), 0, axis)
    return t.reshape(-1)


def generate(workload: str, seed: int, out: str) -> dict:
    rng = np.random.default_rng([seed % 2 ** 63, list(WORKLOADS).index(workload)])
    inputs = []

    def write(name, data, kind, d):
        path = os.path.join(out, name)
        with open(path, "w") as f:
            json.dump(data, f)
        inputs.append({"path": path, "kind": kind, "d": d})
        return path

    def sample(d, n, trials, stream):
        return {"kind": "sample", "d": d, "n": n, "trials": trials,
                "argv": ["sample", "--d", str(d), "--trials", str(trials),
                         "--seed", str(SAMPLE_SEED), "--stream", stream]}

    if workload == "spectrum-qubit":
        u = haar_unitary(rng, 2)
        rho = u @ np.diag(SPECTRUM) @ u.conj().T
        op = [sample(2, 100, 5, write(
            "stream.json", {"iid": {"rho": pairs(rho), "n": 100}}, "stream", 2))]
    elif workload == "qutrit-sample":
        base = np.random.default_rng(QUTRIT_BASE_SEED)
        qutrits = [haar_state(base, 3) for _ in range(18)]
        u = haar_unitary(rng, 3)
        op = [sample(3, 18, 5, write(
            "stream.json", [pairs(u @ q) for q in qutrits], "stream", 3))]
    elif workload == "exact-dist":
        n_dist, n_full = 15, 11
        stream = write("stream.json",
                       [pairs(haar_state(rng, 2)) for _ in range(n_dist)], "stream", 2)
        psi = haar_state(rng, 2 ** n_full)
        state = write("state.json", {"vector": pairs(psi)}, "state", 2)
        rotated = os.path.join(out, "state_rotated.json")
        with open(rotated, "w") as f:
            json.dump({"vector": pairs(
                apply_tensor_power(haar_unitary(rng, 2), psi, n_full))}, f)
        op = [{"kind": "dist", "d": 2, "n": n_dist,
               "argv": ["dist", "--d", "2", "--stream", stream]},
              {"kind": "full", "d": 2, "n": n_full, "rotated": rotated,
               "argv": ["full", "--d", "2", "--state", state]}]
    elif workload == "oracle-validate":
        stream = write("stream.json",
                       {"iid": {"rho": [[0.5, 0.0], [0.0, 0.5]], "n": 10}}, "stream", 2)
        op = [{"kind": "oracle", "d": 2, "n": 10,
               "argv": ["oracle", "--d", "2", "--n", "10", "--compare", stream]}]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    spec = {"workload": workload, "seed": seed, "inputs": inputs, "op": op}
    with open(os.path.join(out, "spec.json"), "w") as f:
        json.dump(spec, f, indent=1)
    return spec


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args()
    os.makedirs(args.out, exist_ok=True)
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
