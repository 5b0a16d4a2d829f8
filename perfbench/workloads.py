"""The benchmark's workloads and why each was chosen; BENCHMARK.json
carries the same text in its `why` fields."""

WORKLOADS = {
    "spectrum-qubit": "Keyl-Werner spectrum estimation: sample --d 2 --trials 5, 100 iid "
                      "copies of rho, spectrum (0.82,0.18); cold is Givens accounting, warm "
                      "the density-matrix step",
    "qutrit-sample": "sample --d 3 --trials 5 on 18 Haar qutrits: cold is the numeric d=3 CG "
                     "and GT irrep builds, warm is tiny, so a CG-build gain shows in cold_s only",
    "exact-dist": "dist --d 2 on 15 Haar qubits (6435 leaves), then full --d 2 on a Haar "
                  "11-qubit state: branch enumeration, lattice paths, JSON, full-state kron",
    "oracle-validate": "oracle --d 2 --n 10 --compare on iid I/2: the only workload where the "
                       "brute-force oracle layer does the work",
}
