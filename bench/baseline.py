"""Baseline sanity: time the single noisy and ideal series that the project's
roadmap quotes, and count the dense updates of one headline run.

    python3 bench/baseline.py

Prints the median, minimum and maximum of several runs of each case (noisy
N = 4 and N = 6, ideal N = 4; 80 steps over T = 2 pi, default noise) and
the number of dense density-matrix updates (``sim_core._apply_matrix_to_density``
calls) of one noisy N = 4 headline run, with the gate and Kraus split.
"""

from __future__ import annotations

import statistics
import sys
from time import perf_counter

import run

REPEATS = {"noisy N=4": 5, "noisy N=6": 3, "ideal N=4": 20}


def main() -> int:
    run.pin_environment()
    sys.path.insert(0, str(run.SRC))
    from pstlab import sim_core
    from pstlab.experiments import ExperimentConfig, assemble_circuit, run_sp_series
    from pstlab.noise import NoiseParams

    cases = {
        "noisy N=4": ExperimentConfig(n_sites=4, noise=NoiseParams()),
        "noisy N=6": ExperimentConfig(n_sites=6, noise=NoiseParams()),
        "ideal N=4": ExperimentConfig(n_sites=4),
    }
    print("host", run.host_record())
    run_sp_series(cases["ideal N=4"])  # first call pays lazy imports
    for label, config in cases.items():
        times = []
        for _ in range(REPEATS[label]):
            start = perf_counter()
            run_sp_series(config)
            times.append(perf_counter() - start)
        print(f"{label:10s} median {statistics.median(times) * 1e3:9.1f} ms  "
              f"min {min(times) * 1e3:9.1f} ms  max {max(times) * 1e3:9.1f} ms  "
              f"n {len(times)}")

    original = sim_core._apply_matrix_to_density
    dense = 0

    def counted(*args):
        nonlocal dense
        dense += 1
        return original(*args)

    sim_core._apply_matrix_to_density = counted
    try:
        run_sp_series(cases["noisy N=4"])
    finally:
        sim_core._apply_matrix_to_density = original
    circuit = assemble_circuit(cases["noisy N=4"])
    gates = sum(1 for _ in circuit.gate_ops())
    kraus = sum(len(ch.kraus_ops) for op in circuit.gate_ops() for ch, _ in op.channels)
    print(f"headline dense updates {dense}; the circuit schedules {gates} gates "
          f"+ {kraus} Kraus operators = {gates + kraus}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
