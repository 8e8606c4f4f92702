"""One-shot stage timings of the dense heat-bath pipeline; not a gated benchmark.

    python3 perfbench/layers.py

Times each stage of the dense route for the uniform heat-bath chain at
K = 0.5 and N = 4, 8, 10 and 12: energy_table, build_generator,
classical_to_quantum, assemble_direct, eig_sym (of the mapped
Hamiltonian), detailed_balance_residual, reverse (quantum_to_classical,
which runs its own eigensolve) and Walsh (extract_couplings). A stage is
repeated until it has run for REPEAT_S seconds (at least once) and its
median is reported. Prints a markdown table in milliseconds, then one
JSON line with the seconds and a provenance block. N = 12 alone takes
about 35 s with one BLAS thread on two cores.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import run

SIZES = (4, 8, 10, 12)
K = 0.5
REPEAT_S = 0.2
STAGES = ("energy_table", "build_generator", "classical_to_quantum", "assemble_direct",
          "eig_sym", "detailed_balance_residual", "reverse", "walsh")


def _median_time(fn) -> float:
    times = []
    while not times or (sum(times) < REPEAT_S and len(times) < 50):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def stage_times(n: int) -> dict[str, float]:
    from isingbridge import markov, quantum, reverse, spectral, spins

    model = spins.chain_model(n, [1.0] * n)
    rule = markov.HEAT_BATH
    table = spins.energy_table(model)
    generator = markov.build_generator(model, K, rule)
    hamiltonian = quantum.classical_to_quantum(generator)
    calls = {
        "energy_table": lambda: spins.energy_table(model),
        "build_generator": lambda: markov.build_generator(model, K, rule),
        "classical_to_quantum": lambda: quantum.classical_to_quantum(generator),
        "assemble_direct": lambda: quantum.assemble_direct(model, K, rule),
        "eig_sym": lambda: spectral.eig_sym(hamiltonian.matrix),
        "detailed_balance_residual": lambda: markov.detailed_balance_residual(generator),
        "reverse": lambda: reverse.quantum_to_classical(hamiltonian),
        "walsh": lambda: reverse.extract_couplings(table),
    }
    return {stage: _median_time(calls[stage]) for stage in STAGES}


def main() -> int:
    threads = run.import_package()
    if threads is None:
        return 2
    run.warm_up("bridge", 0)  # the stage table runs eigensolves, as bridge does
    results = {n: stage_times(n) for n in SIZES}
    print("| stage | " + " | ".join(f"N={n}" for n in SIZES) + " |")
    print("| --- |" + " --- |" * len(SIZES))
    for stage in STAGES:
        cells = " | ".join(f"{1e3 * results[n][stage]:.3g} ms" for n in SIZES)
        print(f"| `{stage}` | {cells} |")
    print(json.dumps({"K": K, "seconds": {stage: {str(n): results[n][stage] for n in SIZES}
                                          for stage in STAGES},
                      "provenance": run.provenance(threads)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
