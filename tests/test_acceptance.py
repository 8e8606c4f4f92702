"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines as they complete.
"""

import math

import numpy as np
import pytest

from isingbridge import (anneal, fermion, markov, montecarlo, quantum, reverse,
                         spectral, spins)
import oracles

SIZES = (4, 6, 8, 10)
K_GRID = (0.0, 0.25, 0.5, 1.0, 2.0)
RULES = (markov.HEAT_BATH, markov.METROPOLIS)


def _verdict(number, name, ok, detail):
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")
    return ok


@pytest.fixture(scope="module")
def mapped_pair_scan():
    """One sweep over every (rule, n, K) mapped pair, shared by criteria 1 and 4."""
    cases = []
    for rule in RULES:
        for n in SIZES:
            model = spins.chain_model(n, [1.0] * n)
            for k in K_GRID:
                generator = markov.build_generator(model, k, rule)
                hamiltonian = quantum.classical_to_quantum(generator)
                w_report = spectral.spectrum_of_generator(generator)
                h_report = spectral.spectrum_of_hamiltonian(hamiltonian)
                spectrum_dev = spectral.compare_spectra(
                    -w_report.eigenvalues, h_report.eigenvalues, 1e-9).max_deviation
                ground_dev = float(np.abs(h_report.ground_vector ** 2
                                          - spins.boltzmann(model, k)).max())
                cases.append({"rule": rule.name, "n": n, "k": k,
                              "spectrum_dev": spectrum_dev,
                              "ground_dev": ground_dev})
    return cases


def test_criterion_1_spectrum_sharing(mapped_pair_scan):
    worst = max(case["spectrum_dev"] for case in mapped_pair_scan)
    ok = worst <= 1e-9
    assert _verdict(1, "spectrum sharing", ok,
                    f"max deviation {worst:.2e} over {len(mapped_pair_scan)} cases")


def test_criterion_2_explicit_hamiltonian_identity():
    worst = 0.0
    for n in SIZES:
        for k in K_GRID:
            heat = quantum.chain_heatbath_hamiltonian(n, k)
            mapped = oracles.mapped_chain_hamiltonian(n, k, markov.HEAT_BATH)
            worst = max(worst, float(np.abs(heat.matrix - mapped.matrix).max()))
            metro = quantum.chain_metropolis_hamiltonian(n, k)
            mapped = oracles.mapped_chain_hamiltonian(n, k, markov.METROPOLIS)
            worst = max(worst, float(np.abs(metro.matrix - mapped.matrix).max()))

    worst_random = 0.0
    beta = 0.7
    for seed in range(20):
        rng = np.random.default_rng(seed)
        couplings = rng.choice([-1.0, 1.0], 6) * rng.uniform(0.5, 1.5, 6)
        explicit = quantum.chain_random_heatbath_hamiltonian(couplings, beta)
        generator = markov.build_generator(spins.chain_model(6, couplings), beta,
                                           markov.HEAT_BATH)
        mapped = quantum.classical_to_quantum(generator)
        worst_random = max(worst_random,
                           float(np.abs(explicit.matrix - mapped.matrix).max()))

    ok = worst <= 1e-12 and worst_random <= 1e-12
    assert _verdict(2, "explicit Hamiltonian identity", ok,
                    f"uniform dev {worst:.2e}, random dev {worst_random:.2e}")


def test_criterion_3_free_fermion_oracle():
    worst_spectrum = worst_gap = worst_ground = 0.0
    for n in SIZES:
        for k in K_GRID:
            params = fermion.FermionChainParams(n, k)
            reconstructed = fermion.many_body_spectrum(params)
            dense = np.linalg.eigvalsh(quantum.chain_heatbath_hamiltonian(n, k).matrix)
            worst_spectrum = max(worst_spectrum,
                                 float(np.abs(reconstructed - dense).max()))
            worst_gap = max(worst_gap, abs(fermion.finite_gap(params)
                                           - (1.0 - math.tanh(2.0 * k))))
            worst_ground = max(worst_ground, abs(fermion.ground_energy_offset(params)))
    ok = worst_spectrum <= 1e-8 and worst_gap <= 1e-10 and worst_ground <= 1e-12
    assert _verdict(3, "free-fermion oracle", ok,
                    f"spectrum {worst_spectrum:.2e}, gap {worst_gap:.2e}, "
                    f"ground {worst_ground:.2e}")


def test_criterion_4_ground_state_boltzmann(mapped_pair_scan):
    worst = max(case["ground_dev"] for case in mapped_pair_scan)
    ok = worst <= 1e-9
    assert _verdict(4, "ground state vs Boltzmann", ok,
                    f"max entrywise deviation {worst:.2e}")


def test_criterion_5_reverse_map_roundtrip():
    worst_w = worst_h0 = worst_cond = 0.0
    for rule in RULES:
        for n in SIZES:
            model = spins.chain_model(n, [1.0] * n)
            generator = markov.build_generator(model, 1.0, rule)
            result = reverse.quantum_to_classical(
                quantum.classical_to_quantum(generator))
            worst_w = max(worst_w, float(np.abs(result.generator.matrix
                                                - generator.matrix).max()))
            shift = result.energy_table - generator.energies
            worst_h0 = max(worst_h0, float(np.abs(shift - shift.mean()).max()))
            worst_cond = max(worst_cond, max(result.condition_residuals.values()))
    ok = worst_w <= 1e-10 and worst_h0 <= 1e-9 and worst_cond <= 1e-9
    assert _verdict(5, "reverse-map roundtrip", ok,
                    f"W {worst_w:.2e}, H0 {worst_h0:.2e}, conditions {worst_cond:.2e}")


def test_criterion_6_locality_blowup_witness():
    ham = quantum.transverse_field_chain(6, 0.7)
    first = reverse.extract_couplings(
        reverse.quantum_to_classical(ham).energy_table)
    second = reverse.extract_couplings(
        reverse.quantum_to_classical(ham).energy_table)
    profile = first.locality_profile()
    witness = max(v for k, v in profile.items() if k >= 4)
    deterministic = np.array_equal(first.coefficients, second.coefficients)
    ok = witness > 1e-6 and deterministic
    assert _verdict(6, "multibody locality blowup", ok,
                    f"max order>=4 coefficient {witness:.2e}, "
                    f"deterministic={deterministic}")


def test_criterion_7_time_dependent_consistency():
    model = spins.chain_model(4, [1.0] * 4)
    schedule = anneal.LinearBeta(0.0, 2.0, 10.0)
    p0 = np.full(16, 1.0 / 16.0)
    phi0 = np.full(16, 0.25)

    master = anneal.evolve_master_timedep(model, markov.HEAT_BATH, schedule,
                                          p0, 1e-3, n_samples=100)
    imaginary = anneal.evolve_imaginary_schrodinger(model, markov.HEAT_BATH,
                                                    schedule, phi0, 1e-3,
                                                    n_samples=100)
    cosine_dev = anneal.master_imaginary_deviation(master, imaginary, model)
    cosine_ok = cosine_dev <= 1e-6 and master.n_samples >= 100

    # integrator-order check on the linear state-difference metric (the
    # cosine deviation is quadratic in the error and sits at roundoff here)
    diffs = []
    for dt in (0.01, 0.005):
        tm = anneal.evolve_master_timedep(model, markov.HEAT_BATH, schedule,
                                          p0, dt, n_samples=50)
        ti = anneal.evolve_imaginary_schrodinger(model, markov.HEAT_BATH, schedule,
                                                 phi0, dt, n_samples=50)
        diffs.append(anneal.master_imaginary_state_difference(tm, ti, model))
    ratio = diffs[0] / diffs[1]
    ratio_ok = 8.0 <= ratio <= 32.0

    ok = cosine_ok and ratio_ok
    assert _verdict(7, "time-dependent consistency", ok,
                    f"cosine deviation {cosine_dev:.2e} at {master.n_samples} "
                    f"samples, halving ratio {ratio:.1f}")


def test_criterion_8_logarithmic_schedule_convergence(geman_run):
    _, _, trajectory = geman_run
    final_decade = trajectory.times >= trajectory.times[-1] / 10.0
    ground = trajectory.ground_probability[final_decade]
    nondecreasing = bool(np.all(np.diff(ground) >= 0.0))
    final = float(trajectory.ground_probability[-1])
    ok = nondecreasing and final > 0.8
    assert _verdict(8, "logarithmic-schedule convergence", ok,
                    f"final ground probability {final:.4f}, "
                    f"nondecreasing over last decade={nondecreasing}")


def test_criterion_9_monte_carlo_fidelity(frozen_mc_run, ferro_mc_run):
    model, frozen_report = frozen_mc_run
    tv = montecarlo.total_variation(
        montecarlo.empirical_distribution(frozen_report),
        spins.boltzmann(model, 0.5))
    success = ferro_mc_run.success_fraction
    ok = tv <= 0.02 and success >= 0.95
    assert _verdict(9, "Monte Carlo fidelity", ok,
                    f"total variation {tv:.4f}, success fraction {success:.3f}")
