import dataclasses
import inspect

import isingbridge
from isingbridge import markov

PUBLIC_NAMES = [
    "AnnealTrajectory", "CouplingExpansion", "ExponentialBeta", "FermionChainParams",
    "GemanGeman", "HEAT_BATH", "HeatBath", "IsingModel", "LinearBeta", "METROPOLIS",
    "MarkovGenerator", "McReport", "Metropolis", "QuantumHamiltonian", "RateRule",
    "ReverseMapResult", "Schedule", "SpectrumReport", "UniformRate", "assemble_direct",
    "boltzmann", "build_generator", "chain_heatbath_hamiltonian",
    "chain_metropolis_hamiltonian", "chain_model", "chain_random_heatbath_hamiltonian",
    "classical_to_quantum", "compare_spectra", "detailed_balance_residual", "dispersion",
    "eig_sym", "empirical_distribution", "energy_table", "evolve_imaginary_schrodinger",
    "evolve_master", "evolve_master_timedep", "evolve_real_schrodinger", "extract_couplings",
    "finite_gap", "frozen_schedule", "frustrated_instance", "ground_energy_offset",
    "ground_states", "load_model", "many_body_spectrum", "master_imaginary_deviation",
    "master_imaginary_state_difference", "mc_simulated_annealing", "momentum_grid",
    "parse_rule", "quantum_to_classical", "random_single_particle_spectrum", "relaxation_time",
    "save_model", "single_spin_model", "spectrum_of_generator", "spectrum_of_hamiltonian",
    "spectrum_report", "total_variation", "transverse_field_chain",
]


def test_public_names_are_the_listed_ones():
    """The names `isingbridge` exports, submodules aside; an API change edits this list."""
    exported = sorted(name for name, value in vars(isingbridge).items()
                      if not name.startswith("_") and not inspect.ismodule(value))
    assert exported == sorted(PUBLIC_NAMES)


def test_trajectory_fields_are_the_listed_ones():
    """The fields of both trajectory types, in order; a change edits this test."""
    def fields(cls):
        return [field.name for field in dataclasses.fields(cls)]

    assert fields(isingbridge.AnnealTrajectory) == [
        "engine", "times", "betas", "states", "ground_probability", "overlap",
        "log_norm_decrement"]
    assert fields(markov.MasterTrajectory) == ["times", "states"]


def test_rate_rules_define_rates_only():
    """A rule is its name and its rates; a second per-rule formula edits this test."""
    def public(rule):
        return {name for name in dir(rule) if not name.startswith("_")}

    assert public(isingbridge.HeatBath()) == {"name", "rates"}
    assert public(isingbridge.Metropolis()) == {"name", "rates"}
    assert public(isingbridge.UniformRate(0.1)) == {"name", "p", "rates"}
