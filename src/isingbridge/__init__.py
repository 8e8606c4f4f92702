"""Classical Ising flip dynamics mapped to and from transverse-field Hamiltonians.

Modules:
  spins       Ising models, configuration indexing, energies, Boltzmann vectors
  markov      rate rules, flip-form generators, detailed balance, master
              equation, a Lanczos gap solver
  quantum     classical-to-quantum mapping and explicit chain Hamiltonians
  spectral    symmetric eigensolves on an operator's symmetry blocks,
              spectrum reports
  fermion     exact free-fermion solution of the heat-bath chain
  reverse     quantum-to-classical mapping and multibody coupling expansion
  anneal      schedules and time-dependent master/Schrodinger engines
  montecarlo  simulated annealing by direct sampling
  cli         command-line experiments emitting CSV/JSON reports
"""

from .spins import (IsingModel, boltzmann, chain_model, energy_table,
                    frustrated_instance, ground_states, load_model, save_model,
                    single_spin_model)
from .markov import (HEAT_BATH, METROPOLIS, HeatBath, MarkovGenerator,
                     Metropolis, RateRule, UniformRate, build_generator,
                     detailed_balance_residual, evolve_master, parse_rule,
                     relaxation_time)
from .quantum import (QuantumHamiltonian, assemble_direct,
                      chain_heatbath_hamiltonian, chain_metropolis_hamiltonian,
                      chain_random_heatbath_hamiltonian, classical_to_quantum,
                      transverse_field_chain)
from .spectral import (SpectrumReport, compare_spectra, eig_sym,
                       spectrum_of_generator, spectrum_of_hamiltonian,
                       spectrum_report)
from .fermion import (FermionChainParams, dispersion, finite_gap,
                      ground_energy_offset, many_body_spectrum, momentum_grid,
                      random_single_particle_spectrum)
from .reverse import (CouplingExpansion, ReverseMapResult, extract_couplings,
                      quantum_to_classical)
from .anneal import (AnnealTrajectory, ExponentialBeta, GemanGeman, LinearBeta,
                     Schedule, evolve_imaginary_schrodinger,
                     evolve_master_timedep, evolve_real_schrodinger,
                     frozen_schedule, master_imaginary_deviation,
                     master_imaginary_state_difference)
from .montecarlo import (McReport, empirical_distribution,
                         mc_simulated_annealing, total_variation)

__version__ = "0.1.0"
