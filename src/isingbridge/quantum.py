"""Transverse-field Hamiltonians from classical flip dynamics.

The central construction conjugates a detailed-balance generator W by
exp(beta*H0/2) and negates it, giving a real symmetric matrix whose
spectrum is the negated spectrum of W, whose ground energy is zero, and
whose ground state is the square-root Boltzmann vector. For the
periodic nearest-neighbor chain the same matrix is also assembled
directly from closed-form operator expressions, which the tests compare
entry by entry against the generic route. Both heat-bath closed forms are
one assembly from the quadratic-form constants of `fermion`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fermion, spectral, spins
from .markov import (HEAT_BATH, METROPOLIS, MarkovGenerator, RateRule, _FlipOperator,
                     _FlipSystem, _flip_table, build_generator)
from .spins import IsingModel

PROVENANCE_MAPPED = "mapped-from-W"
PROVENANCE_EXPLICIT = "explicit-chain"
PROVENANCE_USER = "user-supplied"


@dataclass(frozen=True)
class QuantumHamiltonian:
    """Dense real symmetric matrix in the sigma^z product basis."""

    matrix: np.ndarray
    n_spins: int
    provenance: str
    beta: float | None = None
    rule_name: str | None = None

    def __post_init__(self):
        scale = np.abs(self.matrix).max()
        if scale > 0 and np.abs(self.matrix - self.matrix.T).max() > 1e-12 * scale:
            raise ValueError("Hamiltonian matrix is not symmetric within 1e-12 relative")
        self.matrix.setflags(write=False)


def classical_to_quantum(generator: MarkovGenerator) -> QuantumHamiltonian:
    """Map a generator to its symmetric Hamiltonian, entry by entry.

    H[a,b] = -exp(beta*H0(a)/2) W[a,b] exp(-beta*H0(b)/2), the negated
    spectral.symmetrized_generator with zeros kept +0.0. Asymmetry beyond
    1e-8 relative is reported as a detailed-balance failure of the input.
    """
    h = spectral.symmetrized_generator(generator)
    np.negative(h, out=h, where=h != 0)
    scale = np.abs(h).max()
    if scale > 0 and np.abs(h - h.T).max() > 1e-8 * scale:
        raise ValueError(
            "mapped matrix is not symmetric: the generator violates detailed balance")
    rule_name = generator.rule.name if generator.rule is not None else None
    return QuantumHamiltonian(matrix=h, n_spins=generator.n_spins,
                              provenance=PROVENANCE_MAPPED,
                              beta=generator.beta, rule_name=rule_name)


def assemble_direct(model: IsingModel, beta: float, rule: RateRule) -> QuantumHamiltonian:
    """Build the mapped Hamiltonian without forming the generator first.

    Off-diagonal entries are -w for each single-flip pair; the diagonal
    collects the total outflow rate of each configuration. Equals
    classical_to_quantum(build_generator(...)) to near machine precision.
    """
    spins._check_beta(beta)
    h = _FlipSystem(model, rule).hamiltonian(beta).dense()
    return QuantumHamiltonian(matrix=h, n_spins=model.n_spins, provenance=PROVENANCE_MAPPED,
                              beta=float(beta), rule_name=rule.name)


def _z_columns(n: int) -> np.ndarray:
    """(N, 2^N) array of sigma_j^z eigenvalues for every basis index."""
    spins._check_spins(n, "dense matrix")
    idx = np.arange(1 << n)
    return 1 - 2 * ((idx[None, :] >> np.arange(n)[:, None]) & 1)


def _bonds(z: np.ndarray) -> np.ndarray:
    """(N, 2^N) array of z_j z_{j+1}, periodic, the bond to the right of site j."""
    return z * np.roll(z, -1, axis=0)


def _across(z: np.ndarray) -> np.ndarray:
    """(N, 2^N) array of z_{j-1} z_{j+1}, periodic, the spins on either side of site j."""
    return np.roll(z, 1, axis=0) * np.roll(z, -1, axis=0)


def _heatbath_chain(field: np.ndarray, hop: np.ndarray, hop2: np.ndarray,
                    beta: float) -> QuantumHamiltonian:
    """Heat-bath chain from length-N arrays of the constants `fermion` derives.

    H = N/2 - sum_j hop_j z_j z_{j+1} - sum_j (field_j - hop2_j z_{j-1} z_{j+1}) x_j
    """
    n = field.size
    z = _z_columns(n)
    diag = 0.5 * n - hop @ _bonds(z)
    off = -(field[:, None] - hop2[:, None] * _across(z))
    h = _FlipOperator(diag, off, _flip_table(n)).dense()
    return QuantumHamiltonian(matrix=h, n_spins=n, provenance=PROVENANCE_EXPLICIT,
                              beta=float(beta), rule_name=HEAT_BATH.name)


def chain_heatbath_hamiltonian(n: int, k: float) -> QuantumHamiltonian:
    """Closed-form Hamiltonian for heat-bath dynamics of the uniform chain.

    H = N/2 - (tanh 2K)/2 * sum_j z_j z_{j+1}
        - 1/(2 cosh 2K) * sum_j (cosh^2 K - sinh^2 K z_{j-1} z_{j+1}) x_j

    with periodic indices and K = beta*J at J = 1, i.e. the constants hop,
    field and hop2 of `fermion.FermionChainParams`. Reduces at K = 0 to the
    pure transverse-field form N/2 - sum_j x_j / 2.
    """
    params = fermion.FermionChainParams(n, k)
    return _heatbath_chain(np.full(n, params.field), np.full(n, params.hop),
                           np.full(n, params.hop2), k)


def chain_metropolis_hamiltonian(n: int, k: float) -> QuantumHamiltonian:
    """Closed-form Hamiltonian for Metropolis dynamics of the uniform chain.

    H = N(3 + e^{-4K})/4
        - (1 - e^{-4K})/4 * sum_j (2 z_j z_{j+1} + z_{j-1} z_{j+1})
        - (1 + e^{-2K})/2 * sum_j (1 - tanh K z_{j-1} z_{j+1}) x_j
    """
    fermion._check_chain(n, k, max_abs_coupling=None)  # no cosh: any finite K
    z = _z_columns(n)
    zz = _bonds(z).sum(axis=0)
    across = _across(z)
    e4, e2, th = math.exp(-4 * k), math.exp(-2 * k), math.tanh(k)
    diag = 0.25 * n * (3.0 + e4) - 0.25 * (1.0 - e4) * (2.0 * zz + across.sum(axis=0))
    off = -0.5 * (1.0 + e2) * (1.0 - th * across)
    h = _FlipOperator(diag, off, _flip_table(n)).dense()
    return QuantumHamiltonian(matrix=h, n_spins=n, provenance=PROVENANCE_EXPLICIT,
                              beta=float(k), rule_name=METROPOLIS.name)


def chain_random_heatbath_hamiltonian(couplings, beta: float) -> QuantumHamiltonian:
    """Closed-form heat-bath Hamiltonian for a chain with bond-dependent couplings.

    couplings[j] is the bond between sites j-1 and j (periodic), matching
    chain_model. With c_j = cosh(beta*J_j), s_j = sinh(beta*J_j) and
    D_j = c_j^2 c_{j+1}^2 - s_j^2 s_{j+1}^2:

    H = N/2 - sum_j [c_j s_j z_{j-1} z_j + c_{j+1} s_{j+1} z_j z_{j+1}] / (2 D_j)
            - sum_j (c_j c_{j+1} - s_j s_{j+1} z_{j-1} z_{j+1}) / (2 D_j) * x_j

    assembled from the constants of `fermion._site_dependent_constants`.
    """
    return _heatbath_chain(*fermion._site_dependent_constants(couplings, beta), beta)


def transverse_field_chain(n: int, gamma: float, coupling: float = 1.0,
                           constant: float = 0.0) -> QuantumHamiltonian:
    """Standard transverse-field chain c*I - J sum_j z_j z_{j+1} - Gamma sum_j x_j.

    Periodic boundary; used as a generic stoquastic input for the
    quantum-to-classical direction. Not a mapped operator: its ground
    energy is whatever it is unless `constant` compensates.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    z = _z_columns(n)
    zz = _bonds(z).sum(axis=0)
    h = _FlipOperator(constant - coupling * zz, np.full(z.shape, -gamma), _flip_table(n)).dense()
    return QuantumHamiltonian(matrix=h, n_spins=n, provenance=PROVENANCE_USER)


def mapped_chain_hamiltonian(n: int, k: float, rule: RateRule) -> QuantumHamiltonian:
    """Generic mapped Hamiltonian of the uniform chain (J=1) at K = beta."""
    model = spins.chain_model(n, [1.0] * n)
    return classical_to_quantum(build_generator(model, k, rule))
