"""Transverse-field Hamiltonians from classical flip dynamics.

The central construction conjugates a detailed-balance generator W by
exp(beta*H0/2) and negates it, giving a real symmetric matrix whose
spectrum is the negated spectrum of W, whose ground energy is zero, and
whose ground state is the square-root Boltzmann vector. For the
periodic nearest-neighbor chain the same matrix is also assembled
directly from closed-form operator expressions, which the tests compare
entry by entry against the generic route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectral, spins
from .markov import (HEAT_BATH, METROPOLIS, MarkovGenerator, RateRule, _flip_tables,
                     build_generator)
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
    if model.n_spins > spins.MAX_DENSE_SPINS:
        raise ValueError(
            f"dense Hamiltonian needs n_spins <= {spins.MAX_DENSE_SPINS}, "
            f"got {model.n_spins}")
    n = model.n_spins
    size = model.n_states
    _, flips, deltas = _flip_tables(model)
    rates = np.asarray(rule.rates(beta, deltas, n))
    weights = np.asarray(rule.weights(beta, deltas, n))

    h = np.zeros((size, size))
    cols = np.arange(size)
    for j in range(n):
        h[flips[j], cols] = -weights[j]
    h[cols, cols] = rates.sum(axis=0)
    return QuantumHamiltonian(matrix=h, n_spins=n, provenance=PROVENANCE_MAPPED,
                              beta=float(beta), rule_name=rule.name)


def _z_columns(n: int) -> np.ndarray:
    """(N, 2^N) array of sigma_j^z eigenvalues for every basis index."""
    idx = np.arange(1 << n)
    return 1 - 2 * ((idx[None, :] >> np.arange(n)[:, None]) & 1)


def _check_chain_args(n: int, coupling_scale: float) -> None:
    if n < 4 or n % 2:
        raise ValueError(f"explicit chain builders need even n >= 4, got {n}")
    spins._check_beta(coupling_scale, "coupling constant")


def chain_heatbath_hamiltonian(n: int, k: float) -> QuantumHamiltonian:
    """Closed-form Hamiltonian for heat-bath dynamics of the uniform chain.

    H = N/2 - (tanh 2K)/2 * sum_j z_j z_{j+1}
        - 1/(2 cosh 2K) * sum_j (cosh^2 K - sinh^2 K z_{j-1} z_{j+1}) x_j

    with periodic indices and K = beta*J at J = 1. Reduces at K = 0 to the
    pure transverse-field form N/2 - sum_j x_j / 2.
    """
    _check_chain_args(n, k)
    size = 1 << n
    z = _z_columns(n)
    zz = sum(z[j] * z[(j + 1) % n] for j in range(n))
    diag = 0.5 * n - 0.5 * math.tanh(2 * k) * zz

    h = np.zeros((size, size))
    cols = np.arange(size)
    h[cols, cols] = diag
    ch2, c2, s2 = math.cosh(2 * k), math.cosh(k) ** 2, math.sinh(k) ** 2
    for j in range(n):
        zz_across = z[(j - 1) % n] * z[(j + 1) % n]
        h[cols ^ (1 << j), cols] = -(c2 - s2 * zz_across) / (2.0 * ch2)
    return QuantumHamiltonian(matrix=h, n_spins=n, provenance=PROVENANCE_EXPLICIT,
                              beta=float(k), rule_name=HEAT_BATH.name)


def chain_metropolis_hamiltonian(n: int, k: float) -> QuantumHamiltonian:
    """Closed-form Hamiltonian for Metropolis dynamics of the uniform chain.

    H = N(3 + e^{-4K})/4
        - (1 - e^{-4K})/4 * sum_j (2 z_j z_{j+1} + z_{j-1} z_{j+1})
        - (1 + e^{-2K})/2 * sum_j (1 - tanh K z_{j-1} z_{j+1}) x_j
    """
    _check_chain_args(n, k)
    size = 1 << n
    z = _z_columns(n)
    zz = sum(z[j] * z[(j + 1) % n] for j in range(n))
    zxz = sum(z[(j - 1) % n] * z[(j + 1) % n] for j in range(n))
    e4, e2, th = math.exp(-4 * k), math.exp(-2 * k), math.tanh(k)
    diag = 0.25 * n * (3.0 + e4) - 0.25 * (1.0 - e4) * (2.0 * zz + zxz)

    h = np.zeros((size, size))
    cols = np.arange(size)
    h[cols, cols] = diag
    for j in range(n):
        zz_across = z[(j - 1) % n] * z[(j + 1) % n]
        h[cols ^ (1 << j), cols] = -0.5 * (1.0 + e2) * (1.0 - th * zz_across)
    return QuantumHamiltonian(matrix=h, n_spins=n, provenance=PROVENANCE_EXPLICIT,
                              beta=float(k), rule_name=METROPOLIS.name)


def chain_random_heatbath_hamiltonian(couplings, beta: float) -> QuantumHamiltonian:
    """Closed-form heat-bath Hamiltonian for a chain with bond-dependent couplings.

    couplings[j] is the bond between sites j-1 and j (periodic), matching
    chain_model. With c_j = cosh(beta*J_j), s_j = sinh(beta*J_j) and
    D_j = c_j^2 c_{j+1}^2 - s_j^2 s_{j+1}^2:

    H = N/2 - sum_j [c_j s_j z_{j-1} z_j + c_{j+1} s_{j+1} z_j z_{j+1}] / (2 D_j)
            - sum_j (c_j c_{j+1} - s_j s_{j+1} z_{j-1} z_{j+1}) / (2 D_j) * x_j
    """
    couplings = np.asarray([float(j) for j in couplings])
    n = couplings.size
    if n < 4 or n % 2:
        raise ValueError(f"random chain builder needs even n >= 4, got {n}")
    spins._check_beta(beta)
    if np.abs(beta * couplings).max() > 350:
        raise ValueError("beta*|J| above 350 would overflow cosh; rescale the problem")

    c = np.cosh(beta * couplings)
    s = np.sinh(beta * couplings)
    c_next = np.roll(c, -1)   # c_{j+1}
    s_next = np.roll(s, -1)
    denom = c ** 2 * c_next ** 2 - s ** 2 * s_next ** 2

    size = 1 << n
    z = _z_columns(n)
    diag = np.full(size, 0.5 * n)
    for j in range(n):
        diag -= (c[j] * s[j] * z[(j - 1) % n] * z[j]
                 + c_next[j] * s_next[j] * z[j] * z[(j + 1) % n]) / (2.0 * denom[j])

    h = np.zeros((size, size))
    cols = np.arange(size)
    h[cols, cols] = diag
    for j in range(n):
        zz_across = z[(j - 1) % n] * z[(j + 1) % n]
        h[cols ^ (1 << j), cols] = -(c[j] * c_next[j] - s[j] * s_next[j] * zz_across) \
            / (2.0 * denom[j])
    return QuantumHamiltonian(matrix=h, n_spins=n, provenance=PROVENANCE_EXPLICIT,
                              beta=float(beta), rule_name=HEAT_BATH.name)


def transverse_field_chain(n: int, gamma: float, coupling: float = 1.0,
                           constant: float = 0.0) -> QuantumHamiltonian:
    """Standard transverse-field chain c*I - J sum_j z_j z_{j+1} - Gamma sum_j x_j.

    Periodic boundary; used as a generic stoquastic input for the
    quantum-to-classical direction. Not a mapped operator: its ground
    energy is whatever it is unless `constant` compensates.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    size = 1 << n
    z = _z_columns(n)
    zz = sum(z[j] * z[(j + 1) % n] for j in range(n))
    h = np.zeros((size, size))
    cols = np.arange(size)
    h[cols, cols] = constant - coupling * zz
    for j in range(n):
        h[cols ^ (1 << j), cols] = -gamma
    return QuantumHamiltonian(matrix=h, n_spins=n, provenance=PROVENANCE_USER)


def mapped_chain_hamiltonian(n: int, k: float, rule: RateRule) -> QuantumHamiltonian:
    """Generic mapped Hamiltonian of the uniform chain (J=1) at K = beta."""
    model = spins.chain_model(n, [1.0] * n)
    return classical_to_quantum(build_generator(model, k, rule))
