"""Exact spectrum of heat-bath chain dynamics via the Jordan-Wigner route.

The heat-bath chain Hamiltonian is quadratic in Jordan-Wigner fermions,
so its full 2^N spectrum is reconstructed from a single-particle
dispersion: states with an even number of fermions draw momenta from the
antiperiodic grid pi*(2k+1)/N, odd states from the periodic grid 2*pi*k/N,
and each excitation costs 2*eps_p. For bond-dependent couplings the
quadratic form is no longer diagonal in momentum and the single-particle
energies are the singular values of a small matrix. The chain's one argument
check and its quadratic-form constants live here; `quantum` assembles the
closed-form heat-bath Hamiltonians from the same constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spins


def _check_chain(n: int, beta: float, max_abs_coupling: float | None = 1.0) -> None:
    """Reject odd n, n < 4 or n over its cap, a bad beta, and beta*max|J| > 350.

    cosh(2*350) ~ 5e303. The chain entry points call this before they build
    an n-mode grid or an n x n form. Pass max_abs_coupling=None where no
    cosh is taken (the Metropolis chain).
    """
    if n < 4 or n % 2:
        raise ValueError(f"the closed-form chain needs even n >= 4, got {n}")
    spins._check_spins(n, "single-particle block")
    spins._check_beta(beta)
    if max_abs_coupling is not None and not beta * max_abs_coupling <= 350:
        raise ValueError(f"beta*max|J| = {beta * max_abs_coupling} exceeds 350, "
                         "where cosh overflows; rescale the problem")


@dataclass(frozen=True)
class FermionChainParams:
    """Chain size and temperature with the derived quadratic-form constants.

    constant = N/2, hop = (tanh 2K)/2 (nearest-neighbor), hop2 =
    sinh^2 K / (2 cosh 2K) (next-nearest), field = cosh^2 K / (2 cosh 2K).
    Exact identities: field + hop2 = 1/2 and field - hop2 = 1/(2 cosh 2K).
    """

    n: int
    k: float

    def __post_init__(self):
        _check_chain(self.n, self.k)

    @property
    def constant(self) -> float:
        return 0.5 * self.n

    @property
    def hop(self) -> float:
        return 0.5 * math.tanh(2 * self.k)

    @property
    def hop2(self) -> float:
        return math.sinh(self.k) ** 2 / (2.0 * math.cosh(2 * self.k))

    @property
    def field(self) -> float:
        return math.cosh(self.k) ** 2 / (2.0 * math.cosh(2 * self.k))


def momentum_grid(n: int, sector: str) -> np.ndarray:
    """Allowed momenta for a parity sector of an n-site periodic chain.

    'even' (even fermion number, antiperiodic): p = pi*(2k+1)/n;
    'odd' (periodic): p = 2*pi*k/n; k = 0..n-1 in both cases.
    """
    k = np.arange(n)
    if sector == "even":
        return math.pi * (2 * k + 1) / n
    if sector == "odd":
        return 2.0 * math.pi * k / n
    raise ValueError(f"sector must be 'even' or 'odd', got {sector!r}")


def dispersion(k: float, p) -> np.ndarray | float:
    """Single-quasiparticle energy eps_p = (1 + tanh 2K cos p) / 2.

    It equals the modulus form |field + hop e^{ip} + hop2 e^{2ip}|, and
    eps_p >= 0 for all p since tanh 2K < 1.
    """
    params = FermionChainParams(4, k)  # the constants do not depend on N
    eps = 0.5 + params.hop * np.cos(np.asarray(p, dtype=float))
    return eps if np.ndim(p) else float(eps)


def many_body_spectrum(params: FermionChainParams) -> np.ndarray:
    """All 2^N energies from occupation subsets, sorted ascending.

    Even-size subsets of the antiperiodic grid plus odd-size subsets of
    the periodic grid; a subset costs the sum of its 2*eps_p. The empty
    subset is the zero-energy ground state.
    """
    n = params.n
    bits = spins._bits(n).T  # [subset, mode]
    eps_even = np.asarray(dispersion(params.k, momentum_grid(n, "even")))
    eps_odd = np.asarray(dispersion(params.k, momentum_grid(n, "odd")))

    parity = bits.sum(axis=1) & 1
    energies = np.where(parity == 0, bits @ (2.0 * eps_even), bits @ (2.0 * eps_odd))
    return np.sort(energies)


def ground_energy_offset(params: FermionChainParams) -> float:
    """N/2 minus the summed antiperiodic dispersion; zero in exact arithmetic."""
    eps = np.asarray(dispersion(params.k, momentum_grid(params.n, "even")))
    return params.constant - float(eps.sum())


def finite_gap(params: FermionChainParams) -> float:
    """Lowest excitation energy min_p 2*eps_p over the periodic grid.

    For even n the grid contains p = pi, so this equals 1 - tanh 2K
    independently of n.
    """
    eps = np.asarray(dispersion(params.k, momentum_grid(params.n, "odd")))
    return float(2.0 * eps.min())


def _site_dependent_constants(couplings, beta: float):
    """Checked per-site quadratic-form constants (field, hop, hop2) for bond couplings.

    With c_j = cosh(beta*J_j), s_j = sinh(beta*J_j) and D_j = c_j^2 c_{j+1}^2
    - s_j^2 s_{j+1}^2 = c_j^2 + s_{j+1}^2 (the sum does not cancel), the
    transverse strength at site j is field_j = c_j c_{j+1} / (2 D_j), the
    three-site term hop2_j = s_j s_{j+1} / (2 D_j), and the bond (j, j+1)
    carries hop_j = c_{j+1} s_{j+1} (1/D_j + 1/D_{j+1}) / 2. Uniform
    couplings reproduce the uniform constants.
    """
    couplings = np.asarray([float(j) for j in couplings])
    _check_chain(couplings.size, beta, np.abs(couplings).max(initial=0.0))
    c = np.cosh(beta * couplings)
    s = np.sinh(beta * couplings)
    c_next = np.roll(c, -1)
    s_next = np.roll(s, -1)
    denom = c ** 2 + s_next ** 2
    field = c * c_next / (2.0 * denom)
    hop2 = s * s_next / (2.0 * denom)
    hop = 0.5 * c_next * s_next * (1.0 / denom + 1.0 / np.roll(denom, -1))
    return field, hop, hop2


def _quadratic_form(couplings, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) of a random chain's quadratic form, A symmetric and B antisymmetric
    n x n, periodic indices. Its block matrix is M = [[A, B], [-B, -A]]."""
    field, hop, hop2 = _site_dependent_constants(couplings, beta)
    n = field.size
    site = np.arange(n)
    # hop_j couples sites (j, j+1) and hop2_j couples (j-1, j+1)
    rows = np.concatenate([site, (site - 1) % n])
    cols = np.concatenate([(site + 1) % n] * 2)
    half = -0.5 * np.concatenate([hop, hop2])
    a = np.diag(-field)
    b = np.zeros((n, n))
    np.add.at(a, (rows, cols), half)
    np.add.at(a, (cols, rows), half)
    np.add.at(b, (rows, cols), half)
    np.add.at(b, (cols, rows), -half)
    return a, b


def random_single_particle_spectrum(couplings, beta: float) -> np.ndarray:
    """The n single-particle energies eps of a random chain, ascending: for uniform
    couplings the dispersion on the periodic momentum grid. Its block matrix M
    (`_quadratic_form`) has the eigenvalues +-eps. The rotation [[I, I], [I, -I]] /
    sqrt(2) takes M to [[0, A - B], [A + B, 0]], with A + B = (A - B)^T, so the eps
    are the singular values of A - B, computed without vectors and without writing M."""
    a, b = _quadratic_form(couplings, beta)
    return np.linalg.svd(a - b, compute_uv=False)[::-1]  # ascending
