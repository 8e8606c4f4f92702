"""Quantum Hamiltonians mapped back to classical energy tables and generators.

A symmetric matrix with nonpositive off-diagonals and a connected
off-diagonal graph has a unique, entrywise-positive ground state; minus
twice its elementwise logarithm defines a classical energy table, and
conjugating the (ground-shifted) Hamiltonian by exp(-H0/2) recovers a
transition-rate matrix in detailed balance at unit inverse temperature.
The energy table generally carries couplings at every interaction order,
which the Walsh expansion below makes explicit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spins
from .markov import MarkovGenerator
from .quantum import QuantumHamiltonian
from .spectral import eig_sym

ENTRY_FLOOR = 1e-300
DEGENERACY_GUARD = 1e-10
OFFDIAG_SIGN_TOL = 1e-12
CONDITION_TOL = 1e-9


def _stoquastic_offdiag(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validate the sign structure; return the strictly negative off-diagonal graph."""
    scale = np.abs(matrix).max()
    tol = OFFDIAG_SIGN_TOL * max(scale, 1.0)
    off = matrix.copy()
    np.fill_diagonal(off, 0.0)
    if off.max() > tol:
        rows, cols = np.nonzero(off > tol)
        raise ValueError(
            f"off-diagonal entry at ({rows[0]}, {cols[0]}) is positive "
            f"({off[rows[0], cols[0]]:.3g}); only nonpositive off-diagonals map to "
            "classical flip rates (a positive transverse coupling has no rate analog)")
    return np.nonzero(off < -tol)


def _check_connected(dim: int, rows: np.ndarray, cols: np.ndarray) -> None:
    neighbors: list[list[int]] = [[] for _ in range(dim)]
    for r, c in zip(rows.tolist(), cols.tolist()):
        neighbors[r].append(c)
    seen = np.zeros(dim, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        node = stack.pop()
        for nb in neighbors[node]:
            if not seen[nb]:
                seen[nb] = True
                stack.append(nb)
    if not seen.all():
        raise ValueError(
            "off-diagonal graph is disconnected: the ground state need not be "
            "positive and the classical dynamics would be reducible")


def _ground_state(hamiltonian: QuantumHamiltonian) -> tuple[float, np.ndarray]:
    """(ground energy, entrywise-positive unit ground vector), with guards."""
    matrix = hamiltonian.matrix
    rows, cols = _stoquastic_offdiag(matrix)
    _check_connected(matrix.shape[0], rows, cols)
    evals, evecs = eig_sym(matrix)
    if evals[1] - evals[0] < DEGENERACY_GUARD:
        raise ValueError(
            f"ground state is degenerate (gap {evals[1] - evals[0]:.3g}); "
            "the elementwise logarithm is not well defined")
    vec = evecs[:, 0].copy()
    vec *= np.sign(vec[np.argmax(np.abs(vec))])
    if vec.min() < ENTRY_FLOOR:
        raise ValueError(
            f"ground-vector entry {vec.min():.3g} is below the {ENTRY_FLOOR} floor; "
            "its logarithm would be numerically meaningless")
    return float(evals[0]), vec


def perron_ground_state(hamiltonian: QuantumHamiltonian) -> np.ndarray:
    """Entrywise-positive unit ground vector of a stoquastic Hamiltonian.

    Rejects matrices with positive off-diagonal entries (beyond a 1e-12
    zero tolerance), a disconnected off-diagonal graph, a degenerate
    ground level, or ground-vector entries below 1e-300.
    """
    _, vec = _ground_state(hamiltonian)
    return vec


@dataclass(frozen=True)
class ReverseMapResult:
    """Classical dynamics recovered from a stoquastic Hamiltonian."""

    energy_table: np.ndarray
    generator: MarkovGenerator
    beta_effective: float
    ground_shift: float               # energy subtracted to zero the ground level
    condition_residuals: dict[str, float]


def quantum_to_classical(hamiltonian: QuantumHamiltonian,
                         condition_tol: float = CONDITION_TOL) -> ReverseMapResult:
    """Recover the energy table and generator encoded by a stoquastic Hamiltonian.

    Shifts the ground energy to zero (recording the shift), sets
    H0 = -2 log(ground vector), and forms
    W = -exp(-H0/2) (H - shift) exp(H0/2) on the nonzero pattern. The
    four generator conditions (nonnegative off-diagonals, zero column
    sums, stationarity of exp(-H0), detailed balance at beta = 1) are
    each verified against `condition_tol` and reported in the result.
    """
    shift, vec = _ground_state(hamiltonian)
    shifted = hamiltonian.matrix - shift * np.eye(hamiltonian.matrix.shape[0])
    energy_table = -2.0 * np.log(vec)

    w = np.zeros_like(shifted)
    rows, cols = np.nonzero(shifted)
    w[rows, cols] = -(vec[rows] / vec[cols]) * shifted[rows, cols]

    residuals = _generator_conditions(w, energy_table)
    worst = max(residuals.values())
    if worst > condition_tol:
        name = max(residuals, key=residuals.get)
        raise ValueError(
            f"recovered matrix fails the {name} condition "
            f"(residual {residuals[name]:.3g} > {condition_tol:g})")

    generator = MarkovGenerator(matrix=w, beta=1.0, energies=energy_table,
                                n_spins=hamiltonian.n_spins, rule=None, model=None)
    return ReverseMapResult(energy_table=energy_table, generator=generator,
                            beta_effective=1.0, ground_shift=shift,
                            condition_residuals=residuals)


def _generator_conditions(w: np.ndarray, energy_table: np.ndarray) -> dict[str, float]:
    """Normalized residuals of the four transition-matrix conditions."""
    off = w.copy()
    np.fill_diagonal(off, 0.0)
    rate_scale = max(np.abs(off).max(), 1e-30)

    sign = max(0.0, -off.min()) / rate_scale

    conservation = np.abs(w.sum(axis=0)).max() / max(np.abs(np.diag(w)).max(), 1e-30)

    p0 = np.exp(-(energy_table - energy_table.min()))
    p0 /= p0.sum()
    flux = off * p0[None, :]
    flux_scale = max(np.abs(flux).max(), 1e-30)
    stationarity = np.abs(w @ p0).max() / flux_scale
    balance = np.abs(flux - flux.T).max() / flux_scale

    return {"offdiagonal-sign": float(sign),
            "probability-conservation": float(conservation),
            "stationarity": float(stationarity),
            "detailed-balance": float(balance)}


@dataclass(frozen=True)
class CouplingExpansion:
    """All 2^N product-basis coefficients of an energy table.

    coefficients[mask] multiplies prod_{i in mask} sigma_i; mask 0 is the
    constant. The expansion is exact: transforming back reproduces the
    table.
    """

    n_spins: int
    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients.setflags(write=False)

    def coefficient(self, sites) -> float:
        mask = 0
        for s in sites:
            mask |= 1 << s
        return float(self.coefficients[mask])

    def locality_profile(self) -> dict[int, float]:
        """Max |coefficient| at each interaction order 0..N."""
        orders = _popcount(np.arange(self.coefficients.size))
        return {k: float(np.abs(self.coefficients[orders == k]).max())
                for k in range(self.n_spins + 1)}

    def reconstruct(self) -> np.ndarray:
        """Energy table reproduced from the coefficients (exact inverse)."""
        return _walsh(self.coefficients)

    def rows(self):
        """(order, sites, coefficient) triples for export, by ascending mask."""
        for mask in range(self.coefficients.size):
            sites = tuple(i for i in range(self.n_spins) if (mask >> i) & 1)
            yield len(sites), sites, float(self.coefficients[mask])


def _popcount(values: np.ndarray) -> np.ndarray:
    counts = np.zeros_like(values)
    v = values.copy()
    while v.any():
        counts += v & 1
        v >>= 1
    return counts


def _walsh(table: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh transform b[m] = sum_s (-1)^{popcount(m & s)} a[s]."""
    a = np.array(table, dtype=float)
    size = a.size
    h = 1
    while h < size:
        a = a.reshape(-1, 2 * h)
        left = a[:, :h].copy()
        right = a[:, h:].copy()
        a[:, :h] = left + right
        a[:, h:] = left - right
        h *= 2
    return a.reshape(-1)


def extract_couplings(energy_table) -> CouplingExpansion:
    """Expand an energy table over spin-product monomials.

    Uses the in-place butterfly transform, O(N 2^N): by orthogonality
    of the products, coefficients[m] = 2^{-N} sum_s table[s] chi_m(s).
    """
    table = np.asarray(energy_table, dtype=float)
    size = table.size
    n = size.bit_length() - 1
    if size != 1 << n or n < 1:
        raise ValueError(f"table length {size} is not a power of two")
    spins._check_spins(n, "Walsh expansion")
    return CouplingExpansion(n_spins=n, coefficients=_walsh(table) / size)
