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
from .markov import (MarkovGenerator, _FlipOperator, detailed_balance_residual,
                     stationary_distribution)
from .quantum import QuantumHamiltonian
from .spectral import _symmetry_blocks

ENTRY_FLOOR = 1e-300
DEGENERACY_GUARD = 1e-10  # least gap E1 - E0 inside H's fully symmetric sector
OFFDIAG_SIGN_TOL = 1e-12
CONDITION_TOL = 1e-9
INVERSE_SHIFT = 1e-12  # sigma = E0 - 1e-12 max(1, max|H|); at 1e-16 LU can meet an exact 0 pivot
MAX_SOLVES = 16        # inverse-iteration solves before the vector counts as not converged
LOG_ACCURACY = 1e-13   # bound on the log error that the iterates' geometric tail leaves
STALL_CHANGE = 1e-11   # a largest |log(v_new / v_old)| at the solves' roundoff floor


def _stoquastic_offdiag(h: _FlipOperator) -> np.ndarray:
    """Validate the sign structure; return the strictly negative entries of h.off."""
    tol = OFFDIAG_SIGN_TOL * max(h.max_abs(), 1.0)
    positive = h.off > tol
    if positive.any():  # report the first positive entry in row-major order
        row = np.flatnonzero(positive.any(axis=0))[0]
        j = min(np.flatnonzero(positive[:, row]), key=lambda j: h.flips[j, row])
        raise ValueError(
            f"off-diagonal entry at ({row}, {h.flips[j, row]}) is positive "
            f"({h.off[j, row]:.3g}); only nonpositive off-diagonals map to "
            "classical flip rates (a positive transverse coupling has no rate analog)")
    return h.off < -tol


def _check_connected(links: np.ndarray, flips: np.ndarray) -> None:
    """Every configuration is reached from 0 along the entries (j, c) where links holds."""
    seen = np.zeros(flips.shape[1], dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=int)
    while frontier.size:
        reached = flips[:, frontier][links[:, frontier]]
        frontier = np.unique(reached[~seen[reached]])
        seen[frontier] = True
    if not seen.all():
        raise ValueError(
            "off-diagonal graph is disconnected: the ground state need not be "
            "positive and the classical dynamics would be reducible")


def _ground_state(hamiltonian: QuantumHamiltonian) -> tuple[float, np.ndarray]:
    """(ground energy, entrywise-positive unit ground vector), with guards. E0, the
    gap and the vector all come from the block of H's fully symmetric sector, which
    holds the Perron vector; a one-row block has no second level, and its vector is
    exact."""
    h = hamiltonian.operator
    _check_connected(_stoquastic_offdiag(h), h.flips)
    block, orbit, _, _ = next(_symmetry_blocks(h))  # the trivial character's
    evals = np.linalg.eigvalsh(block)
    gap = evals[1] - evals[0] if evals.size > 1 else np.inf
    if gap < DEGENERACY_GUARD:
        raise ValueError(
            f"ground state is degenerate (gap {gap:.3g}); "
            "the elementwise logarithm is not well defined")
    # Shifted inverse iteration on the sector block B: for sigma < E0, B - sigma I is
    # a nonsingular M-matrix, so its solve gives even the tiny entries full relative
    # accuracy, where eigh gives them only absolute accuracy. Each solve leaves the
    # weight ratio r of the first excited level, so a log change d between iterates
    # leaves about d r / (1 - r) to go. Once d is down at the solves' roundoff
    # floor, more solves only add noise, which accumulates when r is near 1.
    offset = INVERSE_SHIFT * max(1.0, h.max_abs())
    r = offset / (gap + offset)
    # A solve's entries are near |vec| / offset, whose squares underflow in the norm
    # once max|H| > 1e154; an input scaled exactly by offset's power of two keeps them
    # near |vec|, and the normalised iterate loses no bit.
    scale = np.frexp(offset)[1]
    # B's vector u has the norm of H's vector v = u[orbit] / sqrt(R) and its log changes
    block[np.diag_indices_from(block)] -= evals[0] - offset  # B - sigma I, in place
    root = np.sqrt(np.bincount(orbit))  # sqrt(R_a)
    vec = root / np.sqrt(orbit.size)  # the uniform unit vector
    for _ in range(MAX_SOLVES):
        new = np.linalg.solve(block, np.ldexp(vec, scale))
        new /= np.linalg.norm(new)
        low = (new / root).min()
        if low < ENTRY_FLOOR:
            raise ValueError(
                f"ground-vector entry {low:.3g} is below the {ENTRY_FLOOR} floor; "
                "its logarithm would be numerically meaningless")
        change = np.abs(np.log(new / vec)).max()
        vec = new
        if change * r <= LOG_ACCURACY * (1.0 - r) or change <= STALL_CHANGE:
            vec = (vec / root)[orbit]
            # the Rayleigh quotient, not evals[0], zeroes (H - E0) v to roundoff; the two
            # differ by up to 4e-14 relative, which the stationarity of W would inherit
            return float(vec @ h(vec)), vec
    raise RuntimeError(
        f"ground vector not converged after {MAX_SOLVES} inverse-iteration solves "
        f"(gap {gap:.3g}, shift {offset:.3g})")


@dataclass(frozen=True)
class ReverseMapResult:
    """Classical dynamics recovered from a stoquastic Hamiltonian."""

    energy_table: np.ndarray
    generator: MarkovGenerator
    beta_effective: float
    ground_shift: float               # energy subtracted to zero the ground level
    condition_residuals: dict[str, float]


def quantum_to_classical(hamiltonian: QuantumHamiltonian) -> ReverseMapResult:
    """Recover the energy table and generator encoded by a stoquastic Hamiltonian.

    Shifts the ground energy to zero (recording the shift), sets
    H0 = -2 log(ground vector), and forms
    W = -exp(-H0/2) (H - shift) exp(H0/2) on the operator of H. The
    four generator conditions (nonnegative off-diagonals, zero column
    sums, stationarity of exp(-H0), detailed balance at beta = 1) are
    each verified against `CONDITION_TOL` and reported in the result.
    The ground vector comes from shifted inverse iteration, repeated
    until its logarithm stops changing, at most MAX_SOLVES times, on the
    block of H's fully symmetric sector, the first of
    `spectral._symmetry_blocks`. The shift and the gap guard read the lowest
    two levels of that block: the gap inside the sector sets convergence,
    and a level outside it never enters.
    Raises ValueError for input that cannot be mapped (a positive
    off-diagonal, a disconnected graph, a degenerate ground level, a
    ground-vector entry below the floor) and RuntimeError on a numeric
    failure: a ground vector that does not converge, or a recovered
    matrix that misses a generator condition.
    """
    shift, vec = _ground_state(hamiltonian)
    h = hamiltonian.operator
    energy_table = -2.0 * np.log(vec)

    # 0.0 - x is -x, and +0.0 for x = +-0.0
    w = _FlipOperator(0.0 - (h.diag - shift), 0.0 - (vec / vec[h.flips]) * h.off, h.flips)
    generator = MarkovGenerator(operator=w, beta=1.0, energies=energy_table, rule=None)

    residuals = _generator_conditions(generator)
    for name, residual in residuals.items():
        if not residual <= CONDITION_TOL:  # NaN fails too
            raise RuntimeError(
                f"recovered matrix fails the {name} condition "
                f"(residual {residual:.3g}, not <= {CONDITION_TOL:g})")

    return ReverseMapResult(energy_table=energy_table, generator=generator,
                            beta_effective=1.0, ground_shift=shift,
                            condition_residuals=residuals)


def _generator_conditions(generator: MarkovGenerator) -> dict[str, float]:
    """Normalized residuals of the four transition-matrix conditions."""
    w = generator.operator
    rate_scale = max(np.abs(w.off).max(initial=0.0), 1e-30)

    sign = max(0.0, -w.off.min(initial=0.0)) / rate_scale

    column_sums = w.transpose()(np.ones(w.diag.size))
    conservation = np.abs(column_sums).max() / max(np.abs(w.diag).max(), 1e-30)

    p0 = stationary_distribution(generator)
    flux_scale = max(np.abs(w.off * p0[w.flips]).max(initial=0.0), 1e-30)
    stationarity = np.abs(w(p0)).max() / flux_scale

    return {"offdiagonal-sign": float(sign),
            "probability-conservation": float(conservation),
            "stationarity": float(stationarity),
            "detailed-balance": detailed_balance_residual(generator)}


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
        orders = spins._bits(self.n_spins).sum(axis=0)
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
    spins._check_spins(n, "N x 2^N array")
    return CouplingExpansion(n_spins=n, coefficients=_walsh(table) / size)
