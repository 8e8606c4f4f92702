"""Symmetric eigensolves and spectrum reports.

Every eigenproblem in the package goes through the symmetric path: a
nonsymmetric generator is first conjugated by exp(beta*H0/2), which is
symmetric and isospectral (`markov._symmetric_form`), never decomposed directly.

`eig_sym` takes a dense matrix or an operator (`markov._FlipOperator`), and
each solve computes only what its caller reads. `eig_sym(...,
eigvals_only=True)`, `spectrum_report(..., keep_ground_vector=False)` and
`spectrum_of_generator` run LAPACK's values-only driver; only reports that
carry a ground vector compute eigenvectors, on the momentum route those of
the m = 0 block alone. The gap alone, without a dense matrix, is
`markov.relaxation_time`'s Lanczos solve.

A symmetric operator or matrix takes one of two routes:

- Momentum blocks. An operator of single-spin flips that commutes, to
  roundoff, with the cyclic shift of sites (`_translation_invariant`) is
  solved one lattice momentum k = 2 pi m / N at a time, on the orbits of the
  shift, and writes no 2^N x 2^N matrix (A. W. Sandvik, AIP Conf. Proc. 1297,
  135 (2010)): the W, symmetric form and H of the uniform chain under every
  rule, the transverse-field chain and models whose terms come with all
  their translates.
- Dense. Every other operator is written densely once, and it and every
  matrix a caller passes take one `np.linalg.eigh` or `eigvalsh` call,
  which stays the tests' oracle for the blocks.

The reverse map reads its ground energy, gap guard (`reverse.DEGENERACY_GUARD`) and
Perron vector from one block, `_sector`: the block on the orbits of the shift and the
global spin flip where the operator has them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import markov, spins

if TYPE_CHECKING:  # pragma: no cover
    from .quantum import QuantumHamiltonian

# (N + 1) max|A - A'| allowed by `_translation_invariant`, relative to max|A|, where A'
# is the invariant operator the momentum blocks solve. Each row and column of A - A'
# holds at most N + 1 entries, so ||A - A'||_2 is at most SHIFT_TOL max|A| and the
# block eigenvalues lie that close to A's: a tenth of the reverse map's shift below
# E0 (`reverse.INVERSE_SHIFT`). Roundoff alone reaches (N + 1) max|A - A'| = 4.2e-15
# max|A| on the uniform chains up to N = 12, whose outflow sums round differently
# under the shift, and 2.6e-14 on random invariant multibody models up to N = 10,
# whose energy sums do; an operator beyond it takes the dense route
SHIFT_TOL = 1e-13


@dataclass(frozen=True)
class SpectrumReport:
    """Sorted spectrum plus the gap of the analyzed symmetric matrix."""

    eigenvalues: np.ndarray  # ascending
    gap: float
    matrix_dim: int
    ground_vector: np.ndarray | None = None

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)
        if self.ground_vector is not None:
            self.ground_vector.setflags(write=False)


def eig_sym(matrix: np.ndarray | markov._FlipOperator, eigvals_only: bool = False
            ) -> tuple[np.ndarray, np.ndarray] | np.ndarray:
    """Eigendecomposition of a symmetric matrix or operator.

    Eigenvalues ascend. With eigvals_only, only the eigenvalues are computed
    (LAPACK's values-only driver, about half the work) and returned. Else
    the second return value holds orthonormal eigenvectors as columns: all
    of them for a dense matrix, and for a `markov._FlipOperator` only the
    lowest level's, a (2^N, 1) array, which is all the package reads and
    all the momentum blocks compute. A matrix of any square size takes one
    `np.linalg` call. An operator takes the momentum blocks when it commutes
    with the cyclic shift of sites, and is else written densely once for
    that call (`_solve`).
    Rejects asymmetric input (max|A - A^T| beyond 1e-8 max|A|), NaN or
    infinite entries, and more than 2^12 = 4096 rows (the dense-matrix spin
    cap, which the momentum blocks keep).
    """
    if isinstance(matrix, markov._FlipOperator):
        if not matrix.asymmetry() <= markov.SYMMETRY_TOL:  # NaN for a non-finite entry
            raise ValueError("operator is not symmetric within 1e-8 relative tolerance")
        evals, ground = _solve(matrix, keep_ground_vector=not eigvals_only)
        return evals if eigvals_only else (evals, ground[:, None])
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    spins._check_spins((len(matrix) - 1).bit_length(), "dense matrix")  # ceil(log2(dim))
    scale = np.abs(matrix).max(initial=0.0)
    if not (np.isfinite(scale)  # NaN and inf fail here, before A - A^T
            and np.abs(matrix - matrix.T).max(initial=0.0) <= markov.SYMMETRY_TOL * scale):
        raise ValueError("matrix is not symmetric within 1e-8 relative tolerance")
    return np.linalg.eigvalsh(matrix) if eigvals_only else np.linalg.eigh(matrix)


def _rotated(states: np.ndarray, shifts, n: int) -> np.ndarray:
    """T^shifts c for each configuration c of `states`: c rotated left by `shifts`
    bits within n bits, which carries site j to j + shifts mod n."""
    return ((states << shifts) | (states >> ((n - shifts) % n))) & ((1 << n) - 1)


def _shift_orbits(n: int, shift: bool = True, flip: bool = False
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rep, lag, size) of each configuration c of n sites under the cyclic shift T
    where shift and the spin flip c -> c ^ (2^n - 1) where flip: the smallest member
    of its orbit, the l with T^l c = rep (under T alone), and the orbit's size."""
    states = np.arange(1 << n)
    images = _rotated(states, np.arange(n if shift else 1)[:, None], n)  # [r, c]: T^r c
    if flip:
        images = np.concatenate([images, images ^ states[-1]])
    return (images.min(axis=0), images.argmin(axis=0),
            len(images) // (images == states).sum(axis=0))


def _translation_invariant(operator: markov._FlipOperator) -> bool:
    """Whether an operator of the N single-spin flips commutes with the cyclic shift T,
    within `SHIFT_TOL`.

    The momentum blocks read each entry from the orbit representative: with
    T^l c = rep(c), which carries site j to j + l, diag[c] from diag[rep(c)]
    and off[j, c] from off[(j + l) mod N, rep(c)]. The test is that (N + 1)
    times the largest difference is at most SHIFT_TOL * max|A|.
    """
    n = operator.diag.size.bit_length() - 1
    if operator.flips.shape[0] != n or not np.array_equal(operator.flips[:, 0],
                                                          1 << np.arange(n)):
        return False
    rep, lag, _ = _shift_orbits(n)
    carried = operator.off[(np.arange(n)[:, None] + lag) % n, rep]
    deviation = max(np.abs(operator.diag[rep] - operator.diag).max(),
                    np.abs(carried - operator.off).max())
    return bool((n + 1) * deviation <= SHIFT_TOL * operator.max_abs())


def _block(operator: markov._FlipOperator, rep: np.ndarray, size: np.ndarray,
           basis: np.ndarray, phase: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(B, orbit): an operator's block on the orbits whose representatives basis
    lists, ascending, and each configuration's row of B, -1 off basis. With rep and
    size from `_shift_orbits`, B[b, a] = diag[a] [a = b] + sum_{y in orbit b} A[y, a]
    sqrt(R_a / R_b) phase[y]. Raises ValueError above the dense-matrix spin cap."""
    spins._check_spins(rep.size.bit_length() - 1, "dense matrix")
    index = np.full(rep.size, -1)
    index[basis] = np.arange(basis.size)
    flipped = operator.flips[:, basis]  # at (j, i): y = a ^ mask_j for a = basis[i]
    rows = index[rep[flipped]]
    values = (np.take_along_axis(operator.off, flipped, axis=1)  # A[y, a]
              * np.sqrt(size[basis] / size[flipped]) * phase[flipped])
    kept = rows >= 0
    cols = np.broadcast_to(np.arange(basis.size), rows.shape)
    block = np.zeros((basis.size, basis.size), dtype=values.dtype)
    np.add.at(block, (rows[kept], cols[kept]), values[kept])
    block[np.diag_indices(basis.size)] += operator.diag[basis]
    return block, index[rep]


def _momentum_solve(operator: markov._FlipOperator, keep_ground_vector: bool
                    ) -> tuple[np.ndarray, np.ndarray | None]:
    """(ascending eigenvalues, ground vector or None) of a `_translation_invariant`
    symmetric operator, one momentum block at a time.

    The block at k = 2 pi m / N is `_block` on the orbits of T with m R_a = 0
    mod N and phase[c] = e^{-ik l(c)}, where T^l(c) c is c's representative. The
    blocks at k and -k are complex conjugates with one spectrum, so only
    m = 0..N//2 are solved, the levels of 0 < m < N/2 counted twice. Only the
    real m = 0 block is solved with vectors; its lowest u gives the ground vector
    v[T^r a] = u_a / sqrt(R_a). The ground vector is None when another block
    holds a lower level, as it cannot for a connected stoquastic operator, or
    when keep_ground_vector is false. Raises ValueError above the dense-matrix
    spin cap, which the blocks alone would not need, as the dense route does.
    """
    n = operator.diag.size.bit_length() - 1
    rep, lag, period = _shift_orbits(n)
    reps = np.flatnonzero(rep == np.arange(rep.size))
    levels, ground = [], None
    for m in range(n // 2 + 1):
        real = 2 * m % n == 0  # k = 0 or pi: the phases are +-1
        if real:
            phase = 1.0 - 2.0 * (2 * m * lag // n % 2)
        else:
            phase = np.exp(-2j * np.pi * (m * lag % n) / n)
        block, orbit = _block(operator, rep, period, reps[m * period[reps] % n == 0], phase)
        if m == 0 and keep_ground_vector:
            values, vectors = np.linalg.eigh(block)
            ground = vectors[orbit, 0] / np.sqrt(period)
        else:
            values = np.linalg.eigvalsh(block)
        levels.extend([values] * (1 if real else 2))
    if min(values[0] for values in levels) < levels[0][0]:  # a lower level at m != 0
        ground = None
    return np.sort(np.concatenate(levels)), ground


def _sector(operator: markov._FlipOperator) -> tuple[np.ndarray, np.ndarray]:
    """(B, orbit): `_block` of a symmetric operator on all the orbits of the group of
    its symmetries, the cyclic shift T where `_translation_invariant` holds and the
    spin flip F where it commutes with F bit for bit; with neither, B is A. A vector
    u of B gives A the vector v[g a] = u_a / sqrt(R_a), so B holds the Perron vector
    of a connected stoquastic A, which each symmetry leaves invariant. Raises
    ValueError above the dense-matrix spin cap."""
    n = operator.diag.size.bit_length() - 1
    flip = (np.array_equal(operator.diag, operator.diag[::-1])  # [c ^ (2^N - 1)]
            and np.array_equal(operator.off, operator.off[:, ::-1]))
    rep, _, size = _shift_orbits(n, _translation_invariant(operator), flip)
    return _block(operator, rep, size, np.flatnonzero(rep == np.arange(rep.size)),
                  np.ones(rep.size))


def _solve(operator: markov._FlipOperator, keep_ground_vector: bool
           ) -> tuple[np.ndarray, np.ndarray | None]:
    """(ascending eigenvalues, unit ground vector or None) of an operator that
    `eig_sym` has checked to be symmetric and finite.

    A `_translation_invariant` operator takes `_momentum_solve`. Any other, and
    an invariant one whose lowest level lies outside m = 0 when the ground
    vector is kept, is written densely once and solved by one `np.linalg`
    call. Raises ValueError above the dense-matrix spin cap on both routes.
    """
    if _translation_invariant(operator):
        evals, ground = _momentum_solve(operator, keep_ground_vector)
        if ground is not None or not keep_ground_vector:
            return evals, ground
    if not keep_ground_vector:
        return np.linalg.eigvalsh(operator.dense()), None
    evals, vecs = np.linalg.eigh(operator.dense())
    return evals, vecs[:, 0].copy()


def spectrum_report(matrix: np.ndarray | markov._FlipOperator,
                    keep_ground_vector: bool = True) -> SpectrumReport:
    """Eigenvalues, gap and ground vector of a symmetric matrix or operator, by
    `eig_sym`.

    Without keep_ground_vector no eigenvector is computed and the report's
    ground_vector is None.
    """
    if keep_ground_vector:
        evals, evecs = eig_sym(matrix)
        ground = evecs[:, 0].copy()
    else:
        evals, ground = eig_sym(matrix, eigvals_only=True), None
    return SpectrumReport(eigenvalues=evals, gap=float(evals[1] - evals[0]),
                          matrix_dim=evals.size, ground_vector=ground)


def spectrum_of_generator(generator: markov.MarkovGenerator) -> SpectrumReport:
    """Eigenvalues of a generator via `markov._symmetric_form`, values only.

    Reports the eigenvalues of W itself (all <= 0, largest ~ 0) in
    ascending order; the gap is |lambda_1|, the inverse relaxation time.
    No eigenvector is computed: ground_vector is None. The ground vector
    of the mapped Hamiltonian, the square-root Boltzmann vector, is in
    `spectrum_of_hamiltonian(quantum.classical_to_quantum(generator))`.
    Raises ValueError when W is out of detailed balance beyond 1e-8 relative.
    """
    evals = eig_sym(markov._symmetric_form(generator, markov.SYMMETRY_TOL), eigvals_only=True)
    return SpectrumReport(eigenvalues=evals, gap=float(evals[-1] - evals[-2]),
                          matrix_dim=evals.size)


def spectrum_of_hamiltonian(hamiltonian: QuantumHamiltonian) -> SpectrumReport:
    """Spectrum, gap and ground vector of a Hamiltonian, solved on its operator."""
    return spectrum_report(hamiltonian.operator)


@dataclass(frozen=True)
class SpectrumComparison:
    max_deviation: float
    matched: bool
    tol: float


def compare_spectra(a, b, tol: float) -> SpectrumComparison:
    """Element-wise max deviation of two sorted eigenvalue sequences."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.shape != b.shape:
        raise ValueError(f"spectra have different lengths: {a.size} vs {b.size}")
    dev = float(np.abs(a - b).max()) if a.size else 0.0
    return SpectrumComparison(max_deviation=dev, matched=dev <= tol, tol=tol)
