"""Dense symmetric eigensolves and spectrum reports.

Every eigenproblem in the package goes through the symmetric path: a
nonsymmetric generator is first conjugated by exp(beta*H0/2), which is
symmetric and isospectral (`markov._symmetric_form`), never decomposed directly.

Each solve computes only what its caller reads. `eig_sym(...,
eigvals_only=True)`, `spectrum_report(..., keep_ground_vector=False)` and
`spectrum_of_generator` run LAPACK's values-only driver; only reports that
carry a ground vector compute eigenvectors. The gap alone, without a dense
matrix, is `markov.relaxation_time`'s Lanczos solve.

A matrix that commutes with the global spin flip, c -> 2^N - 1 - c, equals
J A J bit for bit, with J the index reversal. `eig_sym` then solves the two
half blocks A11 +- A12 J, whose eigenvectors give [u; +-J u] / sqrt(2), at
about a quarter of the full solve's work (A. Cantoni and P. Butler, Linear
Algebra Appl. 13, 275 (1976)). The W and H of every model whose terms all
have even order, the uniform chain among them, and the transverse-field chain
take that route; any other matrix takes one `np.linalg` call, which stays the
tests' oracle for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import markov, spins

if TYPE_CHECKING:  # pragma: no cover
    from .quantum import QuantumHamiltonian


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


def _flip_symmetric(matrix: np.ndarray) -> bool:
    """Whether a square matrix of even size >= 4 equals J matrix J bit for bit.

    J reverses the index, so on 2^N configurations it is the global spin flip
    c -> 2^N - 1 - c. A bitwise test, not a tolerance: the half blocks of
    `_half_block` are then an exact orthogonal similarity of the matrix.
    """
    dim = len(matrix)
    return dim >= 4 and dim % 2 == 0 and np.array_equal(matrix, matrix[::-1, ::-1])


def _half_block(matrix: np.ndarray, sign: float) -> np.ndarray:
    """The even (sign +1) or odd (sign -1) half block A11 + sign A12 J of a
    flip-symmetric matrix, a new array of half its size.

    A vector u of the block gives the vector [u; sign J u] / sqrt(2) of the
    matrix at the same eigenvalue. A12 J is A12 with its columns reversed, read
    row by row; its transposed twin (J A21)^T takes about 7 times as long.
    """
    half = len(matrix) // 2
    block = matrix[:half, half:][:, ::-1] * sign
    block += matrix[:half, :half]
    return block


def eig_sym(matrix: np.ndarray, eigvals_only: bool = False
            ) -> tuple[np.ndarray, np.ndarray] | np.ndarray:
    """Eigendecomposition of a dense symmetric matrix.

    Eigenvalues ascend; eigenvectors are the orthonormal columns of the
    second return value. With eigvals_only, only the eigenvalues are
    computed (LAPACK's values-only driver, about half the work) and
    returned. Rejects asymmetric input (beyond 1e-8 relative, by
    `markov._FlipOperator.asymmetry`), NaN or infinite entries, and
    dimensions above 2^12 = 4096 (the dense-matrix spin cap).

    A `_flip_symmetric` matrix is solved as its two `_half_block`s, and the
    eigenvalues are merged in ascending order, the vectors [u; +-u[::-1]] /
    sqrt(2) written straight into that order. Any other matrix goes to one
    `np.linalg.eigh` or `eigvalsh` call, which returns what this function does.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    dim = matrix.shape[0]
    bits = (dim - 1).bit_length()  # ceil(log2(dim)) spins; XOR masks need 2^bits rows
    spins._check_spins(bits, "dense matrix")
    padded = np.pad(matrix, (0, (1 << bits) - dim)) if dim & (dim - 1) else matrix
    if not markov._FlipOperator.from_dense(padded).asymmetry() <= markov.SYMMETRY_TOL:
        raise ValueError("matrix is not symmetric within 1e-8 relative tolerance")
    if not _flip_symmetric(matrix):
        return np.linalg.eigvalsh(matrix) if eigvals_only else np.linalg.eigh(matrix)
    if eigvals_only:
        return np.sort(np.concatenate([np.linalg.eigvalsh(_half_block(matrix, sign))
                                       for sign in (1.0, -1.0)]))
    (even_vals, even), (odd_vals, odd) = (np.linalg.eigh(_half_block(matrix, sign))
                                          for sign in (1.0, -1.0))
    evals = np.concatenate([even_vals, odd_vals])
    order = np.argsort(evals, kind="stable")  # a tie puts the even level first
    place = np.argsort(order)  # the column of each block level in the merged order
    half = dim // 2
    vecs = np.empty((dim, dim))
    for block, cols, sign in ((even, place[:half], 1.0), (odd, place[half:], -1.0)):
        block /= np.sqrt(2.0)
        vecs[:half, cols] = block
        block *= sign
        vecs[half:, cols] = block[::-1]
    return evals[order], vecs


def spectrum_report(matrix: np.ndarray, keep_ground_vector: bool = True) -> SpectrumReport:
    """Eigenvalues, gap and ground vector of a symmetric matrix.

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
    evals = eig_sym(markov._symmetric_form(generator, markov.SYMMETRY_TOL).dense(), eigvals_only=True)
    return SpectrumReport(eigenvalues=evals, gap=float(evals[-1] - evals[-2]),
                          matrix_dim=evals.size)


def spectrum_of_hamiltonian(hamiltonian: QuantumHamiltonian) -> SpectrumReport:
    """Spectrum and ground vector of a dense Hamiltonian matrix."""
    return spectrum_report(hamiltonian.matrix)


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
