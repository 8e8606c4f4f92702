"""Dense symmetric eigendecomposition and spectrum reports.

Every eigenproblem in the package goes through the symmetric path: a
nonsymmetric generator is first conjugated by exp(beta*H0/2), which is
symmetric and isospectral, and never decomposed directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import spins

if TYPE_CHECKING:  # pragma: no cover
    from .markov import MarkovGenerator
    from .quantum import QuantumHamiltonian

SYMMETRY_TOL = 1e-8


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


def eig_sym(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a dense symmetric matrix.

    Eigenvalues ascend; eigenvectors are the orthonormal columns of the
    second return value. Rejects asymmetric input (beyond 1e-8 relative)
    and dimensions above 2^12 = 4096 (the dense-matrix spin cap).
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    dim = matrix.shape[0]
    spins._check_spins((dim - 1).bit_length(), "dense matrix")  # ceil(log2(dim)) spins
    scale = np.abs(matrix).max()
    if scale > 0 and np.abs(matrix - matrix.T).max() > SYMMETRY_TOL * scale:
        raise ValueError("matrix is not symmetric within 1e-8 relative tolerance")
    return np.linalg.eigh(matrix)


def spectrum_report(matrix: np.ndarray, keep_ground_vector: bool = True) -> SpectrumReport:
    """Decompose a symmetric matrix and package eigenvalues, gap, ground vector."""
    evals, evecs = eig_sym(matrix)
    ground = evecs[:, 0].copy() if keep_ground_vector else None
    return SpectrumReport(eigenvalues=evals, gap=float(evals[1] - evals[0]),
                          matrix_dim=matrix.shape[0], ground_vector=ground)


def symmetrized_generator(generator: MarkovGenerator) -> np.ndarray:
    """exp(beta*H0/2) W exp(-beta*H0/2), symmetric and isospectral to W.

    Applied entrywise on the nonzero pattern of W so that no large
    exponential ever multiplies a zero rate.
    """
    w = generator.matrix
    half = 0.5 * generator.beta * generator.energies
    sym = np.zeros_like(w)
    rows, cols = np.nonzero(w)
    sym[rows, cols] = np.exp(half[rows] - half[cols]) * w[rows, cols]
    return sym


def spectrum_of_generator(generator: MarkovGenerator) -> SpectrumReport:
    """Spectrum of a generator via its symmetric form.

    Reports the eigenvalues of W itself (all <= 0, largest ~ 0) in
    ascending order; the gap is |lambda_1|, the inverse relaxation time.
    The ground vector is the unit eigenvector of the symmetrized matrix
    for the zero eigenvalue (the square-root Boltzmann direction).
    """
    evals, evecs = eig_sym(symmetrized_generator(generator))
    ground = evecs[:, -1].copy()
    return SpectrumReport(eigenvalues=evals, gap=float(evals[-1] - evals[-2]),
                          matrix_dim=evals.size, ground_vector=ground)


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
