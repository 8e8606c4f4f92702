"""Dense symmetric eigensolves, a Lanczos gap solver and spectrum reports.

Every eigenproblem in the package goes through the symmetric path: a
nonsymmetric generator is first conjugated by exp(beta*H0/2), which is
symmetric and isospectral (`markov._symmetric_form`), never decomposed directly.

Each solve computes only what its caller reads. `eig_sym(...,
eigvals_only=True)`, `spectrum_report(..., keep_ground_vector=False)` and
`spectrum_of_generator` run LAPACK's values-only driver; only reports that
carry a ground vector compute eigenvectors. `_lowest_eigenvalue` finds one
eigenvalue of an operator given as a callable, without a dense matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import markov, spins

if TYPE_CHECKING:  # pragma: no cover
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


def eig_sym(matrix: np.ndarray, eigvals_only: bool = False
            ) -> tuple[np.ndarray, np.ndarray] | np.ndarray:
    """Eigendecomposition of a dense symmetric matrix.

    Eigenvalues ascend; eigenvectors are the orthonormal columns of the
    second return value. With eigvals_only, only the eigenvalues are
    computed (LAPACK's values-only driver, about half the work) and
    returned. Rejects asymmetric input (beyond 1e-8 relative, by
    `markov._FlipOperator.asymmetry`), NaN or infinite entries, and
    dimensions above 2^12 = 4096 (the dense-matrix spin cap).
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    dim = matrix.shape[0]
    bits = (dim - 1).bit_length()  # ceil(log2(dim)) spins; XOR masks need 2^bits rows
    spins._check_spins(bits, "dense matrix")
    padded = np.pad(matrix, (0, (1 << bits) - dim)) if dim & (dim - 1) else matrix
    if not markov._FlipOperator.from_dense(padded).asymmetry() <= SYMMETRY_TOL:
        raise ValueError("matrix is not symmetric within 1e-8 relative tolerance")
    return np.linalg.eigvalsh(matrix) if eigvals_only else np.linalg.eigh(matrix)


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


def _project_out(vector: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """vector minus its components along the orthonormal rows, in two Gram-Schmidt passes."""
    for _ in range(2):
        vector = vector - rows.T @ (rows @ vector)
    return vector


def _lowest_ritz_pair(alpha: list, beta: list) -> tuple[float, float]:
    """Lowest eigenvalue theta of the Lanczos tridiagonal and its Ritz residual.

    alpha is the diagonal; beta[:-1] the off-diagonal and beta[-1] the norm
    of the next Lanczos vector, so the residual is beta[-1] * |s[-1]| for
    the unit eigenvector s of theta. s comes from two inverse-iteration
    solves shifted just below theta, where the shifted matrix is positive
    definite.
    """
    t = np.diag(alpha) + np.diag(beta[:-1], 1) + np.diag(beta[:-1], -1)
    theta = float(np.linalg.eigvalsh(t)[0])
    shifted = t - (theta - 1e-12 * max(1.0, np.abs(t).max())) * np.eye(len(alpha))
    s = np.ones(len(alpha))
    for _ in range(2):
        s = np.linalg.solve(shifted, s)
        s /= np.linalg.norm(s)
    return theta, beta[-1] * abs(s[-1])


def _lowest_eigenvalue(apply, deflate: np.ndarray, tol: float) -> float:
    """Lowest eigenvalue of a symmetric operator on the complement of `deflate`'s rows.

    Lanczos with full reorthogonalisation (Lanczos 1950; Golub & Van Loan,
    Matrix Computations, ch. 10). apply(x) returns A x for a vector x;
    deflate holds orthonormal rows, such as a known ground vector. Each new
    Lanczos vector is orthogonalised against the deflated rows and every
    earlier Lanczos vector in each of two passes, so no roundoff component
    along a deflated row survives to grow into a spurious eigenvalue. The
    start is a seeded Gaussian vector: a symmetric start such as all ones
    has no component along modes odd under a symmetry of A. Stops when the
    lowest Ritz pair's residual is at most tol, or after dim - len(deflate)
    steps, when the Krylov space is the whole complement and the value is
    exact.
    """
    n_deflate, dim = deflate.shape
    basis = np.empty((dim, dim))  # rows: deflate, then Lanczos vectors; pages fill as used
    basis[:n_deflate] = deflate
    q = _project_out(np.random.default_rng(0).normal(size=dim), deflate)
    alpha, beta = [], []
    for k in range(n_deflate, dim):
        q = q / np.linalg.norm(q)
        basis[k] = q
        w = apply(q)
        alpha.append(float(q @ w))
        w = _project_out(w, basis[:k + 1])
        beta.append(float(np.linalg.norm(w)))
        theta, residual = _lowest_ritz_pair(alpha, beta)
        if residual <= tol:
            break
        q = w
    return theta


def spectrum_of_generator(generator: markov.MarkovGenerator) -> SpectrumReport:
    """Eigenvalues of a generator via `markov._symmetric_form`, values only.

    Reports the eigenvalues of W itself (all <= 0, largest ~ 0) in
    ascending order; the gap is |lambda_1|, the inverse relaxation time.
    No eigenvector is computed: ground_vector is None. The ground vector
    of the mapped Hamiltonian, the square-root Boltzmann vector, is in
    `spectrum_of_hamiltonian(quantum.classical_to_quantum(generator))`.
    Raises ValueError when W is out of detailed balance beyond 1e-8 relative.
    """
    evals = eig_sym(markov._symmetric_form(generator, SYMMETRY_TOL).dense(), eigvals_only=True)
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
