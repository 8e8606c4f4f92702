"""Symmetric eigensolves and spectrum reports.

Every eigenproblem in the package goes through the symmetric path: a
nonsymmetric generator is first conjugated by exp(beta*H0/2), which is
symmetric and isospectral (`markov._symmetric_form`), never decomposed directly.

`eig_sym` takes a dense matrix or an operator (`markov._FlipOperator`), and
each solve computes only what its caller reads. `eig_sym(...,
eigvals_only=True)`, `spectrum_report(..., keep_ground_vector=False)` and
`spectrum_of_generator` run LAPACK's values-only driver; only reports that
carry a ground vector compute eigenvectors, those of one block alone. The gap
alone, without a dense matrix, is `markov.relaxation_time`'s Lanczos solve.

A matrix a caller passes takes one `np.linalg.eigh` or `eigvalsh` call, which
stays the tests' oracle. An operator is solved on its symmetry blocks alone
(`_symmetry_blocks`; A. W. Sandvik, AIP Conf. Proc. 1297, 135 (2010)), ground
vector included. Its group G is found once (`_group`): the cyclic shift of sites
T where the operator commutes with it to roundoff (`_translation_invariant`), the
global spin flip F where it commutes with F bit for bit. Each character of G, a
lattice momentum k = 2 pi m / N and a flip parity, has one block on the orbits
of G, and the trivial character's block comes first. An operator with no
symmetry has a trivial G, and its one block is its matrix. The W, symmetric
form and H of the uniform chain under every rule and the transverse-field
chain have both symmetries; models whose terms come with all their translates
have T, and models of even-order terms F.

The reverse map reads its ground energy, gap guard (`reverse.DEGENERACY_GUARD`)
and Perron vector from the trivial character's block, the first one.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import markov, spins

if TYPE_CHECKING:  # pragma: no cover
    from .quantum import QuantumHamiltonian

# (N + 1) max|A - A'| allowed by `_translation_invariant`, relative to max|A|, where A'
# is the invariant operator the shift's blocks solve. Each row and column of A - A'
# holds at most N + 1 entries, so ||A - A'||_2 is at most SHIFT_TOL max|A| and the
# block eigenvalues lie that close to A's: a tenth of the reverse map's shift below
# E0 (`reverse.INVERSE_SHIFT`). Roundoff alone reaches (N + 1) max|A - A'| = 4.2e-15
# max|A| on the uniform chains up to N = 12, whose outflow sums round differently
# under the shift, and 2.6e-14 on random invariant multibody models up to N = 10,
# whose energy sums do; G leaves out the shift of an operator beyond it
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
    all the symmetry blocks compute. A matrix of any square size takes one
    `np.linalg` call. An operator is solved on the blocks of its symmetry
    group (`_solve`).
    Rejects asymmetric input (max|A - A^T| beyond 1e-8 max|A|), NaN or
    infinite entries, and more than 2^12 = 4096 rows (the dense-matrix spin
    cap, which the symmetry blocks keep).
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


def _translation_invariant(operator: markov._FlipOperator, shifted: np.ndarray) -> bool:
    """Whether an operator of the N single-spin flips commutes with the cyclic shift T,
    within `SHIFT_TOL`, given shifted[l, c] = T^l c for l < N.

    The blocks read each entry from the orbit representative: with T^l c = rep(c),
    which carries site j to j + l, diag[c] from diag[rep(c)] and off[j, c] from
    off[(j + l) mod N, rep(c)]. The test is that (N + 1) times the largest
    difference is at most SHIFT_TOL * max|A|.
    """
    n = len(shifted)
    if operator.flips.shape[0] != n or not np.array_equal(operator.flips[:, 0],
                                                          1 << np.arange(n)):
        return False
    rep, lag = shifted.min(axis=0), shifted.argmin(axis=0)
    carried = operator.off[(np.arange(n)[:, None] + lag) % n, rep]
    deviation = max(np.abs(operator.diag[rep] - operator.diag).max(),
                    np.abs(carried - operator.off).max())
    return bool((n + 1) * deviation <= SHIFT_TOL * operator.max_abs())


def _group(operator: markov._FlipOperator) -> tuple[np.ndarray, int]:
    """(images, order) of the group G of an operator's symmetries. G is generated by
    the cyclic shift T where `_translation_invariant` holds (order N, else order 1)
    and by the spin flip F: c -> c ^ (2^N - 1) where the operator commutes with F bit
    for bit. images[g, c] = g c for the element g = T^l F^f at index l + order f."""
    n = operator.diag.size.bit_length() - 1
    states = np.arange(1 << n)
    images = _rotated(states, np.arange(n)[:, None], n)  # [l, c]: T^l c
    if not _translation_invariant(operator, images):
        images = images[:1]
    order = len(images)
    if (np.array_equal(operator.diag, operator.diag[::-1])  # [c ^ (2^N - 1)]
            and np.array_equal(operator.off, operator.off[:, ::-1])):
        images = np.concatenate([images, images ^ states[-1]])
    return images, order


def _symmetry_blocks(operator: markov._FlipOperator
                     ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, int]]:
    """(B, orbit, phase, copies) for each character chi of the group G of an
    operator's symmetries (`_group`) whose block is not empty. With g_c the element
    that carries c to its representative and R_c the size of c's orbit, B on the
    representatives, ascending, whose stabiliser chi is trivial on is B[b, a] =
    diag[a] [a = b] + sum_{y in orbit b} A[y, a] sqrt(R_a / R_b) chi(g_y). orbit holds
    each configuration's row of B, -1 off the block, and phase[c] = conj chi(g_c): a
    vector u of B is the operator's v[c] = u[orbit[c]] phase[c] / sqrt(R_c), 0 off
    the block. copies counts the characters whose blocks share B's spectrum.

    chi = (m, s) takes T^l F^f to e^{-2 pi i m l / order} s^f. The blocks of m and
    order - m are complex conjugates, so only m = 0..order//2 are built, those with
    0 < m < order / 2 counted twice. The trivial character comes first: its block
    holds the Perron vector of a connected stoquastic operator. With no symmetry the
    one block is the operator's matrix. Raises ValueError above the dense-matrix cap.
    """
    n = operator.diag.size.bit_length() - 1
    spins._check_spins(n, "dense matrix")
    images, order = _group(operator)
    states = np.arange(1 << n)
    rep, element = images.min(axis=0), images.argmin(axis=0)
    size = len(images) // (images == states).sum(axis=0)
    reps = np.flatnonzero(rep == states)
    position = np.searchsorted(reps, rep)  # of each configuration's representative
    stabilises = images[:, reps] == reps  # [g, i]: g fixes reps[i]
    flip, shift = np.divmod(np.arange(len(images)), order)  # g = T^shift F^flip
    # for every character, at (j, i) with y = a ^ mask_j, a = reps[i]: A[y, a] sqrt(R_a / R_y)
    flipped = operator.flips[:, reps]
    target = position[flipped]
    scaled = (np.take_along_axis(operator.off, flipped, axis=1)
              * np.sqrt(size[reps] / size[flipped]))
    for m in range(order // 2 + 1):
        real = 2 * m % order == 0  # the phases are +-1
        for s in range(len(images) // order):  # s^f = (-1)^(s f)
            # chi(g) = e^{-i pi theta[g] / order}; a representative enters the block
            # where chi is 1 on its whole stabiliser
            theta = (2 * m * shift + order * s * flip) % (2 * order)
            basis = ~(stabilises & (theta != 0)[:, None]).any(axis=0)
            dim = basis.sum()
            if dim:
                angle = np.pi * theta[element] / order
                phase = np.cos(angle) if real else np.exp(-1j * angle)
                row = np.where(basis, np.cumsum(basis) - 1, -1)  # of each representative
                block = np.zeros((dim + 1, dim), dtype=phase.dtype)  # row -1: off the block
                np.add.at(block, (row[target[:, basis]], np.arange(dim)),
                          scaled[:, basis] * phase[flipped[:, basis]])
                block = block[:dim]
                block[np.diag_indices(dim)] += operator.diag[reps[basis]]
                yield block, row[position], phase.conj(), 1 if real else 2


def _solve(operator: markov._FlipOperator, keep_ground_vector: bool
           ) -> tuple[np.ndarray, np.ndarray | None]:
    """(ascending eigenvalues, unit ground vector or None) of an operator that
    `eig_sym` has checked to be symmetric and finite, from its symmetry blocks.

    Only the trivial character's block is solved with vectors, and only when the
    ground vector is kept. Where another block's lowest level lies below it by more
    than the blocks' accuracy, SHIFT_TOL max|A|, as it cannot for a connected
    stoquastic operator, the lowest such block is solved again with vectors. A
    complex block's vector psi gives Re psi, renormalised: the conjugate block holds
    conj psi, orthogonal to psi, so |Re psi| = 1 / sqrt(2). A flip-odd partner that
    roundoff puts just below the ground level keeps the trivial block's Perron
    vector. Raises ValueError above the dense-matrix spin cap.
    """
    levels, ground, lower = [], None, None
    for block, orbit, phase, copies in _symmetry_blocks(operator):
        if keep_ground_vector and not levels:
            values, vectors = np.linalg.eigh(block)
            ground = vectors[:, 0], orbit, phase
            floor = values[0] - SHIFT_TOL * operator.max_abs()
        else:
            values = np.linalg.eigvalsh(block)
            if keep_ground_vector and values[0] < floor:
                floor, lower = values[0], (block, orbit, phase)
        levels.extend([values] * copies)
    evals = np.sort(np.concatenate(levels))
    if ground is None:
        return evals, None
    vector, orbit, phase = ground if lower is None else (
        np.linalg.eigh(lower[0])[1][:, 0], *lower[1:])
    kept = orbit >= 0  # -1 reads the appended 0
    vector = np.append(vector / np.sqrt(np.bincount(orbit[kept])), 0.0)[orbit] * phase
    if np.iscomplexobj(vector):
        vector = vector.real / np.linalg.norm(vector.real)
    return evals, vector


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
