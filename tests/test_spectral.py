import math

import numpy as np
import pytest
import scipy.linalg

from isingbridge import cli, markov, quantum, spectral, spins
from test_markov import perturbed_rate
from test_spins import random_model

SOLVES = [pytest.param(spectral.eig_sym, id="vectors"),
          pytest.param(lambda m: spectral.eig_sym(m, eigvals_only=True), id="values-only")]


class TestEigSym:
    def test_identity(self):
        evals, _ = spectral.eig_sym(np.eye(8))
        assert np.all(evals == 1.0)

    def test_two_by_two_flip_matrix(self):
        evals, vecs = spectral.eig_sym(np.array([[0.0, -1.0], [-1.0, 0.0]]))
        assert np.abs(evals - np.array([-1.0, 1.0])).max() <= 1e-15
        expected = np.array([1.0, 1.0]) / math.sqrt(2)
        for col in range(2):
            v = vecs[:, col]
            assert np.abs(np.abs(v) - expected).max() <= 1e-15

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(17)
        m = rng.normal(size=(64, 64))
        m = m + m.T
        evals, vecs = spectral.eig_sym(m)
        residual = np.abs(m - (vecs * evals) @ vecs.T).max()
        assert residual <= 1e-9 * np.abs(m).max()
        assert np.abs(vecs.T @ vecs - np.eye(64)).max() <= 1e-10

    @pytest.mark.parametrize("solve", SOLVES)
    def test_rejects_asymmetric(self, solve):
        with pytest.raises(ValueError, match="symmetric"):
            solve(np.array([[0.0, 1.0], [0.5, 0.0]]))

    @pytest.mark.parametrize("solve", SOLVES)
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_nonfinite(self, solve, value):
        with pytest.raises(ValueError, match="not symmetric"):
            solve(np.array([[0.0, value], [value, 0.0]]))

    @pytest.mark.parametrize("solve", SOLVES)
    @pytest.mark.parametrize("dim", [3, 5])
    def test_any_square_size(self, solve, dim):
        """The symmetry check pads to a power of two for its XOR masks; the solve
        sees the matrix as given."""
        m = np.random.default_rng(dim).normal(size=(dim, dim))
        m = m + m.T
        result = solve(m)
        evals = result if isinstance(result, np.ndarray) else result[0]
        assert evals.shape == (dim,)
        assert np.abs(evals - np.linalg.eigvalsh(m)).max() <= 1e-13 * np.abs(m).max()

    @pytest.mark.parametrize("solve", SOLVES)
    @pytest.mark.parametrize("value", [0.5, math.nan])
    def test_rejects_asymmetric_or_nonfinite_three_by_three(self, solve, value):
        m = np.array([[0.0, 1.0, 0.0], [1.0, 2.0, -1.0], [0.0, -1.0, 0.0]])
        m[2, 1] = value
        with pytest.raises(ValueError,
                           match="^matrix is not symmetric within 1e-8 relative tolerance$"):
            solve(m)

    @pytest.mark.parametrize("solve", SOLVES)
    def test_rejects_oversized(self, solve):
        with pytest.raises(ValueError, match="cap"):
            solve(np.zeros((4097, 4097)))

    @pytest.mark.parametrize("solve", SOLVES)
    def test_rejects_nonsquare(self, solve):
        with pytest.raises(ValueError, match="square"):
            solve(np.zeros((3, 4)))


RULES = [markov.HEAT_BATH, markov.METROPOLIS, markov.UniformRate(0.1)]
# bounds set from the worst case measured over the inputs below, about 10x above it:
# eigenvalues 5.7e-15, residuals 1.0e-15 and orthonormality 5.7e-15, each relative
# to the spectral norm, and projector distances 1.1e-14 norm / separation
SPLIT_TOL = 5e-14
SPLIT_PROJECTOR_TOL = 1e-13


def _chain_hamiltonian(n, beta, rule):
    return quantum.assemble_direct(spins.chain_model(n, [1.0] * n), beta, rule).matrix.copy()


def _chain_symmetric_form(n, beta, rule):
    generator = markov.build_generator(spins.chain_model(n, [1.0] * n), beta, rule)
    return markov._symmetric_form(generator, markov.SYMMETRY_TOL).dense()


def _clusters(evals, tol=1e-8):
    """(start, stop) of each run of levels with neighbours closer than tol."""
    start = 0
    while start < evals.size:
        stop = start + 1
        while stop < evals.size and evals[stop] - evals[stop - 1] < tol:
            stop += 1
        yield start, stop
        start = stop


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestFlipSplit:
    """A flip-symmetric matrix is solved as two half blocks; one `np.linalg` call on
    the same matrix is the oracle, and every other matrix gets exactly that call."""

    def assert_matches_unsplit(self, matrix):
        assert spectral._flip_symmetric(matrix)
        ref_values, ref_vectors = np.linalg.eigh(matrix)
        norm = np.abs(ref_values).max()
        values, vectors = spectral.eig_sym(matrix)
        assert np.abs(values - ref_values).max() <= SPLIT_TOL * norm
        assert np.abs(spectral.eig_sym(matrix, eigvals_only=True)
                      - ref_values).max() <= SPLIT_TOL * norm
        assert np.abs(matrix @ vectors - vectors * values).max() <= SPLIT_TOL * norm
        assert np.abs(vectors.T @ vectors - np.eye(len(matrix))).max() <= SPLIT_TOL
        # the spectral projectors P, Q of each cluster closer than 1e-8, as
        # ||P - Q||_F^2 = 2 ||vectors_cluster^T ref_vectors_rest||_F^2, which has no
        # cancellation; Davis-Kahan bounds it by roundoff * norm / separation
        overlap = vectors.T @ ref_vectors
        for start, stop in _clusters(ref_values):
            rest = np.delete(overlap[start:stop], np.s_[start:stop], axis=1)
            distance = np.sqrt(2.0 * (rest ** 2).sum())
            separation = min(ref_values[start] - ref_values[start - 1] if start else np.inf,
                             ref_values[stop] - ref_values[stop - 1]
                             if stop < ref_values.size else np.inf)
            assert distance * separation <= SPLIT_PROJECTOR_TOL * norm

    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    @pytest.mark.parametrize("beta", [0.0, 0.5, 2.0, 5.0])
    @pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.name)
    def test_chain_hamiltonian(self, n, beta, rule):
        self.assert_matches_unsplit(_chain_hamiltonian(n, beta, rule))

    @pytest.mark.parametrize("n", [4, 6, 8])
    @pytest.mark.parametrize("beta", [0.0, 0.5, 2.0, 5.0])
    @pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.name)
    def test_generator_symmetric_form(self, n, beta, rule):
        self.assert_matches_unsplit(_chain_symmetric_form(n, beta, rule))

    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_transverse_field_chain(self, n, gamma):
        self.assert_matches_unsplit(quantum.transverse_field_chain(n, gamma).matrix)

    def assert_unsplit_bitwise(self, matrix):
        assert not spectral._flip_symmetric(matrix)
        values, vectors = spectral.eig_sym(matrix)
        ref_values, ref_vectors = np.linalg.eigh(matrix)
        assert _same_bits(values, ref_values) and _same_bits(vectors, ref_vectors)
        assert _same_bits(spectral.eig_sym(matrix, eigvals_only=True),
                          np.linalg.eigvalsh(matrix))

    def test_field_model_is_not_split(self):
        model = spins.IsingModel(6, [((0, 1), 1.0), ((2, 3), -0.5), ((4,), 0.3)])
        self.assert_unsplit_bitwise(quantum.assemble_direct(model, 0.7, markov.HEAT_BATH).matrix)

    def test_odd_size_is_not_split(self):
        matrix = np.random.default_rng(5).normal(size=(5, 5))
        matrix = matrix + matrix.T
        matrix = matrix + matrix[::-1, ::-1]  # flip-symmetric, but odd
        assert np.array_equal(matrix, matrix[::-1, ::-1])
        self.assert_unsplit_bitwise(matrix)

    def test_flip_symmetric_to_one_ulp_is_not_split(self):
        matrix = _chain_hamiltonian(6, 0.5, markov.HEAT_BATH)
        matrix[0, 1] = matrix[1, 0] = np.nextafter(matrix[1, 0], 0.0)
        assert np.abs(matrix - matrix[::-1, ::-1]).max() <= 1e-16
        self.assert_unsplit_bitwise(matrix)

    @pytest.mark.parametrize("solve", SOLVES)
    def test_asymmetric_flip_symmetric_input_raises_before_any_solve(self, solve, solves,
                                                                     monkeypatch):
        def no_split(*args):
            raise AssertionError("split before the symmetry check")
        monkeypatch.setattr(spectral, "_half_block", no_split)
        matrix = _chain_hamiltonian(4, 0.5, markov.HEAT_BATH)
        matrix[0, 1] += 0.5
        matrix[-1, -2] += 0.5  # the flip image, so only the symmetry is broken
        assert spectral._flip_symmetric(matrix)
        with pytest.raises(ValueError, match="not symmetric"):
            solve(matrix)
        assert solves == []


class TestGeneratorSpectrum:
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_nonfinite_rate(self, value):
        gen = markov.build_generator(spins.chain_model(4, [1.0] * 4), 0.7, markov.HEAT_BATH)
        with pytest.raises(ValueError, match="detailed balance"):
            spectral.spectrum_of_generator(perturbed_rate(gen, value))

    def test_top_eigenvalue_is_zero(self):
        rng = np.random.default_rng(2)
        model = random_model(5, 6, rng)
        gen = markov.build_generator(model, 0.7, markov.HEAT_BATH)
        report = spectral.spectrum_of_generator(gen)
        assert abs(report.eigenvalues[-1]) <= 1e-10
        assert report.eigenvalues[0] <= report.eigenvalues[-1]

    def test_uniform_chain_gap(self):
        gen = markov.build_generator(spins.chain_model(6, [1.0] * 6), 0.5,
                                     markov.HEAT_BATH)
        report = spectral.spectrum_of_generator(gen)
        assert abs(report.gap - (1.0 - math.tanh(1.0))) <= 1e-9

    def test_infinite_temperature_binomial_multiplicities(self):
        rng = np.random.default_rng(4)
        model = random_model(4, 5, rng)
        gen = markov.build_generator(model, 0.0, markov.HEAT_BATH)
        report = spectral.spectrum_of_generator(gen)
        expected = np.sort(np.concatenate(
            [np.full(math.comb(4, k), -float(k)) for k in range(5)]))
        assert np.abs(report.eigenvalues - expected).max() <= 1e-10

    def test_ground_vector_is_sqrt_boltzmann(self):
        # the generator report is values-only; its ground vector is that of H = -S
        model = spins.chain_model(4, [1.0] * 4)
        gen = markov.build_generator(model, 0.9, markov.HEAT_BATH)
        assert spectral.spectrum_of_generator(gen).ground_vector is None
        report = spectral.spectrum_of_hamiltonian(quantum.classical_to_quantum(gen))
        expected = np.sqrt(spins.boltzmann(model, 0.9))
        v = report.ground_vector * np.sign(report.ground_vector.sum())
        assert np.abs(v - expected).max() <= 1e-10


class TestCompareSpectra:
    def test_identical(self):
        result = spectral.compare_spectra([1.0, 2.0], [2.0, 1.0], 1e-12)
        assert result.matched and result.max_deviation == 0.0

    def test_small_difference_fails_tight_tolerance(self):
        result = spectral.compare_spectra([0.0, 1.0], [0.0, 1.0 + 1e-6], 1e-9)
        assert not result.matched

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            spectral.compare_spectra([1.0], [1.0, 2.0], 1e-9)

    def test_mapped_pair_shares_spectrum(self):
        gen = markov.build_generator(spins.chain_model(8, [1.0] * 8), 0.6,
                                     markov.HEAT_BATH)
        ham = quantum.classical_to_quantum(gen)
        gen_report = spectral.spectrum_of_generator(gen)
        ham_evals = spectral.spectrum_of_hamiltonian(ham).eigenvalues
        result = spectral.compare_spectra(-gen_report.eigenvalues, ham_evals, 1e-9)
        assert result.matched


class TestEigenvectorCorrespondence:
    def test_gap_is_inverse_relaxation_time(self):
        gen = markov.build_generator(spins.chain_model(5, [1.0] * 5), 0.8,
                                     markov.HEAT_BATH)
        ham_gap = spectral.spectrum_of_hamiltonian(
            quantum.classical_to_quantum(gen)).gap
        assert abs(ham_gap - 1.0 / markov.relaxation_time(gen)) <= 1e-9

    def test_nondegenerate_modes_map_through_exponential(self):
        rng = np.random.default_rng(23)
        model = random_model(4, 6, rng)
        gen = markov.build_generator(model, 0.7, markov.HEAT_BATH)
        ham = quantum.classical_to_quantum(gen)
        evals_h, vecs_h = spectral.eig_sym(ham.matrix)

        # independent oracle: right eigenvectors of the raw nonsymmetric W
        evals_w, vecs_w = scipy.linalg.eig(gen.matrix)
        order = np.argsort(-evals_w.real)  # -lambda ascending = H order
        gaps = np.diff(np.sort(-evals_w.real))
        if gaps.min() < 1e-8:
            pytest.skip("random model drew a degenerate spectrum")
        half = 0.5 * gen.beta * gen.energies
        scale = np.exp(half - half.max())
        for n, idx in enumerate(order):
            mapped = scale * vecs_w[:, idx].real
            mapped /= np.linalg.norm(mapped)
            cos = abs(float(mapped @ vecs_h[:, n]))
            assert cos >= 1.0 - 1e-8

    def test_degenerate_subspaces_match_as_projectors(self):
        model = spins.chain_model(4, [1.0] * 4)  # translation symmetry degeneracies
        gen = markov.build_generator(model, 0.7, markov.HEAT_BATH)
        ham = quantum.classical_to_quantum(gen)
        evals_h, vecs_h = spectral.eig_sym(ham.matrix)

        evals_w, vecs_w = scipy.linalg.eig(gen.matrix)
        order = np.argsort(-evals_w.real)
        half = 0.5 * gen.beta * gen.energies
        scale = np.exp(half - half.max())
        mapped = scale[:, None] * vecs_w[:, order].real

        start = 0
        while start < evals_h.size:
            stop = start + 1
            while stop < evals_h.size and evals_h[stop] - evals_h[stop - 1] < 1e-8:
                stop += 1
            block = mapped[:, start:stop]
            q, _ = np.linalg.qr(block)
            proj_w = q @ q.T
            vh = vecs_h[:, start:stop]
            proj_h = vh @ vh.T
            assert np.abs(proj_w - proj_h).max() <= 1e-8
            start = stop


@pytest.fixture
def solves(monkeypatch):
    """(kind, dim) of every np.linalg.eigh ("vectors") and eigvalsh ("values") call."""
    calls = []
    for name, kind in (("eigh", "vectors"), ("eigvalsh", "values")):
        def counting(a, *args, _original=getattr(np.linalg, name), _kind=kind, **kwargs):
            calls.append((_kind, len(a)))
            return _original(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counting)
    return calls


class TestSolveCounts:
    """Each solve computes only what its caller reads."""

    def test_bridge_check_solves_vectors_once(self, solves, tmp_path):
        # the mapped H's vectors feed the ground-state residual; the generator
        # spectrum is read as values only. The chain commutes with the spin flip,
        # so each matrix is solved as its two 32-row half blocks.
        assert cli.main(["bridge-check", "--chain", "6", "--out", str(tmp_path)]) == 0
        assert sorted(solves) == [("values", 32)] * 2 + [("vectors", 32)] * 2

    def test_field_model_solves_whole_matrices(self, solves, tmp_path):
        # one field term breaks the flip symmetry: one solve per matrix, as np.linalg
        path = tmp_path / "model.json"
        spins.save_model(spins.IsingModel(6, [((0, 1), 1.0), ((2, 3), -0.5), ((4,), 0.3)]),
                         path)
        assert cli.main(["bridge-check", "--model", str(path), "--out", str(tmp_path)]) == 0
        assert sorted(solves) == [("values", 64), ("vectors", 64)]

    def test_uniform_fermion_check_solves_no_vectors(self, solves, tmp_path):
        assert cli.main(["fermion-check", "--chain", "6", "--out", str(tmp_path)]) == 0
        assert solves and all(call == ("values", 32) for call in solves)

    def test_relaxation_time_solves_no_dense_matrix(self, solves):
        gen = markov.build_generator(spins.chain_model(8, [1.0] * 8), 0.5, markov.HEAT_BATH)
        markov.relaxation_time(gen)
        assert solves and all(kind == "values" and dim < 256 for kind, dim in solves)
