import math

import numpy as np
import pytest
import scipy.linalg

from isingbridge import cli, markov, quantum, reverse, spectral, spins
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
        """A matrix of any size, not only 2^N, is checked and solved as given."""
        m = np.random.default_rng(dim).normal(size=(dim, dim))
        m = m + m.T
        result = solve(m)
        evals = result if isinstance(result, np.ndarray) else result[0]
        assert evals.shape == (dim,)
        assert np.abs(evals - np.linalg.eigvalsh(m)).max() <= 1e-13 * np.abs(m).max()

    @pytest.mark.parametrize("solve", SOLVES)
    @pytest.mark.parametrize("value", [0.5, math.nan, math.inf])  # inf: max|A - A^T| = max|A|
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


class TestEigSymOnOperators:
    """An operator is checked for symmetry, then solved on the blocks of its symmetry
    group; its vectors are the lowest level's alone."""

    def test_invariant_operator_matches_its_dense_matrix(self):
        h = quantum.assemble_direct(spins.chain_model(6, [1.0] * 6), 0.5,
                                    markov.HEAT_BATH).operator
        values, vectors = spectral.eig_sym(h)
        assert len(h) == 64 and vectors.shape == (64, 1)
        expected = np.linalg.eigvalsh(h.dense())
        norm = np.abs(expected).max()
        for solved in (values, spectral.eig_sym(h, eigvals_only=True)):
            assert np.abs(solved - expected).max() <= 1e-13 * norm
        assert np.abs(h(vectors[:, 0]) - values[0] * vectors[:, 0]).max() <= 1e-14 * norm

    def test_other_operator_gets_the_dense_solve(self):
        model = spins.IsingModel(6, [((0, 1), 1.0), ((2, 3), -0.5), ((4,), 0.3)])
        h = quantum.assemble_direct(model, 0.7, markov.HEAT_BATH).operator
        values, vectors = spectral.eig_sym(h)
        ref_values, ref_vectors = np.linalg.eigh(h.dense())
        assert _same_bits(values, ref_values) and _same_bits(vectors, ref_vectors[:, :1])
        assert _same_bits(spectral.eig_sym(h, eigvals_only=True),
                          np.linalg.eigvalsh(h.dense()))

    @pytest.mark.parametrize("solve", SOLVES)
    @pytest.mark.parametrize("value", [None, math.nan, math.inf])
    def test_rejects_asymmetric_or_nonfinite_operator(self, solve, value, solves):
        # W itself is not symmetric at beta > 0; a NaN or infinite entry fails too
        model = spins.chain_model(4, [1.0] * 4)
        op = markov.build_generator(model, 0.7, markov.HEAT_BATH).operator
        if value is not None:
            op = quantum.assemble_direct(model, 0.7, markov.HEAT_BATH).operator
            op = markov._FlipOperator(op.diag.copy(), op.off, op.flips)
            op.diag[3] = value
        with pytest.raises(ValueError,
                           match="^operator is not symmetric within 1e-8 relative tolerance$"):
            solve(op)
        assert solves == []

    @pytest.mark.parametrize("solve", SOLVES)
    def test_rejects_oversized_operator(self, solve):
        n = 13  # invariant and flip-symmetric, yet the blocks keep the dense cap
        op = markov._FlipOperator(np.zeros(1 << n), np.zeros((n, 1 << n)),
                                  markov._flip_table(n))
        with pytest.raises(ValueError, match="cap"):
            solve(op)


RULES = [markov.HEAT_BATH, markov.METROPOLIS, markov.UniformRate(0.1)]


def _chain_hamiltonian(n, beta, rule):
    return quantum.assemble_direct(spins.chain_model(n, [1.0] * n), beta, rule).matrix.copy()


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# bounds about 10x above the worst measured over the inputs below and the property
# tests of translation-invariant and even-order models, relative to the spectral
# norm: eigenvalues 8.3e-15 (momentum-only blocks: 1.6e-14), ground-vector residuals
# 1.4e-15 (9.5e-16); and |v^2 - P0| * gap / max|H| reached 3.1e-16, as on the dense
# route
BLOCK_TOL = 1e-13
BLOCK_RESIDUAL_TOL = 1e-14
BLOCK_BOLTZMANN_TOL = 3e-15


def _random_invariant_operator(n, rng):
    """A symmetric single-flip operator with one Gaussian diagonal entry per orbit of
    the cyclic shift and one off-diagonal entry per orbit of flip pairs: invariant
    bit for bit, of either sign, so its ground level may lie at any momentum."""
    states = np.arange(1 << n)
    shifts = np.arange(n)[:, None, None]
    flips = markov._flip_table(n)
    ends, other_ends = (spectral._rotated(c, shifts, n) for c in (states[None, :], flips))
    pair = (np.minimum(ends, other_ends) * states.size + np.maximum(ends, other_ends)).min(axis=0)
    _, pair_orbit = np.unique(pair, return_inverse=True)
    _, state_orbit = np.unique(ends[:, 0].min(axis=0), return_inverse=True)
    return markov._FlipOperator(rng.normal(size=state_orbit.max() + 1)[state_orbit],
                                rng.normal(size=pair_orbit.max() + 1)[pair_orbit], flips)


def _shift_invariant(operator):
    """Whether the operator's symmetry group holds the cyclic shift of its sites."""
    return spectral._group(operator)[1] > 1


def assert_blocks_match_dense(operator, keep_ground_vector):
    """`spectral._solve` splits the operator by a group of symmetries, and its spectrum
    and ground vector (when kept and given) match `np.linalg` on the dense matrix.
    Returns the ground vector, the dense matrix and its eigenvalues."""
    assert len(spectral._group(operator)[0]) > 1
    matrix = operator.dense()
    expected = np.linalg.eigvalsh(matrix)
    norm = np.abs(expected).max()
    values, ground = spectral._solve(operator, keep_ground_vector)
    assert np.abs(values - expected).max() <= BLOCK_TOL * norm
    if ground is not None:
        assert abs(np.linalg.norm(ground) - 1.0) <= BLOCK_RESIDUAL_TOL
        assert (np.abs(matrix @ ground - values[0] * ground).max()
                <= BLOCK_RESIDUAL_TOL * norm)
    return ground, matrix, expected


class TestMomentumBlocks:
    """An operator that commutes with the cyclic shift, the spin flip or both is
    solved one block of its symmetry group at a time, one momentum and flip parity
    per block; `np.linalg` on its dense matrix is the oracle."""

    @pytest.mark.parametrize("n", range(3, 11))  # odd N have no k = pi block
    @pytest.mark.parametrize("beta", [0.0, 0.25, 0.5, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.name)
    def test_chain(self, n, beta, rule):
        model = spins.chain_model(n, [1.0] * n)
        generator = markov.build_generator(model, beta, rule)
        symmetric = markov._symmetric_form(generator, markov.SYMMETRY_TOL)
        assert _shift_invariant(symmetric)
        assert_blocks_match_dense(symmetric, keep_ground_vector=False)
        h = quantum.assemble_direct(model, beta, rule).operator
        ground, _, expected = assert_blocks_match_dense(h, keep_ground_vector=True)
        # a connected stoquastic H has its ground level in the trivial character's block
        assert ground is not None
        gap = expected[1] - expected[0]
        if gap > 1e-6:  # where v^2 is not too ill-conditioned to compare
            deviation = np.abs(ground ** 2 - spins.boltzmann(model, beta)).max()
            assert deviation * gap <= BLOCK_BOLTZMANN_TOL * h.max_abs()

    @pytest.mark.parametrize("n", range(3, 11))
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_transverse_field_chain(self, n, gamma):
        h = quantum.transverse_field_chain(n, gamma).operator
        assert _shift_invariant(h)
        ground, _, _ = assert_blocks_match_dense(h, keep_ground_vector=True)
        assert ground is not None

    @pytest.mark.parametrize("n", range(3, 9))
    def test_random_invariant_operators(self, n):
        rng = np.random.default_rng(n)
        for _ in range(10):
            operator = _random_invariant_operator(n, rng)
            assert _shift_invariant(operator)
            assert_blocks_match_dense(operator, True)

    @staticmethod
    def assert_lowest_block_vector(operator, monkeypatch):
        """The operator's ground level lies below its trivial block's lowest by more
        than SHIFT_TOL max|A|, and `_solve` reads it from its own block with no dense
        write: eigenvalues within BLOCK_TOL of the dense oracle's, and a real unit
        ground vector whose residual is within BLOCK_RESIDUAL_TOL max|A|. Returns the
        lowest block."""
        blocks = [block for block, *_ in spectral._symmetry_blocks(operator)]
        lowest = [np.linalg.eigvalsh(block)[0] for block in blocks]
        assert min(lowest) < lowest[0] - spectral.SHIFT_TOL * operator.max_abs()
        matrix = operator.dense()
        expected = np.linalg.eigvalsh(matrix)

        def no_dense(self):
            raise AssertionError("a dense write in an operator solve")
        monkeypatch.setattr(markov._FlipOperator, "dense", no_dense)
        values, ground = spectral._solve(operator, keep_ground_vector=True)
        assert np.abs(values - expected).max() <= BLOCK_TOL * np.abs(expected).max()
        assert ground.dtype == float and ground.shape == (len(operator),)
        assert abs(np.linalg.norm(ground) - 1.0) <= BLOCK_RESIDUAL_TOL
        assert (np.abs(matrix @ ground - values[0] * ground).max()
                <= BLOCK_RESIDUAL_TOL * operator.max_abs())
        return blocks[int(np.argmin(lowest))]

    @pytest.mark.parametrize("n, seed, dtype", [(4, 5, float), (5, 2, complex)],
                             ids=["real", "complex"])
    def test_ground_level_outside_m0_reads_its_block(self, n, seed, dtype, monkeypatch):
        """Seeds that draw an operator whose ground level lies at m != 0: at N = 4 in
        the real block of m = N / 2, at N = 5 in a complex block, whose vector psi
        gives the real Re psi of the same level."""
        operator = _random_invariant_operator(n, np.random.default_rng(seed))
        assert self.assert_lowest_block_vector(operator, monkeypatch).dtype == dtype

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_flip_odd_ground_level_reads_its_block(self, n, monkeypatch):
        """-sum z_j z_{j+1} + sum x_j commutes with the shift and the flip, and for odd
        N its ground level is flip-odd: the product of all z_j carries the ground
        vector of the chain at -Gamma, which is flip-even, to it and anticommutes
        with the flip. The trivial block misses it, and the flip-odd block gives it."""
        operator = quantum.transverse_field_chain(n, -1.0).operator
        assert _shift_invariant(operator)
        assert self.assert_lowest_block_vector(operator, monkeypatch).dtype == float

    def test_tunnelling_partner_below_by_roundoff_takes_no_dense_solve(self, monkeypatch):
        """At Gamma = 0.05 and N = 12 the flip-odd partner lies 2.8e-14 above E0, and
        the blocks can put it below by roundoff. That is no lower level: the trivial
        block's vector is kept, the positive Perron vector, where a dense solve takes
        10 s and mixes the two levels."""
        def no_dense(self):
            raise AssertionError("a dense solve for a level lower only by roundoff")
        monkeypatch.setattr(markov._FlipOperator, "dense", no_dense)
        h = quantum.transverse_field_chain(12, 0.05).operator
        values, ground = spectral._solve(h, keep_ground_vector=True)
        ground *= np.sign(ground.sum())
        assert ground.min() > 0
        assert np.abs(h(ground) - values[0] * ground).max() <= BLOCK_RESIDUAL_TOL * h.max_abs()

    @pytest.mark.parametrize("keep_ground_vector", [False, True])
    def test_one_changed_coupling_keeps_only_the_flip(self, keep_ground_vector):
        # the changed bond breaks the shift, but the chain still commutes with the flip
        model = spins.chain_model(6, [1.0] * 5 + [1.0 + 1e-6])
        h = quantum.assemble_direct(model, 0.5, markov.HEAT_BATH).operator
        assert not _shift_invariant(h)
        ground, _, _ = assert_blocks_match_dense(h, keep_ground_vector)
        assert (ground is not None) == keep_ground_vector

    def test_operator_with_other_masks_keeps_only_the_flip(self):
        # a nearest-neighbour pair flip commutes with the shift but is no single flip
        matrix = quantum.transverse_field_chain(4, 0.5).matrix.copy()
        states = np.arange(16)
        matrix[states, states ^ 3] = matrix[states ^ 3, states] = -0.25
        operator = markov._FlipOperator.from_dense(matrix)
        assert not _shift_invariant(operator)
        ground, _, _ = assert_blocks_match_dense(operator, keep_ground_vector=True)
        assert ground is not None

    def test_raw_matrix_never_takes_the_blocks(self, monkeypatch):
        """A caller's matrix takes one np.linalg call, also when it is a chain's and
        commutes with both the cyclic shift and the global spin flip."""
        def no_blocks(*args):
            raise AssertionError("symmetry blocks for a caller's matrix")
        monkeypatch.setattr(spectral, "_symmetry_blocks", no_blocks)
        matrix = _chain_hamiltonian(6, 0.5, markov.HEAT_BATH)
        values, vectors = spectral.eig_sym(matrix)
        ref_values, ref_vectors = np.linalg.eigh(matrix)
        assert _same_bits(values, ref_values) and _same_bits(vectors, ref_vectors)
        assert _same_bits(spectral.eig_sym(matrix, eigvals_only=True),
                          np.linalg.eigvalsh(matrix))

    def test_shift_tolerance_is_a_tenth_of_the_reverse_shift(self):
        # the block eigenvalues lie within SHIFT_TOL max|A| of the operator's, so the
        # reverse map's shift below E0 keeps H - sigma I an M-matrix on either route
        assert spectral.SHIFT_TOL <= reverse.INVERSE_SHIFT / 10

    @pytest.mark.parametrize("factor, invariant", [(0.9, True), (1.1, False)])
    def test_operator_at_the_shift_tolerance(self, factor, invariant):
        """Every configuration but the orbit representatives lowered by delta, with
        (N + 1) delta just inside or just beyond SHIFT_TOL max|A|: the blocks read only
        the representatives, so they solve the operator before the change. Either
        route's eigenvalues lie within SHIFT_TOL max|A| of the dense oracle's, and
        the reverse map's inverse iteration converges."""
        n = 8
        h = quantum.assemble_direct(spins.chain_model(n, [1.0] * n), 0.5,
                                    markov.HEAT_BATH).operator
        states = np.arange(1 << n)
        rep = spectral._rotated(states, np.arange(n)[:, None], n).min(axis=0)
        delta = factor * spectral.SHIFT_TOL * h.max_abs() / (n + 1)
        perturbed = markov._FlipOperator(h.diag - delta * (rep != states), h.off, h.flips)
        assert _shift_invariant(perturbed) is invariant
        expected = np.linalg.eigvalsh(perturbed.dense())
        values = spectral.eig_sym(perturbed, eigvals_only=True)
        assert np.abs(values - expected).max() <= spectral.SHIFT_TOL * perturbed.max_abs()
        result = reverse.quantum_to_classical(quantum.QuantumHamiltonian(
            operator=perturbed, provenance=quantum.PROVENANCE_USER))
        assert max(result.condition_residuals.values()) <= reverse.CONDITION_TOL


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
    """(kind, dim) of every np.linalg.eigh ("vectors"), eigvalsh ("values") and solve
    ("lu") call."""
    calls = []
    for name, kind in (("eigh", "vectors"), ("eigvalsh", "values"), ("solve", "lu")):
        def counting(a, *args, _original=getattr(np.linalg, name), _kind=kind, **kwargs):
            calls.append((_kind, len(a)))
            return _original(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counting)
    return calls


class TestSolveCounts:
    """Each solve computes only what its caller reads."""

    # the chain commutes with the cyclic shift and the spin flip, so each operator is
    # solved as its blocks of momentum m = 0..3 and flip parity +-, with 8, 6, 4, 5, 6,
    # 5, 4 and 6 rows
    CHAIN_6_BLOCKS = (8, 6, 4, 5, 6, 5, 4, 6)

    def test_bridge_check_solves_vectors_once(self, solves, tmp_path):
        # the mapped H's vectors feed the ground-state residual; the generator
        # spectrum is read as values only. Vectors only for H's block of the trivial
        # character, m = 0 and flip-even, which holds its ground level.
        assert cli.main(["bridge-check", "--chain", "6", "--out", str(tmp_path)]) == 0
        values = self.CHAIN_6_BLOCKS + self.CHAIN_6_BLOCKS[1:]  # W's blocks, then H's
        assert sorted(solves) == sorted([("values", dim) for dim in values] + [("vectors", 8)])

    def test_field_model_solves_whole_matrices(self, solves, tmp_path):
        # one field term breaks the flip symmetry, and the model has no shift symmetry:
        # each matrix is its one block, one solve each
        path = tmp_path / "model.json"
        spins.save_model(spins.IsingModel(6, [((0, 1), 1.0), ((2, 3), -0.5), ((4,), 0.3)]),
                         path)
        assert cli.main(["bridge-check", "--model", str(path), "--out", str(tmp_path)]) == 0
        assert sorted(solves) == [("values", 64), ("vectors", 64)]

    def test_uniform_fermion_check_solves_no_vectors(self, solves, tmp_path):
        assert cli.main(["fermion-check", "--chain", "6", "--out", str(tmp_path)]) == 0
        assert sorted(solves) == sorted(("values", dim) for dim in self.CHAIN_6_BLOCKS)

    @pytest.mark.parametrize("argv", [("--chain", "6"), ("--tfield", "6")])
    def test_reverse_lu_runs_on_the_shift_and_flip_sector(self, argv, solves, tmp_path):
        # the 64 configurations fall into 8 orbits of the cyclic shift and the spin flip
        assert cli.main(["reverse", *argv, "--out", str(tmp_path)]) == 0
        lu = [dim for kind, dim in solves if kind == "lu"]
        assert lu and set(lu) == {8}

    @pytest.mark.parametrize("terms, rows", [
        # even-order terms off the ring: the spin flip alone, orbits of two
        ([((0, 1), 1.0), ((2, 3), -0.5), ((1, 4), 0.75), ((0, 2, 3, 5), 0.5)], 32),
        # a field on one site of the ring: no symmetry, the block is all of H
        ([((j, (j + 1) % 6), -1.0) for j in range(6)] + [((0,), 0.3)], 64),
    ], ids=["flip", "none"])
    def test_reverse_lu_runs_on_the_model_sector(self, terms, rows, solves, tmp_path):
        path = tmp_path / "model.json"
        spins.save_model(spins.IsingModel(6, terms), path)
        assert cli.main(["reverse", "--model", str(path), "--out", str(tmp_path)]) == 0
        lu = [dim for kind, dim in solves if kind == "lu"]
        assert lu and set(lu) == {rows}

    def test_relaxation_time_solves_no_dense_matrix(self, solves):
        gen = markov.build_generator(spins.chain_model(8, [1.0] * 8), 0.5, markov.HEAT_BATH)
        markov.relaxation_time(gen)
        # the Lanczos solve's tridiagonal eigenvalues and inverse-iteration LUs
        assert solves and all(kind != "vectors" and dim < 256 for kind, dim in solves)
