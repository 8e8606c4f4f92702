import numpy as np
import pytest

from isingbridge import markov, quantum, spectral, spins
from test_spins import random_model


def hamming_one_pairs(n):
    size = 1 << n
    for c in range(size):
        for j in range(n):
            yield c ^ (1 << j), c


def pure_transverse_matrix(n):
    """N/2 on the diagonal, -1/2 on every single-flip pair."""
    size = 1 << n
    m = np.zeros((size, size))
    np.fill_diagonal(m, 0.5 * n)
    for r, c in hamming_one_pairs(n):
        m[r, c] = -0.5
    return m


class TestClassicalToQuantum:
    def test_infinite_temperature_is_pure_transverse_field(self):
        rng = np.random.default_rng(6)
        model = random_model(4, 5, rng)
        gen = markov.build_generator(model, 0.0, markov.HEAT_BATH)
        ham = quantum.classical_to_quantum(gen)
        assert np.abs(ham.matrix - pure_transverse_matrix(4)).max() <= 1e-15

    def test_similarity_preserves_spectrum(self):
        gen = markov.build_generator(spins.chain_model(3, [1.0] * 3), 0.8,
                                     markov.HEAT_BATH)
        ham_evals = np.linalg.eigvalsh(quantum.classical_to_quantum(gen).matrix)
        w_evals = spectral.spectrum_of_generator(gen).eigenvalues
        assert np.abs(np.sort(np.abs(w_evals)) - np.sort(ham_evals)).max() <= 1e-10

    def test_ground_state_is_sqrt_boltzmann(self):
        model = spins.chain_model(4, [1.0] * 4)
        gen = markov.build_generator(model, 0.6, markov.HEAT_BATH)
        report = spectral.spectrum_of_hamiltonian(quantum.classical_to_quantum(gen))
        expected = np.exp(-0.3 * gen.energies)
        expected /= np.linalg.norm(expected)
        v = report.ground_vector * np.sign(report.ground_vector.sum())
        assert np.abs(v - expected).max() <= 1e-10

    def test_broken_balance_reported(self):
        gen = markov.build_generator(spins.chain_model(4, [1.0] * 4), 0.9,
                                     markov.HEAT_BATH)
        broken = gen.matrix.copy()
        rows, cols = np.nonzero(broken)
        off = rows != cols
        r, c = rows[off][0], cols[off][0]
        broken[r, c] *= 1.5
        bad = markov.MarkovGenerator(matrix=broken, beta=gen.beta,
                                     energies=gen.energies, n_spins=gen.n_spins)
        with pytest.raises(ValueError, match="detailed balance"):
            quantum.classical_to_quantum(bad)

    def test_offdiagonals_nonpositive_and_hamming_one(self):
        rng = np.random.default_rng(8)
        model = random_model(5, 7, rng)
        gen = markov.build_generator(model, 1.1, markov.METROPOLIS)
        ham = quantum.classical_to_quantum(gen)
        off = ham.matrix.copy()
        np.fill_diagonal(off, 0.0)
        assert off.max() <= 0.0
        rows, cols = np.nonzero(off)
        assert all(bin(r ^ c).count("1") == 1 for r, c in zip(rows, cols))

    def test_ground_energy_is_zero(self):
        gen = markov.build_generator(spins.chain_model(5, [1.0] * 5), 1.0,
                                     markov.HEAT_BATH)
        evals = np.linalg.eigvalsh(quantum.classical_to_quantum(gen).matrix)
        assert abs(evals[0]) <= 1e-9


class TestAssembleDirect:
    @pytest.mark.parametrize("n,beta,rule", [(3, 0.5, markov.HEAT_BATH),
                                             (4, 1.2, markov.METROPOLIS)])
    def test_agrees_with_mapped_construction(self, n, beta, rule):
        model = spins.chain_model(n, [1.0] * n)
        direct = quantum.assemble_direct(model, beta, rule)
        mapped = quantum.classical_to_quantum(markov.build_generator(model, beta, rule))
        assert np.abs(direct.matrix - mapped.matrix).max() <= 1e-13

    def test_infinite_temperature_diagonal(self):
        model = spins.chain_model(4, [1.0] * 4)
        direct = quantum.assemble_direct(model, 0.0, markov.HEAT_BATH)
        assert np.all(np.diag(direct.matrix) == 2.0)
        assert np.abs(direct.matrix - pure_transverse_matrix(4)).max() <= 1e-15


class TestHeatBathChain:
    def test_infinite_temperature_limit(self):
        ham = quantum.chain_heatbath_hamiltonian(6, 0.0)
        assert np.abs(ham.matrix - pure_transverse_matrix(6)).max() == 0.0

    def test_zero_temperature_limit(self):
        n, k = 4, 30.0
        ham = quantum.chain_heatbath_hamiltonian(n, k)
        size = 1 << n
        z = quantum._z_columns(n)
        expected = np.zeros((size, size))
        cols = np.arange(size)
        zz = sum(z[j] * z[(j + 1) % n] for j in range(n))
        expected[cols, cols] = 0.5 * n - 0.5 * zz
        for j in range(n):
            expected[cols ^ (1 << j), cols] = -0.25 * (1 - z[(j - 1) % n] * z[(j + 1) % n])
        assert np.abs(ham.matrix - expected).max() <= 1e-10
        # the all-up basis state is an eigenvector with eigenvalue ~ 0
        e0 = np.zeros(size)
        e0[0] = 1.0
        assert np.abs(ham.matrix @ e0).max() <= 1e-10

    @pytest.mark.parametrize("n,k", [(4, 0.3), (6, 0.5), (6, 1.5)])
    def test_equals_mapped_generator(self, n, k):
        explicit = quantum.chain_heatbath_hamiltonian(n, k)
        mapped = quantum.mapped_chain_hamiltonian(n, k, markov.HEAT_BATH)
        assert np.abs(explicit.matrix - mapped.matrix).max() <= 1e-12

    def test_rejects_odd_or_small_or_negative(self):
        with pytest.raises(ValueError):
            quantum.chain_heatbath_hamiltonian(5, 0.5)
        with pytest.raises(ValueError):
            quantum.chain_heatbath_hamiltonian(2, 0.5)
        with pytest.raises(ValueError):
            quantum.chain_heatbath_hamiltonian(6, -0.1)


class TestMetropolisChain:
    def test_infinite_temperature_limit(self):
        n = 4
        ham = quantum.chain_metropolis_hamiltonian(n, 0.0)
        size = 1 << n
        expected = np.zeros((size, size))
        np.fill_diagonal(expected, float(n))
        for r, c in hamming_one_pairs(n):
            expected[r, c] = -1.0
        assert np.abs(ham.matrix - expected).max() == 0.0

    def test_equals_mapped_generator(self):
        explicit = quantum.chain_metropolis_hamiltonian(6, 0.5)
        mapped = quantum.mapped_chain_hamiltonian(6, 0.5, markov.METROPOLIS)
        assert np.abs(explicit.matrix - mapped.matrix).max() <= 1e-12

    @pytest.mark.parametrize("k", [0.2, 1.0])
    def test_ground_energy_zero(self, k):
        evals = np.linalg.eigvalsh(quantum.chain_metropolis_hamiltonian(6, k).matrix)
        assert abs(evals[0]) <= 1e-9


class TestRandomChain:
    def test_uniform_couplings_reduce_to_uniform_builder(self):
        random_form = quantum.chain_random_heatbath_hamiltonian([1.0] * 6, 0.5)
        uniform_form = quantum.chain_heatbath_hamiltonian(6, 0.5)
        assert np.abs(random_form.matrix - uniform_form.matrix).max() <= 1e-13

    def test_alternating_couplings_match_mapped_generator(self):
        couplings = [1.0, -1.0, 1.0, -1.0, 1.0, -1.0]
        explicit = quantum.chain_random_heatbath_hamiltonian(couplings, 0.7)
        gen = markov.build_generator(spins.chain_model(6, couplings), 0.7,
                                     markov.HEAT_BATH)
        assert np.abs(explicit.matrix - quantum.classical_to_quantum(gen).matrix).max() \
            <= 1e-12

    def test_infinite_temperature_limit(self):
        rng = np.random.default_rng(12)
        couplings = rng.normal(size=4)
        ham = quantum.chain_random_heatbath_hamiltonian(couplings, 0.0)
        assert np.abs(ham.matrix - pure_transverse_matrix(4)).max() == 0.0

    def test_rejects_overflow_arguments(self):
        with pytest.raises(ValueError, match="350"):
            quantum.chain_random_heatbath_hamiltonian([400.0] * 4, 1.0)

    def test_strong_couplings_match_direct_assembly(self):
        couplings = [1.0, -0.4, 0.7, -1.0, 0.2, 0.9]
        explicit = quantum.chain_random_heatbath_hamiltonian(couplings, 20.0)
        direct = quantum.assemble_direct(spins.chain_model(6, couplings), 20.0,
                                         markov.HEAT_BATH)
        assert np.abs(explicit.matrix - direct.matrix).max() <= 1e-12

    @pytest.mark.parametrize("k", [20.0, 300.0])
    def test_strong_uniform_couplings_reduce_to_uniform_builder(self, k):
        random_form = quantum.chain_random_heatbath_hamiltonian([1.0] * 6, k)
        uniform_form = quantum.chain_heatbath_hamiltonian(6, k)
        assert np.abs(random_form.matrix - uniform_form.matrix).max() <= 1e-13


class TestHamiltonianInvariants:
    def test_type_rejects_asymmetric_matrix(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            quantum.QuantumHamiltonian(matrix=bad, n_spins=1, provenance="user-supplied")

    def test_diagonal_observable_matches_thermal_average(self):
        rng = np.random.default_rng(31)
        model = random_model(5, 8, rng)
        beta = 0.9
        gen = markov.build_generator(model, beta, markov.HEAT_BATH)
        report = spectral.spectrum_of_hamiltonian(quantum.classical_to_quantum(gen))
        ground = report.ground_vector
        boltz = spins.boltzmann(model, beta)
        magnetization = np.array([spins.spin_values(i, 5).sum()
                                  for i in range(32)], dtype=float)
        for q in (gen.energies, magnetization, rng.normal(size=32)):
            quantum_value = float(ground @ (q * ground))
            thermal_value = float(boltz @ q)
            assert abs(quantum_value - thermal_value) <= 1e-9

    @pytest.mark.parametrize("rule", [markov.HEAT_BATH, markov.METROPOLIS])
    def test_spectrum_sharing_on_random_models(self, rule):
        rng = np.random.default_rng(41)
        model = random_model(5, 6, rng)
        gen = markov.build_generator(model, 0.85, rule)
        w_evals = spectral.spectrum_of_generator(gen).eigenvalues
        h_evals = np.linalg.eigvalsh(quantum.classical_to_quantum(gen).matrix)
        assert spectral.compare_spectra(-w_evals, h_evals, 1e-9).matched
