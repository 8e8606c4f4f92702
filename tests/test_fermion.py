import math

import numpy as np
import pytest

from isingbridge import fermion, markov, quantum, spectral, spins


def parity_sector_spectra(matrix, n):
    """Eigenvalues of a flip-symmetric Hamiltonian split by global-flip parity."""
    size = 1 << n
    comp = np.arange(size) ^ (size - 1)
    reps = [i for i in range(size) if i < comp[i]]
    sym = np.zeros((size, len(reps)))
    anti = np.zeros((size, len(reps)))
    root = 1.0 / math.sqrt(2.0)
    for col, i in enumerate(reps):
        sym[i, col] = sym[comp[i], col] = root
        anti[i, col] = root
        anti[comp[i], col] = -root
    return (np.linalg.eigvalsh(sym.T @ matrix @ sym),
            np.linalg.eigvalsh(anti.T @ matrix @ anti))


class TestDerivedConstants:
    @pytest.mark.parametrize("k", [0.0, 0.25, 0.5, 1.0, 2.0, 5.0])
    def test_field_plus_hop2_is_half(self, k):
        params = fermion.FermionChainParams(6, k)
        assert abs(params.field + params.hop2 - 0.5) <= 1e-15

    @pytest.mark.parametrize("k", [0.0, 0.5, 1.5])
    def test_field_minus_hop2_positive(self, k):
        params = fermion.FermionChainParams(4, k)
        expected = 1.0 / (2.0 * math.cosh(2 * k))
        assert abs((params.field - params.hop2) - expected) <= 1e-15
        assert params.field - params.hop2 > 0

    def test_rejects_odd_or_negative(self):
        with pytest.raises(ValueError):
            fermion.FermionChainParams(5, 0.5)
        with pytest.raises(ValueError):
            fermion.FermionChainParams(6, -0.1)


# Every entry point that takes a heat-bath or Metropolis chain, called with
# (n, beta) on uniform couplings J = 1; the Metropolis chain takes no cosh.
CHAIN_ENTRY_POINTS = {
    "FermionChainParams": fermion.FermionChainParams,
    "random_single_particle_matrix":
        lambda n, b: fermion.random_single_particle_matrix([1.0] * n, b),
    "chain_heatbath_hamiltonian": quantum.chain_heatbath_hamiltonian,
    "chain_random_heatbath_hamiltonian":
        lambda n, b: quantum.chain_random_heatbath_hamiltonian([1.0] * n, b),
    "chain_metropolis_hamiltonian": quantum.chain_metropolis_hamiltonian,
}


class TestSharedChainCheck:
    @pytest.mark.parametrize("name", CHAIN_ENTRY_POINTS)
    @pytest.mark.parametrize("n, beta, message", [
        (5, 0.5, "the closed-form chain needs even n >= 4, got 5"),
        (2, 0.5, "the closed-form chain needs even n >= 4, got 2"),
        (6, -0.1, "beta must be finite and nonnegative, got -0.1"),
        (6, math.inf, "beta must be finite and nonnegative, got inf"),
    ])
    def test_one_message_for_every_entry_point(self, name, n, beta, message):
        with pytest.raises(ValueError) as info:
            CHAIN_ENTRY_POINTS[name](n, beta)
        assert str(info.value) == message

    @pytest.mark.parametrize("name", sorted(set(CHAIN_ENTRY_POINTS)
                                            - {"chain_metropolis_hamiltonian"}))
    def test_cosh_paths_reject_beta_j_above_350(self, name):
        with pytest.raises(ValueError, match="exceeds 350, where cosh overflows"):
            CHAIN_ENTRY_POINTS[name](4, 400.0)
        CHAIN_ENTRY_POINTS[name](4, 350.0)

    def test_dispersion_rejects_k_above_350(self):
        with pytest.raises(ValueError, match="350"):
            fermion.dispersion(400.0, 0.0)

    def test_metropolis_chain_takes_any_finite_k(self):
        ham = quantum.chain_metropolis_hamiltonian(4, 400.0)
        assert np.isfinite(ham.matrix).all()


class TestMomentumGrid:
    def test_even_sector_excludes_zero_and_pairs(self):
        grid = fermion.momentum_grid(6, "even")
        assert np.abs(grid).min() > 1e-12
        folded = np.sort(np.minimum(grid, 2 * math.pi - grid))
        assert np.abs(folded[0::2] - folded[1::2]).max() <= 1e-12

    def test_odd_sector_contains_zero_and_pi(self):
        grid = fermion.momentum_grid(6, "odd")
        assert 0.0 in grid
        assert np.abs(grid - math.pi).min() <= 1e-12

    def test_unknown_sector(self):
        with pytest.raises(ValueError):
            fermion.momentum_grid(6, "mixed")


class TestDispersion:
    def test_infinite_temperature_is_flat(self):
        for p in (0.0, 1.0, math.pi):
            assert fermion.dispersion(0.0, p) == 0.5

    def test_minimum_at_pi(self):
        expected = 0.5 * (1.0 - math.tanh(1.0))
        assert abs(fermion.dispersion(0.5, math.pi) - expected) <= 1e-15

    def test_cosine_and_modulus_forms_agree(self):
        k, p = 0.3, 1.1
        value = fermion.dispersion(k, p)
        # recompute the modulus form here, independently
        t2 = math.tanh(2 * k)
        field = math.cosh(k) ** 2 / (2 * math.cosh(2 * k))
        hop2 = math.sinh(k) ** 2 / (2 * math.cosh(2 * k))
        modulus = abs(field + 0.5 * t2 * np.exp(1j * p) + hop2 * np.exp(2j * p))
        assert abs(value - modulus) <= 1e-14

    def test_strictly_positive_for_finite_k(self):
        grid = np.linspace(0, 2 * math.pi, 64)
        eps = np.asarray(fermion.dispersion(2.0, grid))
        assert eps.min() > 0.0


class TestManyBodySpectrum:
    def test_infinite_temperature_binomial(self):
        params = fermion.FermionChainParams(6, 0.0)
        spectrum = fermion.many_body_spectrum(params)
        expected = np.sort(np.concatenate(
            [np.full(math.comb(6, k), float(k)) for k in range(7)]))
        assert np.abs(spectrum - expected).max() <= 1e-12

    @pytest.mark.parametrize("n,k", [(4, 0.5), (6, 0.5), (6, 1.0), (8, 0.25)])
    def test_matches_dense_diagonalization(self, n, k):
        spectrum = fermion.many_body_spectrum(fermion.FermionChainParams(n, k))
        dense = np.linalg.eigvalsh(quantum.chain_heatbath_hamiltonian(n, k).matrix)
        assert np.abs(spectrum - dense).max() <= 1e-9

    def test_ground_state_is_zero_and_counts_match(self):
        params = fermion.FermionChainParams(6, 0.8)
        spectrum = fermion.many_body_spectrum(params)
        assert spectrum[0] == 0.0
        assert spectrum.size == 64

    @pytest.mark.parametrize("n,k", [(4, 0.0), (6, 0.5), (8, 1.0), (10, 2.0)])
    def test_ground_energy_offset_vanishes(self, n, k):
        assert abs(fermion.ground_energy_offset(fermion.FermionChainParams(n, k))) \
            <= 1e-12


class TestFiniteGap:
    def test_infinite_temperature_gap_is_one(self):
        assert fermion.finite_gap(fermion.FermionChainParams(6, 0.0)) == 1.0

    def test_matches_tanh_formula(self):
        gap = fermion.finite_gap(fermion.FermionChainParams(8, 0.5))
        assert abs(gap - 0.23840584404423515) <= 1e-15
        assert abs(gap - (1.0 - math.tanh(1.0))) <= 1e-15

    def test_independent_of_chain_length(self):
        gaps = {fermion.finite_gap(fermion.FermionChainParams(n, 0.7))
                for n in (4, 6, 8, 10)}
        assert len(gaps) == 1

    def test_matches_generator_gap(self):
        gen = markov.build_generator(spins.chain_model(6, [1.0] * 6), 0.5,
                                     markov.HEAT_BATH)
        gap_w = spectral.spectrum_of_generator(gen).gap
        gap_f = fermion.finite_gap(fermion.FermionChainParams(6, 0.5))
        assert abs(gap_w - gap_f) <= 1e-9


class TestRandomSingleParticle:
    def test_uniform_couplings_reproduce_dispersion(self):
        _, energies = fermion.random_single_particle_matrix([1.0] * 8, 0.6)
        grid = fermion.momentum_grid(8, "odd")
        expected = np.sort(np.asarray(fermion.dispersion(0.6, grid)))
        assert np.abs(np.sort(energies) - expected).max() <= 1e-10

    @pytest.mark.parametrize("k", [20.0, 300.0])
    def test_strong_uniform_couplings_reproduce_dispersion(self, k):
        # D_j = c_j^2 c_{j+1}^2 - s_j^2 s_{j+1}^2 cancels to roundoff here
        # unless it is evaluated as c_j^2 + s_{j+1}^2
        _, energies = fermion.random_single_particle_matrix([1.0] * 8, k)
        grid = fermion.momentum_grid(8, "odd")
        expected = np.sort(np.asarray(fermion.dispersion(k, grid)))
        assert np.abs(np.sort(energies) - expected).max() <= 1e-10

    def test_spectrum_is_plus_minus_symmetric(self):
        rng = np.random.default_rng(19)
        couplings = rng.choice([-1.0, 1.0], 6) * rng.uniform(0.5, 1.5, 6)
        block, _ = fermion.random_single_particle_matrix(couplings, 0.5)
        evals = np.sort(np.linalg.eigvalsh(block))
        assert np.abs(evals + evals[::-1]).max() <= 1e-10

    def test_block_matrix_is_symmetric(self):
        block, _ = fermion.random_single_particle_matrix([1.0, -1.0, 1.0, -1.0], 0.4)
        assert np.abs(block - block.T).max() == 0.0

    def test_odd_parity_sector_built_from_single_excitations(self):
        # doubled single-particle energies generate the entire odd-fermion
        # sector of the dense random-chain Hamiltonian
        rng = np.random.default_rng(5)
        couplings = rng.choice([-1.0, 1.0], 6)
        ham = quantum.chain_random_heatbath_hamiltonian(couplings, 0.5)
        even_evals, odd_evals = parity_sector_spectra(ham.matrix, 6)
        assert abs(even_evals[0]) <= 1e-9  # ground state sits in the even sector

        _, eps = fermion.random_single_particle_matrix(couplings, 0.5)
        masks = np.arange(1 << 6)
        bits = (masks[:, None] >> np.arange(6)) & 1
        odd = (bits.sum(axis=1) & 1) == 1
        subset_sums = np.sort((bits @ (2.0 * eps))[odd])
        assert np.abs(np.sort(odd_evals) - subset_sums).max() <= 1e-8

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            fermion.random_single_particle_matrix([1.0] * 5, 0.5)
        with pytest.raises(ValueError):
            fermion.random_single_particle_matrix([1.0] * 4, -0.5)
        with pytest.raises(ValueError):
            fermion.random_single_particle_matrix([400.0] * 4, 1.0)
