import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from isingbridge import anneal, cli, fermion, markov, quantum, reverse, spectral, spins
import oracles


def random_model(n, n_terms, rng, max_order=4):
    """Random multibody model with dyadic coefficients (exact float sums)."""
    subsets = set()
    while len(subsets) < n_terms:
        order = rng.integers(1, max_order + 1)
        subsets.add(tuple(sorted(rng.choice(n, size=order, replace=False).tolist())))
    coeffs = rng.integers(-8, 9, size=len(subsets)) / 4.0
    return spins.IsingModel(n, list(zip(sorted(subsets), coeffs)))


def planted_model(n, rng):
    """Fields, ring bonds and n/2 three-body terms, all satisfied by one hidden
    configuration; returns the model and that configuration's index."""
    hidden = rng.choice([-1, 1], size=n)
    subsets = {(i,) for i in range(n)} | {tuple(sorted((i, (i + 1) % n))) for i in range(n)}
    while len(subsets) < 2 * n + n // 2:
        subsets.add(tuple(sorted(rng.choice(n, size=3, replace=False).tolist())))
    terms = [(s, -rng.uniform(0.5, 1.5) * int(np.prod(hidden[list(s)])))
             for s in sorted(subsets)]
    return spins.IsingModel(n, terms), oracles.encode(hidden)


class TestChainModel:
    def test_all_up_uniform(self):
        model = spins.chain_model(3, [1, 1, 1])
        assert spins.energy_table(model)[0] == -3.0

    def test_alternating_violates_all_bonds(self):
        model = spins.chain_model(4, [1, 1, 1, 1])
        config = oracles.encode([1, -1, 1, -1])
        assert spins.energy_table(model)[config] == 4.0

    def test_mixed_couplings_cancel(self):
        model = spins.chain_model(4, [1, -1, 1, -1])
        assert spins.energy_table(model)[0] == 0.0

    def test_rejects_short_chain(self):
        with pytest.raises(ValueError, match="n >= 3"):
            spins.chain_model(2, [1, 1])

    def test_rejects_coupling_count_mismatch(self):
        with pytest.raises(ValueError):
            spins.chain_model(4, [1, 1, 1])

    def test_checks_the_model_cap_before_reading_couplings(self):
        couplings = iter([1.0] * 21)
        with pytest.raises(ValueError, match="21 spins exceed the model cap"):
            spins.chain_model(21, couplings)
        assert len(list(couplings)) == 21


class TestEnergy:
    def test_empty_model(self):
        model = spins.IsingModel(3, [])
        assert spins.energy_table(model)[5] == 0.0

    def test_single_bond(self):
        model = spins.IsingModel(2, [((0, 1), -1.0)])
        assert spins.energy_table(model)[0] == -1.0

    def test_uniform_chain_all_up(self):
        model = spins.chain_model(5, [1.0] * 5)
        assert spins.energy_table(model)[0] == -5.0

    def test_agrees_with_table(self):
        rng = np.random.default_rng(0)
        model = random_model(6, 8, rng)
        table = spins.energy_table(model)
        for config in range(model.n_states):
            assert oracles.energy(model, config) == table[config]

    def test_planted_model_at_the_cap_equals_the_parity_oracle(self):
        model, hidden = planted_model(spins.MAX_SPINS, np.random.default_rng(3))
        table = spins.energy_table(model)
        assert table.tobytes() == oracles.energy_table(model).tobytes()
        assert abs(table.min() + sum(abs(coeff) for _, coeff in model.terms)) <= 1e-12
        assert table.argmin() == hidden

    @pytest.mark.parametrize("model", [
        spins.IsingModel(1, [((0,), -0.75)]),
        spins.IsingModel(3, [((), 2.5), ((1,), 1.0), ((0, 2), -0.5)]),
        spins.IsingModel(3, [((0,), -0.0), ((0, 2), 0.0), ((), -0.0)]),
        spins.IsingModel(6, [((5,), 1.5), ((0,), -2.0), ((0, 5), 0.25), ((0, 1, 2, 3, 4, 5), 1.0)]),
    ], ids=["one-spin", "constant-term", "negative-zero", "bits-0-and-N-1"])
    def test_edge_cases_equal_the_oracles_bitwise(self, model):
        table = spins.energy_table(model)
        scalar = np.array([oracles.energy(model, c) for c in range(model.n_states)])
        assert table.tobytes() == oracles.energy_table(model).tobytes() == scalar.tobytes()

    def test_peak_allocation_stays_near_the_table(self):
        """At the cap the build holds the 8 MiB table and 2^k-entry term factors only."""
        model, _ = planted_model(spins.MAX_SPINS, np.random.default_rng(4))
        tracemalloc.start()
        try:
            spins.energy_table(model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 8 * model.n_states


def flip_deltas(model):
    """deltas[j, c] = H0(c with spin j flipped) - H0(c), as the flip system holds them."""
    return markov._FlipSystem(model, markov.HEAT_BATH).deltas


class TestFlipDelta:
    def test_all_up_chain(self):
        model = spins.chain_model(5, [1.0] * 5)
        for site in range(5):
            assert flip_deltas(model)[site, 0] == 4.0

    def test_opposing_neighbors(self):
        model = spins.chain_model(4, [1.0] * 4)
        config = oracles.encode([1, 1, -1, -1])
        assert flip_deltas(model)[0, config] == 0.0

    def test_matches_two_evaluation_oracle_exactly(self):
        rng = np.random.default_rng(42)
        model = random_model(6, 10, rng)
        deltas = flip_deltas(model)
        for _ in range(200):
            config = int(rng.integers(model.n_states))
            site = int(rng.integers(6))
            direct = oracles.energy(model, config ^ (1 << site)) - oracles.energy(model, config)
            assert deltas[site, config] == direct


class TestBoltzmann:
    def test_infinite_temperature_is_uniform(self):
        model = spins.chain_model(4, [1.0] * 4)
        assert np.abs(spins.boltzmann(model, 0.0) - 1 / 16).max() == 0.0

    def test_low_temperature_concentrates_on_ground_pair(self):
        model = spins.chain_model(3, [1.0] * 3)
        p = spins.boltzmann(model, 50.0)
        assert p[0] + p[7] >= 1.0 - 1e-10

    def test_matches_partition_sum_oracle(self):
        model = spins.chain_model(4, [1.0] * 4)
        beta = 0.5
        weights = [math.exp(-beta * oracles.energy(model, c)) for c in range(16)]
        z = sum(weights)
        p = spins.boltzmann(model, beta)
        for c in range(16):
            assert abs(p[c] - weights[c] / z) <= 1e-14

    def test_no_overflow_at_large_beta(self):
        model = spins.chain_model(4, [1.0] * 4)
        p = spins.boltzmann(model, 700.0 / 4.0)
        assert np.isfinite(p).all() and abs(p.sum() - 1.0) < 1e-12

    def test_rejects_negative_or_nonfinite_beta(self):
        model = spins.chain_model(3, [1.0] * 3)
        with pytest.raises(ValueError):
            spins.boltzmann(model, -0.1)
        with pytest.raises(ValueError):
            spins.boltzmann(model, math.inf)

    def test_invariant_under_constant_shift(self):
        rng = np.random.default_rng(1)
        model = random_model(5, 6, rng)
        shifted = spins.IsingModel(5, list(model.terms) + [((), 3.25)])
        p = spins.boltzmann(model, 0.8)
        q = spins.boltzmann(shifted, 0.8)
        assert np.abs(p - q).max() <= 1e-12

    def test_even_model_complement_symmetry(self):
        model = spins.chain_model(5, [1.0, -0.5, 0.25, 1.0, -1.0])
        p = spins.boltzmann(model, 0.9)
        mask = model.n_states - 1
        flipped = p[np.arange(model.n_states) ^ mask]
        assert np.abs(p - flipped).max() <= 1e-14


class TestProbabilityVector:
    @pytest.mark.parametrize("p, match", [
        ([math.nan, 1.0], "NaN probability entry nan"),
        ([-0.5, 1.5], "negative or NaN probability entry -0.5"),
        ([math.inf, 1.0], "probabilities sum to inf"),
        ([0.5, 0.4], "probabilities sum to 0.9"),
    ], ids=["nan", "negative", "inf", "sum"])
    def test_rejects_with_one_line(self, p, match):
        with pytest.raises(ValueError, match=match):
            spins.check_probability_vector(np.array(p))


class TestTilt:
    def test_stack_of_s_is_one_row_per_s(self):
        """Each row equals the 1-D tilt of its s bit for bit, scaled by its own maximum."""
        energies = spins.energy_table(spins.frustrated_instance(5, seed=2))
        s = np.array([-3.0, -0.5, 0.0, 0.7, 400.0])
        rows = spins._tilt(energies, s)
        assert rows.shape == (s.size, energies.size)
        for row, value in zip(rows, s):
            assert row.tobytes() == spins._tilt(energies, value).tobytes()
            assert row.max() == 1.0


class TestConfigEncoding:
    def test_roundtrip_all_indices(self):
        for index in range(32):
            assert oracles.encode(oracles.spin_values(index, 5)) == index

    def test_flip_toggles_single_bit(self):
        flips = markov._flip_table(4)
        for site in range(4):
            assert flips[site, 0b1010] == 0b1010 ^ (1 << site)

    def test_bit_zero_means_up(self):
        # H0 = -sigma_0: index 0 is sigma_0 = +1, index 1 is sigma_0 = -1
        assert spins.energy_table(spins.single_spin_model(1.0)).tolist() == [-1.0, 1.0]

    def test_encode_rejects_bad_values(self):
        with pytest.raises(ValueError):
            oracles.encode([1, 0, -1])


class TestModelValidation:
    def test_site_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            spins.IsingModel(3, [((0, 3), 1.0)])

    def test_duplicate_site_in_term(self):
        with pytest.raises(ValueError, match="repeats"):
            spins.IsingModel(3, [((1, 1), 1.0)])

    def test_duplicate_subset(self):
        with pytest.raises(ValueError, match="duplicate"):
            spins.IsingModel(3, [((0, 1), 1.0), ((1, 0), 2.0)])

    def test_nonfinite_coefficient(self):
        with pytest.raises(ValueError, match="non-finite"):
            spins.IsingModel(3, [((0, 1), math.nan)])

    @pytest.mark.parametrize("sites, n_spins", [((0, 1.5), 3), ((0, 1.0), 3), ((0, "1"), 3),
                                                ((0, 1), 4.5), ((0, 1), 3.0)])
    def test_non_integer_site_or_spin_count_is_rejected(self, sites, n_spins):
        """A site of 1.5 or a spin count of 4.5 is an error, not truncated to 1 or 4."""
        with pytest.raises(ValueError, match="must be an integer"):
            spins.IsingModel(n_spins, [(sites, 1.0)])

    def test_model_from_dict_rejects_a_fractional_spin_count(self):
        with pytest.raises(ValueError, match="n_spins must be an integer, got 4.5"):
            spins.model_from_dict({"n_spins": 4.5, "terms": [{"sites": [0], "coeff": 1.0}]})

    def test_numpy_integers_are_integers(self):
        model = spins.IsingModel(np.int64(3), [((np.int32(0), np.uint8(2)), 1.0)])
        assert model == spins.IsingModel(3, [((0, 2), 1.0)])
        assert type(model.n_spins) is int and type(model.terms[0][0][1]) is int

    def test_spin_count_bounds(self):
        with pytest.raises(ValueError):
            spins.IsingModel(0, [])
        with pytest.raises(ValueError):
            spins.IsingModel(21, [])

    def test_models_are_immutable(self):
        model = spins.chain_model(3, [1.0] * 3)
        with pytest.raises(Exception):
            model.n_spins = 4


class TestSerialization:
    def test_json_roundtrip(self, tmp_path):
        model = spins.IsingModel(4, [((0, 2), -1.5), ((1,), 0.25)], name="demo")
        path = tmp_path / "model.json"
        spins.save_model(model, path)
        loaded = spins.load_model(path)
        assert loaded == model
        data = json.loads(path.read_text())
        assert set(data) == {"n_spins", "terms", "name"}


class TestFrustratedInstance:
    def test_deterministic_and_frustrated(self):
        a = spins.frustrated_instance(4, seed=0)
        b = spins.frustrated_instance(4, seed=0)
        assert a == b
        table = spins.energy_table(a)
        n_bonds = len(a.terms)
        assert table.min() > -n_bonds  # not all bonds satisfiable


def _chain(n):
    return spins.chain_model(n, [1.0] * n)


# (cap name, entry point given a spin count). The fermion and explicit chain
# builders take even N only, so they are probed at cap + 2.
CAPPED = [
    ("model", lambda n: spins.IsingModel(n, [])),
    ("N x 2^N array", lambda n: reverse.extract_couplings(np.zeros(1 << n))),
    ("N x 2^N array",
     lambda n: fermion.many_body_spectrum(fermion.FermionChainParams(n + 1, 0.5))),
    ("N x 2^N array", lambda n: markov.build_generator(_chain(n), 0.5, markov.HEAT_BATH)),
    ("N x 2^N array", lambda n: quantum.assemble_direct(_chain(n), 0.5, markov.HEAT_BATH)),
    ("N x 2^N array", lambda n: quantum.chain_heatbath_hamiltonian(n + 1, 0.5)),
    ("N x 2^N array", lambda n: quantum.chain_metropolis_hamiltonian(n + 1, 0.5)),
    ("N x 2^N array", lambda n: quantum.chain_random_heatbath_hamiltonian([1.0] * (n + 1), 0.5)),
    ("N x 2^N array", lambda n: quantum.transverse_field_chain(n, 0.7)),
    ("dense matrix", lambda n: spectral.eig_sym(np.broadcast_to(0.0, ((1 << n - 1) + 1,) * 2))),
    ("N x 2^N array", lambda n: anneal.evolve_master_timedep(
        _chain(n), markov.HEAT_BATH, anneal.LinearBeta(0.0, 1.0, 1.0),
        np.full(1 << n, 1.0 / (1 << n)), 0.01)),
    ("single-particle block",
     lambda n: fermion.random_single_particle_spectrum([1.0] * (n + 1), 0.5)),
    # flip-form objects beyond the dense cap exist; only writing them densely fails
    ("dense matrix", lambda n: markov.build_generator(_chain(n), 0.5, markov.HEAT_BATH).matrix),
    ("dense matrix", lambda n: spectral.spectrum_of_generator(
        markov.build_generator(_chain(n), 0.5, markov.HEAT_BATH))),
]


class TestSpinCaps:
    @pytest.mark.parametrize("use, entry", CAPPED,
                             ids=[f"{use}-{i}" for i, (use, _) in enumerate(CAPPED)])
    def test_entry_point_rejects_one_spin_over_its_cap(self, use, entry):
        cap = spins._SPIN_CAPS[use]
        with pytest.raises(ValueError, match=re.escape(f"exceed the {use} cap n_spins <= {cap}")):
            entry(cap + 1)

    # (argv before N, cap that stops it); fermion-check takes even N only, so cap + 2
    @pytest.mark.parametrize("argv, use", [
        (["bridge-check", "--chain"], "dense matrix"),
        (["reverse", "--chain"], "dense matrix"),
        (["reverse", "--tfield"], "dense matrix"),
        (["fermion-check", "--chain"], "dense matrix"),
        (["fermion-check", "--random-couplings", "--chain"], "single-particle block"),
        (["anneal", "--chain"], "N x 2^N array"),
        (["mc", "--chain"], "model"),
    ], ids=["bridge-check", "reverse-chain", "reverse-tfield", "fermion-check",
            "fermion-check-random", "anneal", "mc"])
    def test_cli_rejects_one_spin_over_its_cap(self, argv, use, tmp_path, capsys):
        cap = spins._SPIN_CAPS[use]
        n = cap + 2 if argv[0] == "fermion-check" else cap + 1
        out = tmp_path / "out"
        assert cli.main([*argv, str(n), "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {n} spins exceed the {use} cap n_spins <= {cap}"]
        assert not list(out.iterdir())

    def test_cli_builds_no_chain_list_before_the_model_cap(self, tmp_path):
        # [1.0] * N alone holds 16 MB at N = 2,000,000
        tracemalloc.start()
        try:
            code = cli.main(["bridge-check", "--chain", "2000000", "--out", str(tmp_path)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2 and peak < 1_000_000

    def test_every_cap_is_probed(self):
        assert {use for use, _ in CAPPED} == set(spins._SPIN_CAPS)
