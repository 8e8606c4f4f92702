import json
import math

import numpy as np
import pytest

from isingbridge import anneal, cli, fermion, markov, quantum, reverse, spectral, spins


def random_model(n, n_terms, rng, max_order=4):
    """Random multibody model with dyadic coefficients (exact float sums)."""
    subsets = set()
    while len(subsets) < n_terms:
        order = rng.integers(1, max_order + 1)
        subsets.add(tuple(sorted(rng.choice(n, size=order, replace=False).tolist())))
    coeffs = rng.integers(-8, 9, size=len(subsets)) / 4.0
    return spins.IsingModel(n, list(zip(sorted(subsets), coeffs)))


class TestChainModel:
    def test_all_up_uniform(self):
        model = spins.chain_model(3, [1, 1, 1])
        assert spins.energy(model, 0) == -3.0

    def test_alternating_violates_all_bonds(self):
        model = spins.chain_model(4, [1, 1, 1, 1])
        config = spins.encode([1, -1, 1, -1])
        assert spins.energy(model, config) == 4.0

    def test_mixed_couplings_cancel(self):
        model = spins.chain_model(4, [1, -1, 1, -1])
        assert spins.energy(model, 0) == 0.0

    def test_rejects_short_chain(self):
        with pytest.raises(ValueError, match="n >= 3"):
            spins.chain_model(2, [1, 1])

    def test_rejects_coupling_count_mismatch(self):
        with pytest.raises(ValueError):
            spins.chain_model(4, [1, 1, 1])


class TestEnergy:
    def test_empty_model(self):
        model = spins.IsingModel(3, [])
        assert spins.energy(model, 5) == 0.0

    def test_single_bond(self):
        model = spins.IsingModel(2, [((0, 1), -1.0)])
        assert spins.energy(model, 0) == -1.0

    def test_uniform_chain_all_up(self):
        model = spins.chain_model(5, [1.0] * 5)
        assert spins.energy(model, 0) == -5.0

    def test_agrees_with_table(self):
        rng = np.random.default_rng(0)
        model = random_model(6, 8, rng)
        table = spins.energy_table(model)
        for config in range(model.n_states):
            assert spins.energy(model, config) == table[config]


class TestFlipDelta:
    def test_all_up_chain(self):
        model = spins.chain_model(5, [1.0] * 5)
        for site in range(5):
            assert spins.flip_delta(model, 0, site) == 4.0

    def test_opposing_neighbors(self):
        model = spins.chain_model(4, [1.0] * 4)
        config = spins.encode([1, 1, -1, -1])
        assert spins.flip_delta(model, config, 0) == 0.0

    def test_matches_two_evaluation_oracle_exactly(self):
        rng = np.random.default_rng(42)
        model = random_model(6, 10, rng)
        for _ in range(200):
            config = int(rng.integers(model.n_states))
            site = int(rng.integers(6))
            direct = spins.energy(model, spins.flip(config, site)) \
                - spins.energy(model, config)
            assert spins.flip_delta(model, config, site) == direct

    def test_rejects_bad_site(self):
        model = spins.chain_model(3, [1.0] * 3)
        with pytest.raises(ValueError, match="site"):
            spins.flip_delta(model, 0, 3)


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
        weights = [math.exp(-beta * spins.energy(model, c)) for c in range(16)]
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


class TestConfigEncoding:
    def test_roundtrip_all_indices(self):
        for index in range(32):
            assert spins.encode(spins.spin_values(index, 5)) == index

    def test_flip_toggles_single_bit(self):
        for site in range(4):
            assert spins.flip(0b1010, site) == 0b1010 ^ (1 << site)

    def test_bit_zero_means_up(self):
        assert spins.spin_value(0, 0) == 1
        assert spins.spin_value(1, 0) == -1

    def test_encode_rejects_bad_values(self):
        with pytest.raises(ValueError):
            spins.encode([1, 0, -1])


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
    ("Walsh expansion", lambda n: reverse.extract_couplings(np.zeros(1 << n))),
    ("fermion enumeration",
     lambda n: fermion.many_body_spectrum(fermion.FermionChainParams(n + 1, 0.5))),
    ("dense matrix", lambda n: markov.build_generator(_chain(n), 0.5, markov.HEAT_BATH)),
    ("dense matrix", lambda n: quantum.assemble_direct(_chain(n), 0.5, markov.HEAT_BATH)),
    ("dense matrix", lambda n: quantum.chain_heatbath_hamiltonian(n + 1, 0.5)),
    ("dense matrix", lambda n: quantum.chain_metropolis_hamiltonian(n + 1, 0.5)),
    ("dense matrix", lambda n: quantum.chain_random_heatbath_hamiltonian([1.0] * (n + 1), 0.5)),
    ("dense matrix", lambda n: quantum.transverse_field_chain(n, 0.7)),
    ("dense matrix", lambda n: spectral.eig_sym(np.broadcast_to(0.0, ((1 << n - 1) + 1,) * 2))),
    ("anneal engine", lambda n: anneal.evolve_master_timedep(
        _chain(n), markov.HEAT_BATH, anneal.LinearBeta(0.0, 1.0, 1.0),
        np.full(1 << n, 1.0 / (1 << n)), 0.01)),
    ("wide state export",
     lambda n: cli.export_states("unused.csv", np.zeros(1), np.zeros((1, 1 << n)), "wide", n)),
]


class TestSpinCaps:
    @pytest.mark.parametrize("use, entry", CAPPED,
                             ids=[f"{use}-{i}" for i, (use, _) in enumerate(CAPPED)])
    def test_entry_point_rejects_one_spin_over_its_cap(self, use, entry):
        cap = spins._SPIN_CAPS[use]
        with pytest.raises(ValueError, match=f"exceed the {use} cap n_spins <= {cap}"):
            entry(cap + 1)

    @pytest.mark.parametrize("command, use", [
        ("bridge-check", "command-line"), ("reverse", "command-line"),
        ("anneal", "command-line"), ("fermion-check", "command-line"), ("mc", "model"),
    ])
    def test_cli_rejects_one_spin_over_its_cap(self, command, use, tmp_path, capsys):
        cap = spins._SPIN_CAPS[use]
        n = cap + 2 if command == "fermion-check" else cap + 1  # fermion-check: even N only
        assert cli.main([command, "--chain", str(n), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {n} spins exceed the {use} cap n_spins <= {cap}"]

    def test_every_cap_is_probed(self):
        assert {use for use, _ in CAPPED} == set(spins._SPIN_CAPS) - {"command-line"}
