import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from isingbridge import cli, fermion, markov, quantum, reverse, spectral, spins
from test_reverse import make_condition_nan, unconverged_model


def run_cli(*argv):
    return cli.main(list(argv))


def _reject_constant(token):
    raise ValueError(f"report holds {token}, which is not JSON")


def load_report(tmp_path, name):
    """Parse a report as strict JSON: a NaN or Infinity token fails the test."""
    return json.loads((tmp_path / name).read_text(), parse_constant=_reject_constant)


def assert_usage_error(capsys, *argv, match):
    """Exit code 2 and a single `error:` line on stderr, no traceback."""
    assert run_cli(*argv) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert match in lines[0]


class TestBridgeCheck:
    def test_heatbath_chain_passes(self, tmp_path):
        code = run_cli("bridge-check", "--chain", "6", "--K", "0.5",
                       "--rule", "heatbath", "--out", str(tmp_path))
        assert code == 0
        report = load_report(tmp_path, "bridge_check.json")
        assert all(report["checks"].values())
        assert report["spectrum_deviation"] <= 1e-9
        assert (tmp_path / "spectrum_generator.csv").exists()
        assert (tmp_path / "spectrum_hamiltonian.json").exists()

    def test_metropolis_chain_passes(self, tmp_path):
        assert run_cli("bridge-check", "--chain", "6", "--K", "1.0",
                       "--rule", "metropolis", "--out", str(tmp_path)) == 0

    def test_oversized_model_file_is_usage_error(self, tmp_path):
        model = spins.chain_model(13, [1.0] * 13)
        path = tmp_path / "big.json"
        spins.save_model(model, path)
        code = run_cli("bridge-check", "--model", str(path), "--out", str(tmp_path))
        assert code == 2

    def test_model_and_chain_are_exclusive(self, tmp_path):
        assert run_cli("bridge-check", "--out", str(tmp_path)) == 2

    def test_dump_hamiltonian(self, tmp_path):
        run_cli("bridge-check", "--chain", "4", "--K", "0.3",
                "--dump-hamiltonian", "--out", str(tmp_path))
        text = (tmp_path / "hamiltonian.txt").read_text()
        header, first_row = text.splitlines()[:2]
        assert header.startswith("# n_spins=4 provenance=mapped-from-W")
        assert len(first_row.split()) == 16

    def test_nonfinite_K_is_usage_error(self, tmp_path, capsys):
        for command in ("bridge-check", "fermion-check"):
            assert_usage_error(capsys, command, "--chain", "4", "--K", "nan",
                               "--out", str(tmp_path), match="must be finite and nonnegative")

    def test_missing_model_file_is_usage_error(self, tmp_path, capsys):
        assert_usage_error(capsys, "bridge-check", "--model", str(tmp_path / "none.json"),
                           "--out", str(tmp_path), match="cannot read --model file")

    def test_model_without_terms_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"n_spins": 3}))
        assert_usage_error(capsys, "bridge-check", "--model", str(path),
                           "--out", str(tmp_path), match="'terms'")

    @pytest.mark.parametrize("model, match", [
        ({"n_spins": 2, "terms": [{"sites": [0, 1.5], "coeff": -1.0}]}, "site"),
        ({"n_spins": 4.5, "terms": [{"sites": [0, 1], "coeff": -1.0}]}, "n_spins")])
    def test_non_integer_site_or_spin_count_is_usage_error(self, model, match, tmp_path,
                                                           capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        assert_usage_error(capsys, "bridge-check", "--model", str(path),
                           "--out", str(tmp_path), match=f"{match} must be an integer")

    @pytest.mark.parametrize("rule", ["heatbath", "metropolis", "uniform:0.1"])
    @pytest.mark.parametrize("k", [5.0, 10.0])
    def test_ground_check_does_not_depend_on_the_gap(self, rule, k, tmp_path):
        # the gap 1 - tanh 2K is below 1e-8 here, so the eigh ground vector is
        # ill-conditioned; the residuals of H sqrt(P0) and of the eigh pair are not
        code = run_cli("bridge-check", "--chain", "6", "--K", str(k), "--rule", rule,
                       "--out", str(tmp_path))
        report = load_report(tmp_path, "bridge_check.json")
        assert report["checks"]["ground-state-boltzmann"]
        assert report["ground_state_residual"] <= 1e-15
        assert report["ground_eigenpair_residual"] <= 1e-15
        assert report["gap"] < 1e-6 and "ground_boltzmann_deviation" in report
        assert code == 0

    @pytest.mark.parametrize("field, check", [("ground_vector", "ground-state-boltzmann"),
                                              ("eigenvalues", "spectrum-shared")])
    def test_perturbed_eigh_output_fails_its_check(self, field, check, tmp_path, monkeypatch):
        original = spectral.spectrum_report

        def perturbed(matrix, keep_ground_vector=True):
            report = original(matrix, keep_ground_vector)
            values = getattr(report, field).copy()
            values[0] += 1e-6
            return dataclasses.replace(report, **{field: values})

        monkeypatch.setattr(spectral, "spectrum_report", perturbed)
        code = run_cli("bridge-check", "--chain", "6", "--K", "0.5", "--out", str(tmp_path))
        report = load_report(tmp_path, "bridge_check.json")
        failed = [name for name, ok in report["checks"].items() if not ok]
        assert code == 1 and failed == [check]

    def test_wrong_direct_weights_fail_every_check_against_direct_h(self, tmp_path,
                                                                    monkeypatch):
        # W is unchanged, so the mapped H is too; only the hopping of the directly
        # assembled H is off, and W's spectrum and sqrt(P0) are checked against it
        original = markov._FlipSystem.hamiltonian

        def scaled_hopping(self, *args):
            op = original(self, *args)
            return markov._FlipOperator(op.diag, op.off * (1 + 1e-6), op.flips)

        monkeypatch.setattr(markov._FlipSystem, "hamiltonian", scaled_hopping)
        code = run_cli("bridge-check", "--chain", "6", "--K", "0.5", "--out", str(tmp_path))
        report = load_report(tmp_path, "bridge_check.json")
        failed = [name for name, ok in report["checks"].items() if not ok]
        assert code == 1
        assert sorted(failed) == ["construction-agreement", "ground-state-boltzmann",
                                  "spectrum-shared"]

    @pytest.mark.parametrize("rule", ["uniform:0.1", "uniform:0.3"])
    def test_underflowed_boltzmann_weight_passes_detailed_balance(self, rule, tmp_path, capsys):
        # P0 of the excited states underflows at K = 200; the map is exact
        code = run_cli("bridge-check", "--chain", "4", "--K", "200", "--rule", rule,
                       "--out", str(tmp_path))
        report = load_report(tmp_path, "bridge_check.json")
        assert report["checks"]["detailed-balance"]
        assert report["detailed_balance_residual"] <= 1e-15
        assert code == 0 and capsys.readouterr().err == ""

    def test_unknown_rule_is_usage_error(self, tmp_path):
        assert run_cli("bridge-check", "--chain", "4", "--rule", "glauber",
                       "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize("command", ["bridge-check", "reverse", "anneal"])
    @pytest.mark.parametrize("rule, match", [("uniform:200", "underflows to 0"),
                                             ("uniform:inf", "finite and positive")])
    def test_vanishing_uniform_rate_is_usage_error(self, command, rule, match, tmp_path,
                                                    capsys):
        assert_usage_error(capsys, command, "--chain", "4", "--rule", rule,
                           "--out", str(tmp_path), match=match)

    def test_subnormal_uniform_rate_passes(self, tmp_path):
        # w = exp(-720) is subnormal, the smallest w that still moves the chain
        assert run_cli("bridge-check", "--chain", "4", "--rule", "uniform:180",
                       "--out", str(tmp_path)) == 0

    def test_report_shows_the_scale_of_its_gates(self, tmp_path):
        # uniform rates grow like exp(K |dE| / 2): at K = 20 a gap and a spectrum
        # deviation far above 1 are eigensolver roundoff of a max|H| near 6e17
        code = run_cli("bridge-check", "--chain", "4", "--rule", "uniform:0.1", "--K", "20",
                       "--out", str(tmp_path))
        report = load_report(tmp_path, "bridge_check.json")
        h_max = report["hamiltonian_max_abs"]
        tolerances = report["tolerances"]
        assert code == 0 and h_max > 1e17
        assert tolerances == {"spectrum-shared": 1e-9 * h_max, "construction-agreement": 1e-12,
                              "detailed-balance": 1e-10, "ground-state-boltzmann": 1e-9}
        assert report["spectrum_deviation"] <= tolerances["spectrum-shared"]


class TestFermionCheck:
    def test_uniform_chain(self, tmp_path):
        code = run_cli("fermion-check", "--chain", "8", "--K", "0.5",
                       "--out", str(tmp_path))
        assert code == 0
        report = load_report(tmp_path, "fermion_check.json")
        assert abs(report["gap_formula"] - (1 - np.tanh(1.0))) <= 1e-12
        assert report["gap_deviation"] <= 1e-9
        lines = (tmp_path / "dispersion.csv").read_text().splitlines()
        assert lines[0] == "sector,p,epsilon"
        assert len(lines) == 17  # header + both 8-momentum grids

    def test_infinite_temperature_gap_is_one(self, tmp_path):
        run_cli("fermion-check", "--chain", "8", "--K", "0", "--out", str(tmp_path))
        report = load_report(tmp_path, "fermion_check.json")
        assert report["gap_measured"] == 1.0

    @pytest.mark.parametrize("seed, product, sector", [(3, 1.0, "odd"), (0, -1.0, "even")])
    def test_random_couplings_match_the_gauged_dispersion(self, seed, product, sector,
                                                          tmp_path):
        # +-1 couplings gauge to the uniform chain, periodic or antiperiodic by their product
        code = run_cli("fermion-check", "--chain", "6", "--K", "0.5",
                       "--random-couplings", "--seed", str(seed), "--out", str(tmp_path))
        report = load_report(tmp_path, "fermion_check.json")
        assert code == 0 and np.prod(report["couplings"]) == product
        assert report["checks"] == {"gauge-equivalent-dispersion": True}
        assert report["sector"] == sector and report["gauge_deviation"] <= 1e-14
        assert (tmp_path / "single_particle.csv").exists()

    def test_perturbed_random_hopping_fails_the_gauge_check(self, tmp_path, monkeypatch,
                                                            capsys):
        original = fermion._site_dependent_constants

        def scaled_hop(couplings, beta):
            field, hop, hop2 = original(couplings, beta)
            return field, hop * (1 + 1e-9), hop2

        monkeypatch.setattr(fermion, "_site_dependent_constants", scaled_hop)
        code = run_cli("fermion-check", "--chain", "6", "--K", "0.5",
                       "--random-couplings", "--seed", "3", "--out", str(tmp_path))
        report = load_report(tmp_path, "fermion_check.json")
        assert code == 1 and report["checks"] == {"gauge-equivalent-dispersion": False}
        assert capsys.readouterr().err == "FAIL gauge-equivalent-dispersion\n"

    def test_odd_chain_is_usage_error(self, tmp_path):
        assert run_cli("fermion-check", "--chain", "7", "--out", str(tmp_path)) == 2

    def test_missing_chain_is_usage_error(self, tmp_path, capsys):
        assert_usage_error(capsys, "fermion-check", "--out", str(tmp_path),
                           match="fermion-check needs --chain N")

    @pytest.mark.parametrize("extra", [[], ["--random-couplings"]])
    def test_overflowing_K_is_usage_error(self, extra, tmp_path, capsys):
        assert_usage_error(capsys, "fermion-check", "--chain", "4", "--K", "400", *extra,
                           "--out", str(tmp_path), match="exceeds 350, where cosh overflows")


class TestReverse:
    def test_transverse_chain_locality_profile(self, tmp_path):
        code = run_cli("reverse", "--tfield", "6", "--gamma", "0.7",
                       "--out", str(tmp_path))
        assert code == 0
        profile = load_report(tmp_path, "locality_profile.json")
        assert profile["4"] > 1e-6 and profile["6"] > 1e-6
        rows = (tmp_path / "couplings.csv").read_text().splitlines()
        assert rows[0] == "order,sites,coefficient"
        assert len(rows) == 65

    def test_failed_generator_condition_is_numeric_failure(self, tmp_path, capsys,
                                                          monkeypatch):
        # the residuals are roundoff, near 1e-15, so a 1e-18 bound fails them
        monkeypatch.setattr(reverse, "CONDITION_TOL", 1e-18)
        code = run_cli("reverse", "--chain", "8", "--K", "5", "--out", str(tmp_path))
        lines = capsys.readouterr().err.strip().splitlines()
        assert code == 1 and len(lines) == 1
        assert lines[0].startswith("numeric failure: recovered matrix fails the")

    def test_nan_generator_condition_writes_no_report(self, tmp_path, capsys, monkeypatch):
        make_condition_nan(monkeypatch, "detailed-balance")
        code = run_cli("reverse", "--chain", "6", "--out", str(tmp_path))
        lines = capsys.readouterr().err.strip().splitlines()
        assert code == 1 and len(lines) == 1
        assert lines[0].startswith("numeric failure: recovered matrix fails the detailed-balance")
        assert not (tmp_path / "reverse.json").exists()

    @pytest.mark.parametrize("argv", [
        # the gap of all of H, 1 - tanh 10 = 4.1e-9, is the splitting from the flip-odd
        # level; the sector's is 0.15, and the log changes 25, 12, 2.4e-7 end in 3 solves
        ("--chain", "8", "--K", "5"),
        # the log change between iterates is 25, then 22: it shrinks slowly at first
        ("--chain", "10", "--K", "5"),
        # the shift 7.9e-8 exceeds the splitting 4.9e-9 of all of H, but not the sector
        # gap 0.24 (r = 3.3e-7)
        ("--chain", "8", "--K", "5", "--rule", "uniform:0.1"),
        # as above at 10 spins (r = 7.2e-7): the changes 25, 22, 5.2e-3, 7.1e-14
        ("--chain", "10", "--K", "5", "--rule", "uniform:0.1"),
        # the splitting of all of H, 2.5e-14, is under the degeneracy guard, but the
        # guard reads the sector gap 0.27
        ("--chain", "6", "--K", "8"),
    ])
    def test_strong_coupling_ground_vector_converges(self, argv, tmp_path):
        assert run_cli("reverse", *argv, "--out", str(tmp_path)) == 0

    def test_transverse_chain_stops_on_the_tail_rule(self, tmp_path, monkeypatch):
        # r = 3.5e-12 from the sector gap 2.9: the second change, 5.9e-8, leaves a tail
        # of 2e-19 and stops it
        solves = []
        original = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append(1) or original(a, b))
        assert run_cli("reverse", "--tfield", "10", "--gamma", "0.3",
                       "--out", str(tmp_path)) == 0
        assert 1 <= len(solves) <= 3

    def test_unconverged_ground_vector_is_numeric_failure(self, tmp_path, capsys):
        # the shift 1.4e-5 is half the gap, so each solve cuts the change by 3 from
        # 18: after 16 the energy table is off by 6.5e-6 while every condition passes
        path = tmp_path / "model.json"
        spins.save_model(unconverged_model(), path)
        code = run_cli("reverse", "--model", str(path), "--K", "1.947",
                       "--rule", "uniform:0.5", "--out", str(tmp_path))
        lines = capsys.readouterr().err.strip().splitlines()
        assert code == 1 and len(lines) == 1
        assert lines[0].startswith("numeric failure: ground vector not converged")

    @pytest.mark.parametrize("chain, k", [("10", "3"), ("4", "4")])
    def test_roundtrip_gate_scales_with_the_rates(self, chain, k, tmp_path):
        # uniform:0.1 rates reach 1.5e2 at K = 3 and 2.0e3 at K = 4, and the
        # roundtrip of W deviates by roundoff relative to them: 1.0-1.6e-10 on chain 4
        code = run_cli("reverse", "--chain", chain, "--K", k, "--rule", "uniform:0.1",
                       "--out", str(tmp_path))
        report = load_report(tmp_path, "reverse.json")
        assert code == 0 and report["generator_max_rate"] > 100
        assert (report["roundtrip_generator_deviation"]
                <= 1e-10 * report["generator_max_rate"])

    def test_strong_coupling_chain_maps_back(self, tmp_path):
        # the ground vector spans e^-20: conservation needs its smallest entries
        # to full relative accuracy, not to eigh's absolute accuracy
        assert run_cli("reverse", "--chain", "8", "--K", "2.5", "--out", str(tmp_path)) == 0

    def test_strong_coupling_roundtrip(self, tmp_path):
        # the ground vector spans e^-25; W is recovered from ratios of its entries
        code = run_cli("reverse", "--chain", "10", "--K", "2.5", "--rule", "heatbath",
                       "--out", str(tmp_path))
        assert code == 0
        report = load_report(tmp_path, "reverse.json")
        assert report["roundtrip_generator_deviation"] <= 1e-10
        assert report["roundtrip_energy_deviation"] <= 1e-10

    def test_transverse_chain_runs_past_ten_spins(self, tmp_path):
        # the map stops only at the dense cap of 12 spins, where H is written
        assert run_cli("reverse", "--tfield", "11", "--out", str(tmp_path)) == 0
        profile = load_report(tmp_path, "reverse.json")["locality_profile"]
        assert sorted(profile, key=int) == [str(k) for k in range(12)]
        assert profile["4"] > 1e-6

    @pytest.mark.parametrize("n", ["2", "3"])
    def test_transverse_chain_needs_four_sites(self, n, tmp_path, capsys):
        # the multibody witness reads couplings of order 4 and up, so N < 4 always failed it
        assert_usage_error(capsys, "reverse", "--tfield", n, "--out", str(tmp_path),
                           match=f"--tfield needs N >= 4, got {n}")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flag", ["--chain", "--model"])
    def test_transverse_chain_excludes_chain_and_model(self, flag, tmp_path, capsys):
        path = tmp_path / "chain4.json"
        spins.save_model(spins.chain_model(4, [1.0] * 4), path)
        value = "4" if flag == "--chain" else str(path)
        assert_usage_error(capsys, "reverse", "--tfield", "4", flag, value,
                           "--out", str(tmp_path),
                           match="--tfield cannot be combined with --chain or --model")

    @pytest.mark.parametrize("path", [("--tfield", "4"), ("--chain", "4")])
    def test_invalid_rule_is_usage_error_on_both_paths(self, path, tmp_path, capsys):
        assert_usage_error(capsys, "reverse", *path, "--rule", "nonsense",
                           "--out", str(tmp_path), match="unknown rate rule 'nonsense'")

    @pytest.mark.parametrize("argv, ignored", [
        (("--tfield", "4", "--K", "3"), {"K", "rule"}),
        (("--chain", "4", "--gamma", "5"), {"gamma"}),
    ])
    def test_config_leaves_out_the_flags_the_path_ignores(self, argv, ignored, tmp_path):
        assert run_cli("reverse", *argv, "--out", str(tmp_path)) == 0
        config = load_report(tmp_path, "reverse.json")["config"]
        assert not ignored & set(config)
        assert config[argv[0][2:]] == 4

    def test_roundtrip_mode(self, tmp_path):
        code = run_cli("reverse", "--chain", "4", "--K", "1.0",
                       "--rule", "heatbath", "--out", str(tmp_path))
        assert code == 0
        report = load_report(tmp_path, "reverse.json")
        assert report["roundtrip_generator_deviation"] <= 1e-10
        assert max(report["condition_residuals"].values()) <= 1e-9


class TestDenseWrites:
    """A command writes a dense matrix only to dump it. Every spectrum and ground
    vector comes from the blocks of the operator's symmetry group, and the reverse
    map's LU runs on the first of them."""

    @staticmethod
    def count_dense_writes(argv, tmp_path, monkeypatch):
        calls = []
        original = markov._FlipOperator.dense
        monkeypatch.setattr(markov._FlipOperator, "dense",
                            lambda self: calls.append(1) or original(self))
        assert run_cli(*argv, "--out", str(tmp_path)) == 0
        return len(calls)

    @pytest.mark.parametrize("argv, expected", [
        (("bridge-check", "--chain", "6"), 0),
        (("bridge-check", "--chain", "6", "--dump-hamiltonian"), 1),
        (("reverse", "--chain", "6"), 0),
        (("reverse", "--tfield", "6"), 0),
        (("fermion-check", "--chain", "6"), 0),
        (("anneal", "--chain", "6", "--schedule", "linear:0,1,0.1", "--dt", "0.002"), 0),
        (("mc", "--chain", "6", "--sweeps", "10", "--seeds", "2"), 0),
    ])
    def test_dense_writes_per_command(self, argv, expected, tmp_path, monkeypatch):
        assert self.count_dense_writes(argv, tmp_path, monkeypatch) == expected

    @pytest.mark.parametrize("command, expected", [("bridge-check", 0), ("reverse", 0)])
    def test_model_without_shift_symmetry(self, command, expected, tmp_path, monkeypatch):
        # a field on one site: the group is trivial, and each solve reads its one block,
        # all of W's symmetric form or of H, assembled without dense()
        path = tmp_path / "model.json"
        terms = [((j, (j + 1) % 6), -1.0) for j in range(6)] + [((0,), 0.3)]
        spins.save_model(spins.IsingModel(6, terms), path)
        argv = (command, "--model", str(path))
        assert self.count_dense_writes(argv, tmp_path, monkeypatch) == expected

    def test_ground_level_outside_the_trivial_block(self, monkeypatch):
        # the flip-odd ground level of -sum z_j z_{j+1} + sum x_j at N = 5 and its
        # vector come from the flip-odd block
        calls = []
        original = markov._FlipOperator.dense
        monkeypatch.setattr(markov._FlipOperator, "dense",
                            lambda self: calls.append(1) or original(self))
        report = spectral.spectrum_of_hamiltonian(quantum.transverse_field_chain(5, -1.0))
        assert report.ground_vector is not None and len(calls) == 0


def _row_by_row_csv(header, rows):
    """The CSV text of the row-by-row writer that the one-pass write_csv replaced."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


class TestCsvWriters:
    def test_cells_match_the_row_by_row_writer(self, tmp_path):
        rows = [(0, -0.0, "even"), (1, 5e-324, "odd"), (2, 1e308, "0 1"),
                (-3, -1e308, ""), (4, 7, 0.1), (2**70, 1.5e-300, -2.0)]
        cli.write_csv(str(tmp_path / "cells.csv"), ["i", "x", "label"], iter(rows))
        expected = _row_by_row_csv(["i", "x", "label"], rows).encode()
        assert (tmp_path / "cells.csv").read_bytes() == expected

    @pytest.mark.parametrize("row", [(1,), (1, 2.0, "x", 3)])
    def test_row_of_another_length_raises(self, row, tmp_path):
        with pytest.raises(TypeError):
            cli.write_csv(str(tmp_path / "cells.csv"), ["i", "x", "label"], [row])
        assert not (tmp_path / "cells.csv").exists()

    def test_spectrum_matches_the_row_by_row_writer(self, tmp_path):
        eigenvalues = np.sort(np.random.default_rng(3).normal(size=1024) * 1e3)
        eigenvalues[:3] = [-1e308, -0.0, 5e-324]
        cli.write_spectrum(str(tmp_path), "spectrum", eigenvalues, 0.25, {"n_spins": 10})
        expected = _row_by_row_csv(["index", "eigenvalue"],
                                   ((i, float(v)) for i, v in enumerate(eigenvalues)))
        assert (tmp_path / "spectrum.csv").read_bytes() == expected.encode()


class TestAnneal:
    def test_master_imaginary_consistency(self, tmp_path):
        code = run_cli("anneal", "--chain", "4", "--engines", "master,imaginary",
                       "--schedule", "linear:0,2,2", "--dt", "0.002",
                       "--out", str(tmp_path))
        assert code == 0
        report = load_report(tmp_path, "anneal.json")
        assert report["consistency_deviation"] <= 1e-6
        lines = (tmp_path / "trajectory_master.csv").read_text().splitlines()
        assert lines[0] == "t,beta,ground_probability,overlap,log_norm_decrement"

    @pytest.mark.parametrize("schedule", ["linear:0.5,2,10", "linear:1,1,5"])
    def test_engines_start_in_equilibrium_at_beta0(self, schedule, tmp_path):
        assert run_cli("anneal", "--chain", "4", "--schedule", schedule,
                       "--out", str(tmp_path)) == 0
        report = load_report(tmp_path, "anneal.json")
        assert report["consistency_deviation"] <= 1e-6

    def test_long_state_export(self, tmp_path):
        run_cli("anneal", "--chain", "4", "--engines", "master",
                "--schedule", "linear:0,1,1", "--dt", "0.005", "--samples", "5",
                "--dump-states", "--out", str(tmp_path))
        lines = (tmp_path / "states_master.csv").read_text().splitlines()
        assert lines[0] == "time,state_index,probability"

    def test_bad_engine_is_usage_error(self, tmp_path):
        assert run_cli("anneal", "--chain", "4", "--engines", "classical",
                       "--out", str(tmp_path)) == 2

    def test_bad_schedule_is_usage_error(self, tmp_path):
        assert run_cli("anneal", "--chain", "4", "--schedule", "cubic:1,2",
                       "--out", str(tmp_path)) == 2

    def test_nonfinite_dt_is_usage_error(self, tmp_path, capsys):
        assert_usage_error(capsys, "anneal", "--chain", "4", "--dt", "nan",
                           "--out", str(tmp_path), match="dt must be finite")

    @pytest.mark.parametrize("schedule", ["linear:0,1,1e-9", "linear:0,3,0.01"])
    def test_imaginary_step_bound_includes_the_beta_dot_term(self, schedule, tmp_path,
                                                               capsys):
        # at dt = 1e-3 the outflow alone gives a margin of at most 0.008, but
        # h * beta_dot * max|H0| / 2 is 2e6 and 1.2 on the 8-site chain
        assert_usage_error(capsys, "anneal", "--chain", "8", "--schedule", schedule,
                           "--engines", "imaginary", "--out", str(tmp_path),
                           match="use dt <=")

    @pytest.mark.parametrize("command", ["anneal", "mc"])
    @pytest.mark.parametrize("schedule", ["linear:0,1,inf", "geman:1,4,inf", "linear:0,1,nan"])
    def test_nonfinite_horizon_is_usage_error(self, command, schedule, tmp_path, capsys):
        assert_usage_error(capsys, command, "--chain", "4", "--schedule", schedule,
                           "--out", str(tmp_path),
                           match="t_final must be finite and positive")

    @pytest.mark.parametrize("command", ["anneal", "mc"])
    def test_infinite_geman_constant_is_usage_error(self, command, tmp_path, capsys):
        # p = inf would run the whole schedule at beta = 0
        assert_usage_error(capsys, command, "--chain", "4", "--schedule", "geman:inf,4,10",
                           "--out", str(tmp_path), match="p must be finite and positive")

    def test_geman_spin_count_must_match_model(self, tmp_path, capsys):
        for command in ("anneal", "mc"):
            assert_usage_error(capsys, command, "--chain", "6",
                               "--schedule", "geman:1,3,10", "--out", str(tmp_path),
                               match="does not match the model's 6 spins")

    @pytest.mark.parametrize("command", ["anneal", "mc"])
    @pytest.mark.parametrize("schedule, match", [
        ("geman:1e-320,4,10", "schedule beta(10) = inf is not finite"),
        ("linear:0,1e308,1e-10", "schedule beta_dot(0) = inf is not finite"),
    ], ids=["geman-subnormal-p", "linear-overflowing-slope"])
    def test_nonfinite_schedule_value_is_usage_error(self, command, schedule, match,
                                                     tmp_path, capsys):
        sizes = ["--sweeps", "3", "--seeds", "3"] if command == "mc" else []
        assert_usage_error(capsys, command, "--chain", "4", "--schedule", schedule, *sizes,
                           "--out", str(tmp_path), match=match)


class TestMc:
    def test_deterministic_success_fraction(self, tmp_path):
        argv = ("mc", "--chain", "10", "--rule", "heatbath",
                "--schedule", "linear:0,3,1000", "--sweeps", "1000",
                "--seeds", "200", "--seed", "42", "--out", str(tmp_path))
        assert run_cli(*argv) == 0
        first = load_report(tmp_path, "mc.json")["success_fraction"]
        assert run_cli(*argv) == 0
        second = load_report(tmp_path, "mc.json")["success_fraction"]
        assert first == second
        report = load_report(tmp_path, "mc.json")
        assert len(report["per_seed"]) == 200

    def test_min_success_numeric_failure(self, tmp_path):
        code = run_cli("mc", "--chain", "6", "--schedule", "linear:0,3,200",
                       "--sweeps", "200", "--seeds", "20", "--seed", "1",
                       "--min-success", "1.01", "--out", str(tmp_path))
        assert code == 1


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("argv", [
    ("bridge-check", "--chain", "4", "--K"),
    ("fermion-check", "--chain", "4", "--K"),
    ("reverse", "--tfield", "4", "--gamma"),
    ("anneal", "--chain", "4", "--dt"),
    ("mc", "--chain", "4", "--sweeps", "10", "--seeds", "2", "--ground-energy"),
    ("mc", "--chain", "4", "--sweeps", "10", "--seeds", "2", "--min-success"),
], ids=lambda argv: f"{argv[0]}{argv[-1]}")
def test_nonfinite_float_flag_is_usage_error(argv, value, tmp_path, capsys):
    assert_usage_error(capsys, *argv[:-1], f"{argv[-1]}={value}", "--out", str(tmp_path),
                       match="finite")


@pytest.mark.parametrize("argv, match", [
    (("anneal", "--samples", "0"), "n_samples must be positive, got 0"),
    (("anneal", "--samples", "-3"), "n_samples must be positive, got -3"),
], ids=["samples0", "samples-3"])
def test_out_of_range_flag_is_usage_error(argv, match, tmp_path, capsys):
    assert_usage_error(capsys, *argv, "--chain", "4", "--out", str(tmp_path), match=match)


class TestConfig:
    def test_config_file_preloads_flags(self, tmp_path):
        config = {"chain": 6, "K": 0.5, "rule": "heatbath"}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        code = run_cli("bridge-check", "--config", str(cfg_path),
                       "--out", str(tmp_path))
        assert code == 0
        report = load_report(tmp_path, "bridge_check.json")
        assert report["config"]["chain"] == 6
        assert report["config"]["K"] == 0.5

    def test_explicit_flag_overrides_config(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"chain": 6, "K": 0.5}))
        run_cli("bridge-check", "--config", str(cfg_path), "--K", "1.0",
                "--out", str(tmp_path))
        report = load_report(tmp_path, "bridge_check.json")
        assert report["config"]["K"] == 1.0

    def test_config_without_path_is_usage_error(self, tmp_path, capsys):
        assert_usage_error(capsys, "bridge-check", "--chain", "4", "--out", str(tmp_path),
                           "--config", match="argument --config: expected one argument")

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"chian": 6}))
        assert_usage_error(capsys, "bridge-check", "--config", str(cfg_path),
                           "--out", str(tmp_path), match="chian")

    @pytest.mark.parametrize("command, config", [
        ("bridge-check", {"chain": 6.5}),
        ("bridge-check", {"chain": 4, "dump_hamiltonian": "no"}),
        ("anneal", {"chain": 4, "dump_states": "long"}),  # a layout, from older reports
        ("reverse", {"tfield": 4, "gamma": math.nan}),
    ], ids=["float-for-int", "string-for-switch", "layout-for-switch", "nonfinite-float"])
    def test_config_value_is_checked_like_its_flag(self, command, config, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        key = list(config)[-1]
        out = tmp_path / "out"
        assert_usage_error(capsys, command, "--config", str(cfg_path),
                           "--out", str(out), match=f"--config key {key}:")
        assert not out.exists()

    def test_rerun_from_reported_config(self, tmp_path):
        run_cli("bridge-check", "--chain", "4", "--K", "0.7", "--out", str(tmp_path))
        first = load_report(tmp_path, "bridge_check.json")
        cfg_path = tmp_path / "replay.json"
        replay = {k: v for k, v in first["config"].items()
                  if k not in ("command", "func", "config")}
        cfg_path.write_text(json.dumps(replay))
        run_cli("bridge-check", "--config", str(cfg_path), "--out", str(tmp_path))
        second = load_report(tmp_path, "bridge_check.json")
        assert first["spectrum_deviation"] == second["spectrum_deviation"]
        assert first["gap"] == second["gap"]


# the smallest valid arguments of each command, and the flags it no longer takes:
# a gate's bound is a constant, and the JSON report is the only report
RUNS = {"bridge-check": ("--chain", "4"), "fermion-check": ("--chain", "4"),
        "reverse": ("--chain", "4"), "anneal": ("--chain", "4", "--schedule", "linear:0,1,0.1"),
        "mc": ("--chain", "4", "--sweeps", "3", "--seeds", "2")}
REMOVED = [(command, "--format", "json") for command in RUNS] + [
    ("bridge-check", f"--tol-{gate}", "1e-9")
    for gate in ("spectrum", "entry", "balance", "ground")]
REMOVED_IDS = [f"{command}{flag}" for command, flag, _ in REMOVED]


class TestFlagsPerCommand:
    """A command declares only the flags its run reads, and records only those."""

    @pytest.mark.parametrize("argv, flag", [
        (("anneal", "--chain", "4", "--schedule", "linear:0,1,0.1", "--K", "nan"), "--K"),
        (("mc", "--chain", "4", "--sweeps", "3", "--seeds", "2", "--K", "inf"), "--K"),
        (("bridge-check", "--chain", "4", "--seed", "1"), "--seed"),
        (("reverse", "--chain", "4", "--seed", "1"), "--seed"),
        (("anneal", "--chain", "4", "--schedule", "linear:0,1,0.1", "--seed", "1"), "--seed"),
    ] + [((command, *RUNS[command], flag, value), flag) for command, flag, value in REMOVED],
        ids=["anneal-K", "mc-K", "bridge-check-seed", "reverse-seed", "anneal-seed"]
        + REMOVED_IDS)
    def test_unread_flag_is_usage_error(self, argv, flag, tmp_path, capsys):
        assert_usage_error(capsys, *argv, "--out", str(tmp_path),
                           match=f"unrecognized arguments: {flag}")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command, config", [
        ("anneal", {"chain": 4, "schedule": "linear:0,1,0.1", "K": 0.5}),
        ("mc", {"chain": 4, "sweeps": 3, "seeds": 2, "K": 0.5}),
        ("bridge-check", {"chain": 4, "seed": 0}),
    ] + [(command, {"chain": 4, flag[2:].replace("-", "_"): value})
         for command, flag, value in REMOVED],
        ids=["anneal-K", "mc-K", "bridge-check-seed"] + REMOVED_IDS)
    def test_unread_config_key_is_usage_error(self, command, config, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        key = list(config)[-1]
        assert_usage_error(capsys, command, "--config", str(cfg_path), "--out", str(tmp_path),
                           match=f"--config keys that match no flag: {key}")

    def test_state_dump_needs_the_master_engine(self, tmp_path, capsys):
        assert_usage_error(capsys, "anneal", "--chain", "4", "--engines", "imaginary",
                           "--dump-states", "--out", str(tmp_path),
                           match="--dump-states exports the master engine")
        assert not list(tmp_path.iterdir())

    COMMON = {"out"}
    MODEL = COMMON | {"chain", "rule"}

    @pytest.mark.parametrize("argv, report, keys", [
        (("bridge-check", "--chain", "4"), "bridge_check",
         MODEL | {"K", "dump_hamiltonian"}),
        (("fermion-check", "--chain", "4"), "fermion_check",
         COMMON | {"chain", "K", "random_couplings"}),
        (("fermion-check", "--chain", "4", "--random-couplings"), "fermion_check",
         COMMON | {"chain", "K", "random_couplings", "seed"}),
        (("reverse", "--chain", "4"), "reverse", MODEL | {"K"}),
        (("reverse", "--tfield", "4"), "reverse", COMMON | {"tfield", "gamma"}),
        (("anneal", "--chain", "4", "--schedule", "linear:0,1,0.1"), "anneal",
         MODEL | {"schedule", "dt", "samples", "engines", "dump_states"}),
        (("mc", "--chain", "4", "--sweeps", "3", "--seeds", "2"), "mc",
         MODEL | {"schedule", "seed", "sweeps", "seeds"}),
    ], ids=["bridge-check", "fermion-check", "fermion-check-random", "reverse-chain",
            "reverse-tfield", "anneal", "mc"])
    def test_config_records_only_the_flags_the_run_reads(self, argv, report, keys,
                                                         tmp_path):
        assert run_cli(*argv, "--out", str(tmp_path)) == 0
        assert set(load_report(tmp_path, f"{report}.json")["config"]) == keys | {"command"}

    def test_each_parser_declares_exactly_its_flags(self):
        declared = {name: {action.option_strings[0][2:] for action in parser._actions
                           if action.dest != "help"}
                    for name, parser in cli.build_parser()[1].items()}
        assert declared == {
            "bridge-check": {"config", "out", "model", "chain", "rule", "K",
                             "dump-hamiltonian"},
            "fermion-check": {"config", "out", "chain", "K", "random-couplings", "seed"},
            "reverse": {"config", "out", "model", "chain", "rule", "K", "tfield", "gamma"},
            "anneal": {"config", "out", "model", "chain", "rule", "schedule", "dt", "samples",
                       "engines", "dump-states"},
            "mc": {"config", "out", "model", "chain", "rule", "schedule", "seed", "sweeps",
                   "seeds", "ground-energy", "min-success"},
        }


def test_module_entry_point(tmp_path):
    # the child imports the same package as this process, installed or not
    path = [os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH", "")]
    result = subprocess.run(
        [sys.executable, "-m", "isingbridge.cli", "bridge-check", "--chain", "4",
         "--K", "0.5", "--out", str(tmp_path)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))})
    assert result.returncode == 0
    assert (tmp_path / "bridge_check.json").exists()
