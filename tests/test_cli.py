import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from isingbridge import cli, spectral, spins


def run_cli(*argv):
    return cli.main(list(argv))


def load_report(tmp_path, name):
    return json.loads((tmp_path / name).read_text())


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

    def test_unknown_rule_is_usage_error(self, tmp_path):
        assert run_cli("bridge-check", "--chain", "4", "--rule", "glauber",
                       "--out", str(tmp_path)) == 2


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

    def test_random_couplings(self, tmp_path):
        code = run_cli("fermion-check", "--chain", "6", "--K", "0.5",
                       "--random-couplings", "--seed", "3", "--out", str(tmp_path))
        assert code == 0
        report = load_report(tmp_path, "fermion_check.json")
        assert report["checks"]["spectrum-plusminus-symmetric"]
        assert (tmp_path / "single_particle.csv").exists()

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

    def test_roundtrip_mode(self, tmp_path):
        code = run_cli("reverse", "--chain", "4", "--K", "1.0",
                       "--rule", "heatbath", "--out", str(tmp_path))
        assert code == 0
        report = load_report(tmp_path, "reverse.json")
        assert report["roundtrip_generator_deviation"] <= 1e-10
        assert max(report["condition_residuals"].values()) <= 1e-9


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

    def test_wide_state_export(self, tmp_path):
        run_cli("anneal", "--chain", "4", "--engines", "master",
                "--schedule", "linear:0,1,1", "--dt", "0.005",
                "--dump-states", "wide", "--out", str(tmp_path))
        lines = (tmp_path / "states_master.csv").read_text().splitlines()
        assert lines[0].split(",")[:2] == ["time", "p0"]
        assert len(lines[0].split(",")) == 17

    def test_long_state_export(self, tmp_path):
        run_cli("anneal", "--chain", "4", "--engines", "master",
                "--schedule", "linear:0,1,1", "--dt", "0.005", "--samples", "5",
                "--dump-states", "long", "--out", str(tmp_path))
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

    def test_geman_spin_count_must_match_model(self, tmp_path, capsys):
        for command in ("anneal", "mc"):
            assert_usage_error(capsys, command, "--chain", "6",
                               "--schedule", "geman:1,3,10", "--out", str(tmp_path),
                               match="does not match the model's 6 spins")


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


class TestConfigAndFormat:
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

    @pytest.mark.parametrize("config", [
        {"chain": 6.5},
        {"chain": 4, "format": "xml"},
        {"chain": 4, "dump_hamiltonian": "no"},
    ], ids=["float-for-int", "bad-choice", "string-for-switch"])
    def test_config_value_is_checked_like_its_flag(self, config, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        key = list(config)[-1]
        assert_usage_error(capsys, "bridge-check", "--config", str(cfg_path),
                           "--out", str(tmp_path), match=f"--config key {key}:")
        assert not (tmp_path / "hamiltonian.txt").exists()
        assert not (tmp_path / "bridge_check.json").exists()

    def test_csv_report_format(self, tmp_path):
        run_cli("bridge-check", "--chain", "4", "--format", "csv",
                "--out", str(tmp_path))
        lines = (tmp_path / "bridge_check.csv").read_text().splitlines()
        assert lines[0] == "key,value"
        keys = {line.split(",")[0] for line in lines[1:]}
        assert "spectrum_deviation" in keys

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
