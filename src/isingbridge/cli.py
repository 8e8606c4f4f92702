"""Command-line experiments with CSV/JSON reports.

Every command resolves its configuration (flags, optionally seeded from a
JSON config file), runs a reproducible experiment, writes report files
atomically into --out, and exits 0 when all numeric checks pass, 1 when a
numeric check fails, and 2 on usage or validation errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from . import anneal, fermion, markov, montecarlo, quantum, reverse, spectral, spins

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that raises instead of exiting, so main() owns exit codes."""

    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# atomic report writers

def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, payload: dict) -> None:
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_csv(path: str, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_spectrum(out_dir: str, stem: str, eigenvalues: np.ndarray,
                   gap: float, metadata: dict) -> None:
    write_csv(os.path.join(out_dir, f"{stem}.csv"), ["index", "eigenvalue"],
              ((i, float(v)) for i, v in enumerate(eigenvalues)))
    write_json(os.path.join(out_dir, f"{stem}.json"), {"gap": gap, **metadata})


def dump_hamiltonian(path: str, ham: quantum.QuantumHamiltonian) -> None:
    header = (f"# n_spins={ham.n_spins} provenance={ham.provenance} "
              f"beta={ham.beta} rule={ham.rule_name}")
    body = "\n".join(" ".join(repr(float(x)) for x in row) for row in ham.matrix)
    _atomic_write(path, header + "\n" + body + "\n")


def export_states(path: str, times: np.ndarray, states: np.ndarray,
                  layout: str, n_spins: int) -> None:
    """State-trajectory CSV, long (time,state_index,probability) or wide."""
    if layout == "long":
        rows = ((float(t), idx, float(p))
                for t, vec in zip(times, states)
                for idx, p in enumerate(vec))
        write_csv(path, ["time", "state_index", "probability"], rows)
    elif layout == "wide":
        spins._check_spins(n_spins, "wide state export")
        header = ["time"] + [f"p{idx}" for idx in range(states.shape[1])]
        rows = ([float(t)] + [float(p) for p in vec]
                for t, vec in zip(times, states))
        write_csv(path, header, rows)
    else:
        raise UsageError(f"unknown state layout {layout!r}")


# ---------------------------------------------------------------------------
# shared argument handling

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file whose keys preload these flags")
    parser.add_argument("--out", default=".", help="output directory for reports")
    parser.add_argument("--format", choices=("csv", "json"), default="json",
                        help="primary report format (csv adds no information; "
                        "the JSON report is always written)")
    parser.add_argument("--seed", type=int, default=0, help="seed for seeded inputs")


def _add_model_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", help="path to a model JSON file")
    parser.add_argument("--chain", type=int, metavar="N",
                        help="built-in uniform periodic chain with N sites")
    parser.add_argument("--K", type=float, default=0.5,
                        help="inverse temperature times coupling (J=1)")
    parser.add_argument("--rule", default="heatbath",
                        help="heatbath | metropolis | uniform:P")


def _resolve_model(args, cap: str = "command-line") -> spins.IsingModel:
    if (args.model is None) == (args.chain is None):
        raise UsageError("specify exactly one of --model PATH or --chain N")
    if args.model is not None:
        try:
            model = spins.load_model(args.model)
        except (OSError, KeyError, TypeError) as exc:
            raise UsageError(f"cannot read --model file {args.model}: {exc!r}") from exc
    else:
        if args.chain < 3:
            raise UsageError("--chain needs N >= 3")
        model = spins.chain_model(args.chain, [1.0] * args.chain)
    spins._check_spins(model.n_spins, cap)
    return model


def _parse_schedule(text: str, model: spins.IsingModel) -> anneal.Schedule:
    kind, _, rest = text.partition(":")
    values = [float(v) for v in rest.split(",")] if rest else []
    if kind == "linear" and len(values) == 3:
        return anneal.LinearBeta(values[0], values[1], values[2])
    if kind == "geman" and len(values) == 3:
        if values[1] != model.n_spins:
            raise UsageError(f"geman schedule N={values[1]:g} does not match the "
                             f"model's {model.n_spins} spins")
        return anneal.GemanGeman(p=values[0], n_spins=int(values[1]), t_final=values[2])
    raise UsageError(
        f"cannot parse schedule {text!r}; use linear:BETA0,BETA1,T or geman:P,N,T")


def _resolved_config(args) -> dict:
    config = {k: v for k, v in vars(args).items() if k != "func"}
    return {k: v for k, v in config.items() if v is not None}


def _flatten(prefix: str, obj, rows: list) -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, rows)
    elif isinstance(obj, (list, tuple)):
        rows.append((prefix, json.dumps(obj)))
    else:
        rows.append((prefix, obj))


def _report(args, name: str, payload: dict, checks: dict[str, bool]) -> int:
    payload = {**payload, "checks": {k: bool(v) for k, v in checks.items()},
               "config": _resolved_config(args)}
    write_json(os.path.join(args.out, f"{name}.json"), payload)
    if args.format == "csv":
        rows: list = []
        _flatten("", payload, rows)
        write_csv(os.path.join(args.out, f"{name}.csv"), ["key", "value"], rows)
    failed = [k for k, ok in checks.items() if not ok]
    for k in failed:
        print(f"FAIL {k}", file=sys.stderr)
    return EXIT_NUMERIC if failed else EXIT_OK


# ---------------------------------------------------------------------------
# commands

def cmd_bridge_check(args) -> int:
    model = _resolve_model(args)
    rule = markov.parse_rule(args.rule)
    generator = markov.build_generator(model, args.K, rule)

    mapped = quantum.classical_to_quantum(generator)
    direct = quantum.assemble_direct(model, args.K, rule)
    entry_dev = float(np.abs(mapped.matrix - direct.matrix).max())

    gen_report = spectral.spectrum_of_generator(generator)
    ham_report = spectral.spectrum_of_hamiltonian(mapped)
    # eigh is accurate to roundoff times max|H|, and uniform:P rates reach exp(K|dE|/2)
    h_max = float(np.abs(mapped.matrix).max())
    spectra = spectral.compare_spectra(-gen_report.eigenvalues, ham_report.eigenvalues,
                                       args.tol_spectrum * max(1.0, h_max))

    balance = markov.detailed_balance_residual(generator)
    # gate on H sqrt(P0) = 0 and on the residual H v0 of eigh's ground vector, not
    # on the distance of v0^2 from P0, whose error grows like 1/gap
    boltzmann = spins.boltzmann(model, args.K)
    ground = ham_report.ground_vector
    ground_residual = float(np.abs(mapped.matrix @ np.sqrt(boltzmann)).max()) / h_max
    eigh_residual = float(np.abs(mapped.matrix @ ground).max()) / h_max
    ground_dev = float(np.abs(ground ** 2 - boltzmann).max())

    write_spectrum(args.out, "spectrum_generator", gen_report.eigenvalues,
                   gen_report.gap, {"matrix": "generator", "n_spins": model.n_spins})
    write_spectrum(args.out, "spectrum_hamiltonian", ham_report.eigenvalues,
                   ham_report.gap, {"matrix": "hamiltonian", "n_spins": model.n_spins})
    if args.dump_hamiltonian:
        dump_hamiltonian(os.path.join(args.out, "hamiltonian.txt"), mapped)

    checks = {
        "spectrum-shared": spectra.matched,
        "construction-agreement": entry_dev <= args.tol_entry,
        "detailed-balance": balance <= args.tol_balance,
        "ground-state-boltzmann": max(ground_residual, eigh_residual) <= args.tol_ground,
    }
    payload = {
        "spectrum_deviation": spectra.max_deviation,
        "construction_deviation": entry_dev,
        "detailed_balance_residual": balance,
        "ground_state_residual": ground_residual,
        "ground_eigenpair_residual": eigh_residual,
        "ground_boltzmann_deviation": ground_dev,
        "gap": ham_report.gap,
    }
    return _report(args, "bridge_check", payload, checks)


def cmd_fermion_check(args) -> int:
    n = args.chain
    if n is None:
        raise UsageError("fermion-check needs --chain N")
    fermion._check_chain(n, args.K)  # the random couplings below are +-1
    spins._check_spins(n, "command-line")

    if args.random_couplings:
        rng = np.random.default_rng(args.seed)
        couplings = rng.choice([-1.0, 1.0], size=n)
        block, energies = fermion.random_single_particle_matrix(couplings, args.K)
        evals = np.linalg.eigvalsh(block)
        symmetry_dev = float(np.abs(np.sort(evals) + np.sort(evals)[::-1]).max())
        write_csv(os.path.join(args.out, "single_particle.csv"),
                  ["index", "energy"], enumerate(map(float, energies)))
        checks = {"spectrum-plusminus-symmetric": symmetry_dev <= 1e-10}
        payload = {"couplings": list(couplings), "symmetry_deviation": symmetry_dev,
                   "single_particle_energies": [float(e) for e in energies]}
        return _report(args, "fermion_check", payload, checks)

    params = fermion.FermionChainParams(n, args.K)
    rows = []
    for sector in ("even", "odd"):
        grid = fermion.momentum_grid(n, sector)
        eps = np.asarray(fermion.dispersion(args.K, grid))
        rows.extend((sector, float(p), float(e)) for p, e in zip(grid, eps))
    write_csv(os.path.join(args.out, "dispersion.csv"), ["sector", "p", "epsilon"], rows)

    reconstructed = fermion.many_body_spectrum(params)
    dense = spectral.spectrum_of_hamiltonian(
        quantum.chain_heatbath_hamiltonian(n, args.K))
    spectrum_dev = float(np.abs(reconstructed - dense.eigenvalues).max())
    gap_formula = 1.0 - np.tanh(2.0 * args.K)
    gap = fermion.finite_gap(params)
    gap_dev = abs(gap - gap_formula)
    ground_offset = abs(fermion.ground_energy_offset(params))

    checks = {
        "spectrum-reconstruction": spectrum_dev <= 1e-8,
        "gap-formula": gap_dev <= 1e-8,
        "ground-energy-zero": ground_offset <= 1e-8,
    }
    payload = {
        "spectrum_deviation": spectrum_dev,
        "gap_measured": gap,
        "gap_formula": float(gap_formula),
        "gap_deviation": float(gap_dev),
        "ground_energy_offset": float(ground_offset),
    }
    return _report(args, "fermion_check", payload, checks)


def cmd_reverse(args) -> int:
    if args.tfield is not None:
        ham = quantum.transverse_field_chain(args.tfield, args.gamma)
        result = reverse.quantum_to_classical(ham)
        expansion = reverse.extract_couplings(result.energy_table)
        profile = expansion.locality_profile()
        write_csv(os.path.join(args.out, "couplings.csv"),
                  ["order", "sites", "coefficient"],
                  ((order, " ".join(map(str, sites)), coeff)
                   for order, sites, coeff in expansion.rows()))
        write_json(os.path.join(args.out, "locality_profile.json"),
                   {str(k): v for k, v in profile.items()})
        witness = max((v for k, v in profile.items() if k >= 4), default=0.0)
        checks = {
            "multibody-witness": witness > 1e-6,
            "generator-conditions": max(result.condition_residuals.values()) <= 1e-9,
        }
        payload = {"locality_profile": {str(k): v for k, v in profile.items()},
                   "condition_residuals": result.condition_residuals,
                   "ground_shift": result.ground_shift}
        return _report(args, "reverse", payload, checks)

    model = _resolve_model(args)
    rule = markov.parse_rule(args.rule)
    generator = markov.build_generator(model, args.K, rule)
    ham = quantum.classical_to_quantum(generator)
    result = reverse.quantum_to_classical(ham)

    w_dev = float(np.abs(result.generator.matrix - generator.matrix).max())
    shift = result.energy_table - args.K * generator.energies
    h0_dev = float(np.abs(shift - shift.mean()).max())
    checks = {
        "roundtrip-generator": w_dev <= 1e-10,
        "roundtrip-energy-table": h0_dev <= 1e-9,
        "generator-conditions": max(result.condition_residuals.values()) <= 1e-9,
    }
    payload = {"roundtrip_generator_deviation": w_dev,
               "roundtrip_energy_deviation": h0_dev,
               "condition_residuals": result.condition_residuals,
               "ground_shift": result.ground_shift}
    return _report(args, "reverse", payload, checks)


def cmd_anneal(args) -> int:
    model = _resolve_model(args)
    rule = markov.parse_rule(args.rule)
    schedule = _parse_schedule(args.schedule, model)
    engines = [e.strip() for e in args.engines.split(",") if e.strip()]
    unknown = set(engines) - {"master", "imaginary", "real"}
    if unknown or not engines:
        raise UsageError("--engines must name master, imaginary and/or real")

    size = model.n_states
    p0 = np.full(size, 1.0 / size)
    beta0 = schedule.beta(0.0)
    x = -0.5 * beta0 * spins.energy_table(model)
    phi0 = np.exp(x - x.max())

    trajectories: dict[str, anneal.AnnealTrajectory] = {}
    for engine in engines:
        if engine == "master":
            traj = anneal.evolve_master_timedep(model, rule, schedule, p0,
                                                args.dt, n_samples=args.samples)
        elif engine == "imaginary":
            traj = anneal.evolve_imaginary_schrodinger(model, rule, schedule, phi0,
                                                       args.dt, n_samples=args.samples)
        else:
            traj = anneal.evolve_real_schrodinger(model, rule, schedule,
                                                  phi0.astype(complex),
                                                  args.dt, n_samples=args.samples)
        trajectories[engine] = traj
        write_csv(os.path.join(args.out, f"trajectory_{engine}.csv"),
                  ["t", "beta", "ground_probability", "overlap", "log_norm_decrement"],
                  ((float(t), float(b), float(g), float(o), float(l))
                   for t, b, g, o, l in zip(traj.times, traj.betas,
                                            traj.ground_probability, traj.overlap,
                                            traj.log_norm_decrement)))
    if args.dump_states and "master" in trajectories:
        traj = trajectories["master"]
        export_states(os.path.join(args.out, "states_master.csv"),
                      traj.times, traj.states, args.dump_states, model.n_spins)

    payload = {"final": {name: {"ground_probability": float(t.ground_probability[-1]),
                                "overlap": float(t.overlap[-1])}
                         for name, t in trajectories.items()}}
    checks = {}
    if "master" in trajectories and "imaginary" in trajectories:
        deviation = anneal.master_imaginary_deviation(
            trajectories["master"], trajectories["imaginary"], model)
        payload["consistency_deviation"] = deviation
        checks["master-imaginary-consistency"] = deviation <= 1e-6
    return _report(args, "anneal", payload, checks)


def cmd_mc(args) -> int:
    model = _resolve_model(args, cap="model")
    rule = markov.parse_rule(args.rule)
    schedule = _parse_schedule(args.schedule, model)
    report = montecarlo.mc_simulated_annealing(
        model, rule, schedule, n_sweeps=args.sweeps, n_seeds=args.seeds,
        seed0=args.seed, ground_energy=args.ground_energy)

    write_csv(os.path.join(args.out, "energy_trace.csv"), ["sweep", "mean_energy"],
              enumerate(map(float, report.energy_trace)))
    payload = {
        "success_fraction": report.success_fraction,
        "ground_energy": report.ground_energy,
        "per_seed": [{"final_state": int(s), "final_energy": float(e),
                      "success": bool(ok)}
                     for s, e, ok in zip(report.final_states, report.final_energies,
                                         report.success)],
    }
    checks = {}
    if args.min_success is not None:
        checks["success-threshold"] = report.success_fraction >= args.min_success
    return _report(args, "mc", payload, checks)


# ---------------------------------------------------------------------------

def build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    parser = _Parser(prog="isingbridge",
                     description="experiments on the classical-quantum annealing bridge")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("bridge-check",
                       help="map a generator to a Hamiltonian both ways and verify")
    _add_common(p)
    _add_model_args(p)
    p.add_argument("--dump-hamiltonian", action="store_true")
    p.add_argument("--tol-spectrum", type=float, default=1e-9)
    p.add_argument("--tol-entry", type=float, default=1e-12)
    p.add_argument("--tol-balance", type=float, default=1e-10)
    p.add_argument("--tol-ground", type=float, default=1e-9)
    p.set_defaults(func=cmd_bridge_check)

    p = sub.add_parser("fermion-check",
                       help="verify the free-fermion solution of the heat-bath chain")
    _add_common(p)
    p.add_argument("--chain", type=int, metavar="N", required=False)
    p.add_argument("--K", type=float, default=0.5)
    p.add_argument("--random-couplings", action="store_true",
                   help="seeded +-1 couplings; emit single-particle energies")
    p.set_defaults(func=cmd_fermion_check)

    p = sub.add_parser("reverse",
                       help="map a Hamiltonian back to classical dynamics")
    _add_common(p)
    _add_model_args(p)
    p.add_argument("--tfield", type=int, metavar="N",
                   help="use the standard transverse-field chain on N sites instead")
    p.add_argument("--gamma", type=float, default=0.7,
                   help="transverse field strength for --tfield")
    p.set_defaults(func=cmd_reverse)

    p = sub.add_parser("anneal", help="time-dependent engines under a schedule")
    _add_common(p)
    _add_model_args(p)
    p.add_argument("--schedule", default="linear:0,2,10",
                   help="linear:BETA0,BETA1,T or geman:P,N,T")
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--engines", default="master,imaginary",
                   help="comma list from master,imaginary,real")
    p.add_argument("--dump-states", choices=("long", "wide"),
                   help="also export the master-engine state trajectory")
    p.set_defaults(func=cmd_anneal)

    p = sub.add_parser("mc", help="Monte Carlo simulated annealing")
    _add_common(p)
    _add_model_args(p)
    p.add_argument("--schedule", default="linear:0,3,1000")
    p.add_argument("--sweeps", type=int, default=1000)
    p.add_argument("--seeds", type=int, default=200)
    p.add_argument("--ground-energy", type=float)
    p.add_argument("--min-success", type=float,
                   help="exit 1 if the success fraction falls below this")
    p.set_defaults(func=cmd_mc)

    commands = {name: sp for name, sp in sub.choices.items()}
    return parser, commands


def _apply_config_file(parser: _Parser, args) -> None:
    """Preload subcommand defaults from --config JSON keys that name its flags."""
    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read --config file: {exc!r}") from exc
    if not isinstance(config, dict):
        raise UsageError("--config file must hold a JSON object")
    actions = {a.dest: a for a in parser._actions if a.dest in vars(args)}
    defaults = {k.replace("-", "_"): v for k, v in config.items()}
    unknown = sorted(set(defaults) - set(actions))
    if unknown:
        raise UsageError(f"--config keys that match no flag: {', '.join(unknown)}")
    parser.set_defaults(**{k: _config_value(actions[k], k, v) for k, v in defaults.items()})


def _config_value(action: argparse.Action, key: str, value):
    """A --config value, checked as its flag is on the command line."""
    takes_text = action.nargs != 0  # store_true flags take JSON true/false
    ok = isinstance(value, (str, int, float)) and isinstance(value, bool) != takes_text
    if ok and takes_text:
        try:
            value = (action.type or str)(str(value))
        except ValueError:
            ok = False
    if not ok or (action.choices is not None and value not in action.choices):
        raise UsageError(f"--config key {key}: invalid value {value!r} for "
                         f"{action.option_strings[0]}")
    return value


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:  # explicit flags win over the file
            _apply_config_file(commands[args.command], args)
            args = parser.parse_args(argv)
        os.makedirs(args.out, exist_ok=True)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
