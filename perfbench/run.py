"""Benchmark harness for isingbridge: one workload, one process, one client.

    python3 perfbench/run.py --workload bridge|anneal|mc --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src, nothing is installed. Each workload is a fixed, seeded list of
tasks (see tasks.py) run as a closed loop with one client: the next task
starts when the previous one has finished. The list is run in whole
passes until `--seconds` have elapsed and at least MIN_SAMPLES tasks have
been timed. Every result is checked by an oracle outside the timed span.

--trace 0 prints the end-to-end metrics: setup_s (median over
SETUP_REPEATS set-ups, this process plus fresh child processes),
tasks_per_s, task_p50_s, task_p90_s and peak_rss_mb; failures appear as
`failed` over `attempted`. --trace 1 alternates untraced passes with
passes under tracer.Tracer and prints per-layer metrics per traced pass,
plus trace_overhead_frac. The last line of standard output is the JSON
result; the lines before it name every metric with its unit and sample
count, and a provenance block.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up time counts from here, before any other import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = 1
SETUP_REPEATS = 5
MIN_SAMPLES = 100
LOOP_CAP_S = 140.0
WARMUP_EIGH_DIM = 1024
WARMUP_MATVEC_DIM = 64

END_TO_END = {"setup_s": "s", "tasks_per_s": "1/s", "task_p50_s": "s",
              "task_p90_s": "s", "peak_rss_mb": "MB"}

CLOSED_FORM = ("quantum.chain_heatbath_hamiltonian", "quantum.chain_metropolis_hamiltonian",
               "quantum.chain_random_heatbath_hamiltonian", "quantum.transverse_field_chain")
ENGINE_NAMES = {"master": "anneal.evolve_master_timedep",
                "imaginary": "anneal.evolve_imaginary_schrodinger",
                "real": "anneal.evolve_real_schrodinger"}
LAYER_UNITS = {
    "spectral.eig_sym.s": "s", "spectral.eig_sym.calls": "count",
    "spectral.eig_sym.dim3_sum": "count",
    "quantum.classical_to_quantum.s": "s", "quantum.assemble_direct.s": "s",
    "quantum.closed_form.s": "s", "markov.build_generator.s": "s",
    "markov.detailed_balance_residual.s": "s",
    "reverse.quantum_to_classical.s": "s", "reverse.extract_couplings.s": "s",
    "fermion.s": "s", "markov.relaxation_time.s": "s",
    "markov.rates.calls": "count", "markov.rates.s": "s",
    "anneal.master.steps_per_s": "1/s", "anneal.imaginary.steps_per_s": "1/s",
    "anneal.real.steps_per_s": "1/s", "anneal.steps": "count", "anneal.s": "s",
    "markov.evolve_master.s": "s", "markov.evolve_master.steps_per_s": "1/s",
    "montecarlo.mc_simulated_annealing.s": "s", "montecarlo.flips": "count",
    "montecarlo.flips_per_s": "1/s", "montecarlo.success_frac": "ratio",
    "spins.energy_table.s": "s", "spins.energy_table.calls": "count",
    "cli.self_s": "s", "cli.bytes_written": "B",
    **{f"{layer}.self_s": "s" for layer in ("spins", "markov", "quantum", "spectral",
                                             "fermion", "reverse", "anneal", "montecarlo")},
    "trace_overhead_frac": "ratio",
}


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - not Linux
        return os.cpu_count() or 1


def pin_blas_threads() -> int:
    """Set the BLAS thread count; must run before numpy is imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("BLAS threads must be pinned before numpy is imported")
    threads = min(BLAS_THREADS, usable_cpus())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def git_sha(root: Path) -> str | None:
    """Commit checked out at `root`, or None outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(threads: int, **fields) -> dict:
    """Machine and version block, plus the caller's `fields`."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "nproc_usable": usable_cpus(),
            "machine": platform.machine(), "blas": blas, "blas_threads": threads,
            "numpy": np.__version__, "python": platform.python_version(),
            "git_sha": git_sha(ROOT), "argv": sys.argv, **fields}


def warm_up(workload: str, seed: int) -> None:
    """First dense call of the kind the workload's tasks make, paid in set-up.

    bridge's tasks solve dense eigenproblems of dimension up to 1024;
    anneal's multiply dense matrices with vectors, which a small matvec
    warms up without adding to peak_rss_mb; mc's use no dense linear
    algebra and get no warm-up.
    """
    if workload == "mc":
        return
    import numpy as np

    rng = np.random.default_rng(seed)
    if workload == "bridge":
        a = rng.standard_normal((WARMUP_EIGH_DIM, WARMUP_EIGH_DIM))
        np.linalg.eigh(a + a.T)
    else:
        a = rng.standard_normal((WARMUP_MATVEC_DIM, WARMUP_MATVEC_DIM))
        a @ a[0]


def run_pass(task_list, durations: list, errors: list, tracer=None) -> float:
    """Run every task once; append durations and failure reasons; return busy time."""
    busy = 0.0
    for task in task_list:
        if tracer is not None:
            tracer.recording = True
        start = time.perf_counter()
        try:
            result = task.run()
        except Exception as exc:  # a task that raises is a failed task
            result, reason = None, f"{type(exc).__name__}: {exc}"
        else:
            reason = None
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.recording = False
        if reason is None:
            try:
                reason = task.check(result)
            except Exception as exc:  # e.g. a report file the command did not write
                reason = f"oracle could not read the result: {type(exc).__name__}: {exc}"
        durations.append(elapsed)
        busy += elapsed
        if reason is not None:
            errors.append(f"{task.kind} {task.spec}: {reason}")
    return busy


def child_setup_s(args, workdir: str) -> float:
    """Set-up time of a fresh process that sets up the same inputs under `workdir`."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only", workdir],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed ({proc.returncode}): {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def quantile(values, q: float) -> float:
    """Inclusive-method quantile (same as statistics.quantiles(method='inclusive'))."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def end_to_end(setups: list[float], pass_tasks: int, busy: list[float],
               durations: list[float]) -> dict:
    """End-to-end metrics as {name: (value, sample count)}.

    Throughput is tasks per pass over the median busy time of a pass, so one
    pass slowed by something else on the machine does not move it.
    """
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n = len(durations)
    return {"setup_s": (statistics.median(setups), len(setups)),
            "tasks_per_s": (pass_tasks / statistics.median(busy), n),
            "task_p50_s": (quantile(durations, 0.50), n),
            "task_p90_s": (quantile(durations, 0.90), n),
            "peak_rss_mb": (rss_mb, 1)}


def per_layer(tracer, passes: int, traced_busy: list[float],
              untraced_busy: list[float]) -> dict:
    """Per-layer metrics per traced pass, as {name: (value, sample count)}."""
    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    incl, calls, counters = tracer.incl_s, tracer.calls, tracer.counters
    m = {
        "spectral.eig_sym.s": incl["spectral.eig_sym"] / passes,
        "spectral.eig_sym.calls": calls["spectral.eig_sym"] / passes,
        "spectral.eig_sym.dim3_sum": counters["spectral.eig_sym.dim3_sum"] / passes,
        "quantum.closed_form.s": sum(incl[name] for name in CLOSED_FORM) / passes,
        "fermion.s": tracer.layer_incl_s["fermion"] / passes,
        "markov.rates.calls": calls["markov.rates"] / passes,
        "anneal.steps": sum(counters[f"anneal.{e}.steps"] for e in ENGINE_NAMES) / passes,
        "anneal.s": tracer.layer_incl_s["anneal"] / passes,
        "markov.evolve_master.steps_per_s": rate(counters["markov.evolve_master.steps"],
                                                 incl["markov.evolve_master"]),
        "montecarlo.flips": counters["montecarlo.flips"] / passes,
        "montecarlo.flips_per_s": rate(counters["montecarlo.flips"],
                                       incl["montecarlo.mc_simulated_annealing"]),
        "montecarlo.success_frac": rate(counters["montecarlo.ground_hits"],
                                        counters["montecarlo.chains"]),
        "spins.energy_table.calls": calls["spins.energy_table"] / passes,
        "cli.bytes_written": counters["cli.bytes_written"] / passes,
        "trace_overhead_frac": (statistics.median(traced_busy)
                                / statistics.median(untraced_busy) - 1.0),
    }
    for engine, name in ENGINE_NAMES.items():
        m[f"anneal.{engine}.steps_per_s"] = rate(counters[f"anneal.{engine}.steps"],
                                                 incl[name])
    for layer in ("spins", "markov", "quantum", "spectral", "fermion", "reverse",
                  "anneal", "montecarlo", "cli"):
        m[f"{layer}.self_s"] = tracer.layer_self_s[layer] / passes
    for name in LAYER_UNITS:  # the rest are "<layer>.<function>.s"
        if name not in m:
            m[name] = incl[name[:-2]] / passes
    return {name: (m[name], len(untraced_busy) if name == "trace_overhead_frac" else passes)
            for name in LAYER_UNITS}


def parse_args(argv):
    from tasks import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", metavar="DIR",
                        help="set up under DIR, print the set-up time and exit "
                        "(used for the repeated set-up measurement)")
    return parser.parse_args(argv)


def report(metrics: dict, units: dict, attempted: int, errors: list) -> None:
    metrics = {name: (int(value) if units[name] == "count" else value, count)
               for name, (value, count) in metrics.items()}
    for name, (value, count) in metrics.items():
        print(f"metric {name} = {value!r} {units[name]} (n={count})")
    print(f"metric failed_frac = {len(errors) / attempted!r} ratio (n={attempted})")
    for line in errors[:20]:
        print(f"FAILED {line}")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": len(errors),
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, (value, _) in metrics.items()}}))


def import_package() -> int | None:
    """Pin BLAS threads and import isingbridge from ./src; return the thread count.

    Returns None, after saying why on stderr, when the checkout holds no
    package sources or another copy of the package shadows them.
    """
    if not (SRC / "isingbridge" / "__init__.py").is_file():
        print(f"error: no isingbridge sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return None
    threads = pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import isingbridge

    if Path(isingbridge.__file__).resolve().parent != SRC / "isingbridge":
        print(f"error: imported isingbridge from {isingbridge.__file__}, not {SRC}",
              file=sys.stderr)
        return None
    return threads


def _terminate(signum, frame):
    # leave through SystemExit, so the work directory is removed and a running
    # set-up child is killed and waited for by subprocess.run
    sys.exit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    threads = import_package()
    if threads is None:
        return 2
    args = parse_args(sys.argv[1:] if argv is None else argv)
    import tasks
    import tracer as tracing

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=args.setup_only or ROOT)
    try:
        task_list = tasks.build_tasks(args.workload, args.seed, workdir)
        warm_up(args.workload, args.seed)
        setup = time.perf_counter() - T0
        if args.setup_only is not None:
            print(repr(setup))
            return 0

        print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
              f"tasks/pass={len(task_list)} closed-loop clients=1")
        print("provenance " + json.dumps(
            provenance(threads, workload=args.workload, seed=args.seed), sort_keys=True))
        durations: list[float] = []
        errors: list[str] = []

        def more(min_samples: int = 0) -> bool:
            elapsed = time.perf_counter() - start
            return elapsed < LOOP_CAP_S and (elapsed < args.seconds
                                             or len(durations) < min_samples)

        if args.trace == 0:
            setups = [setup] + [child_setup_s(args, workdir)
                                for _ in range(SETUP_REPEATS - 1)]
            print("setup_samples_s " + " ".join(f"{s:.4f}" for s in setups))
            start = time.perf_counter()
            busy = [run_pass(task_list, durations, errors)]
            while more(MIN_SAMPLES):
                busy.append(run_pass(task_list, durations, errors))
            print("pass_busy_s " + " ".join(f"{b:.3f}" for b in busy))
            report(end_to_end(setups, len(task_list), busy, durations), END_TO_END,
                   len(durations), errors)
            return 0

        tracer = tracing.Tracer()
        traced, untraced = [], []
        start = time.perf_counter()
        while not traced or more():
            untraced.append(run_pass(task_list, durations, errors))
            tracer.install()
            try:
                traced.append(run_pass(task_list, durations, errors, tracer))
            finally:
                tracer.remove()
        report(per_layer(tracer, len(traced), traced, untraced), LAYER_UNITS,
               len(durations), errors)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
