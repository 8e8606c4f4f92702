"""Self-tests of the benchmark harness (not part of the package's test suite).

    python3 -m pytest -q perfbench/selftest.py

They check that task lists are reproducible from the seed, that the
metric names the harness prints are the ones BENCHMARK.json declares,
that corrupted results are counted as failures, that the tracing
wrappers are gone after a traced pass, and that the harness refuses to
run without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tasks  # noqa: E402
import tracer as tracing  # noqa: E402
from isingbridge import markov, spectral  # noqa: E402


def declared(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def first(task_list, kind):
    return next(t for t in task_list if t.kind == kind)


@pytest.mark.parametrize("workload", tasks.WORKLOADS)
def test_same_seed_gives_identical_task_list(workload, tmp_path):
    def listing(seed, sub):
        workdir = tmp_path / sub
        workdir.mkdir()
        return [(t.kind, t.spec) for t in tasks.build_tasks(workload, seed, str(workdir))]

    assert listing(5, "a") == listing(5, "b")
    other = listing(6, "c")
    assert other != listing(5, "d")
    assert sorted(k for k, _ in other) == sorted(k for k, _ in listing(5, "e"))


def test_workloads_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == tasks.WORKLOADS


def test_end_to_end_names_match_benchmark_json():
    durations = [0.1 * (i + 1) for i in range(100)]
    metrics = run.end_to_end([1.0, 2.0, 3.0], 50, [sum(durations[:50]), sum(durations[50:])],
                             durations)
    assert set(metrics) == set(run.END_TO_END)
    assert run.END_TO_END == declared("end_to_end")


def test_traced_run_prints_benchmark_json_layer_metrics():
    assert run.LAYER_UNITS == declared("per_layer")
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "mc", "--seed", "3",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared("per_layer")
    layer = {k: v["value"] for k, v in result["metrics"].items()}
    assert layer["spectral.eig_sym.calls"] == 0 and layer["anneal.steps"] == 0
    assert layer["montecarlo.flips"] > 0 and layer["spins.energy_table.calls"] > 0


def test_perturbed_ground_vector_counts_as_failed(tmp_path, monkeypatch):
    task = first(tasks.build_tasks("bridge", 1, str(tmp_path)), "bridge-check-chain8")
    errors: list[str] = []
    run.run_pass([task], [], errors)
    assert errors == []

    original = spectral.spectrum_report

    def perturbed(matrix, keep_ground_vector=True):
        report = original(matrix, keep_ground_vector)
        ground = report.ground_vector.copy()
        ground[0] += 1e-6
        return spectral.SpectrumReport(report.eigenvalues, report.gap,
                                       report.matrix_dim, ground)

    monkeypatch.setattr(spectral, "spectrum_report", perturbed)
    run.run_pass([task], [], errors)
    assert len(errors) == 1 and "exit code 1" in errors[0]


def test_wrong_gap_counts_as_failed(tmp_path, monkeypatch):
    task = first(tasks.build_tasks("bridge", 1, str(tmp_path)), "relaxation_time")
    original = markov.relaxation_time
    monkeypatch.setattr(markov, "relaxation_time", lambda g: original(g) * (1 + 1e-8))
    errors: list[str] = []
    run.run_pass([task], [], errors)
    assert len(errors) == 1 and "relaxation_time" in errors[0]


def test_wrong_master_state_counts_as_failed(tmp_path, monkeypatch):
    task = first(tasks.build_tasks("anneal", 1, str(tmp_path)), "evolve_master10")
    errors: list[str] = []
    run.run_pass([task], [], errors)
    assert errors == []
    original = markov.evolve_master

    def one_step_short(generator, p0, t_final, dt, record_stride=None):
        return original(generator, p0, t_final - dt, dt, record_stride)

    monkeypatch.setattr(markov, "evolve_master", one_step_short)
    run.run_pass([task], [], errors)
    assert len(errors) == 1 and "magnetization" in errors[0]


def test_tracer_counts_then_leaves_unwrapped_code(tmp_path):
    task = first(tasks.build_tasks("bridge", 1, str(tmp_path)), "bridge-check-chain8")
    originals = {"spectral": spectral.eig_sym, "heatbath": markov.HeatBath.rates}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert spectral.eig_sym is not originals["spectral"]
        run.run_pass([task], [], [], tracer)
    finally:
        tracer.remove()
    # bridge-check decomposes the generator and the Hamiltonian, both 256-dimensional
    assert tracer.calls["spectral.eig_sym"] == 2
    assert tracer.counters["spectral.eig_sym.dim3_sum"] == 2 * 256.0 ** 3
    assert tracer.calls["cli.main"] == 1 and tracer.counters["cli.bytes_written"] > 0
    assert tracer.wrapped_names() == []
    assert spectral.eig_sym is originals["spectral"]
    assert markov.HeatBath.rates is originals["heatbath"]

    before = dict(tracer.calls)
    tracer.recording = True
    run.run_pass([task], [], [])
    tracer.recording = False
    assert dict(tracer.calls) == before


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "mc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
