"""Span tracing for the benchmark, installed from outside the package.

`Tracer.install()` replaces every public function of each isingbridge
module (and the `rates`/`weights` methods of the rate rules) with a
wrapper that records a span around the call, and `Tracer.remove()` puts
the original objects back. Names rebound by `from x import y` inside the
package are patched as well, so a call reaches the wrapper whichever
module it goes through.

Spans are aggregated as they close rather than stored: per function the
call count and inclusive time of outermost calls; per layer the inclusive
time and the self time (span duration minus the time covered by child
spans). A few
functions also feed work counters (eigensolve dimension cubed, RK4 steps,
Monte Carlo flips, bytes written) computed from their arguments.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
import types
from collections import defaultdict

import isingbridge
from isingbridge import (anneal, cli, fermion, markov, montecarlo, quantum, reverse,
                         spectral, spins)

MODULES = {"spins": spins, "markov": markov, "quantum": quantum, "spectral": spectral,
           "fermion": fermion, "reverse": reverse, "anneal": anneal,
           "montecarlo": montecarlo, "cli": cli}

RULE_METHODS = ("rates", "weights")

ENGINES = {"evolve_master_timedep": "master",
           "evolve_imaginary_schrodinger": "imaginary",
           "evolve_real_schrodinger": "real"}

WRITERS = ("write_json", "write_csv", "dump_hamiltonian")

COUNTED = {"spectral.eig_sym", "markov.evolve_master", "montecarlo.mc_simulated_annealing",
           *(f"anneal.{fn}" for fn in ENGINES), *(f"cli.{fn}" for fn in WRITERS)}


def _rk4_steps(t_final: float, dt: float) -> int:
    """Step count of the package's fixed-step integrators."""
    return max(1, int(round(t_final / dt)))


class Tracer:
    """Installs span wrappers on the package and aggregates what they record."""

    def __init__(self):
        self.recording = False
        self._patches: list[tuple[object, str, object]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.layer_incl_s: dict[str, float] = defaultdict(float)
        self.layer_self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._child_time: list[float] = []
        self._depth: dict[str, int] = defaultdict(int)

    # -- aggregation -------------------------------------------------------

    def _count(self, name: str, bound: inspect.BoundArguments, result) -> None:
        args = bound.arguments
        if name == "spectral.eig_sym":
            dim = len(args["matrix"])
            self.counters["spectral.eig_sym.dim3_sum"] += float(dim) ** 3
        elif name == "markov.evolve_master":
            self.counters["markov.evolve_master.steps"] += _rk4_steps(
                args["t_final"], args["dt"])
        elif name.startswith("anneal.") and name[7:] in ENGINES:
            steps = _rk4_steps(args["schedule"].t_final, args["dt"])
            self.counters[f"anneal.{ENGINES[name[7:]]}.steps"] += steps
        elif name == "montecarlo.mc_simulated_annealing":
            self.counters["montecarlo.flips"] += (
                args["n_sweeps"] * args["model"].n_spins * args["n_seeds"])
            self.counters["montecarlo.chains"] += len(result.success)
            self.counters["montecarlo.ground_hits"] += int(result.success.sum())
        elif name.startswith("cli.") and name[4:] in WRITERS:
            self.counters["cli.bytes_written"] += os.path.getsize(args["path"])

    def _wrap(self, fn, name: str, layer: str):
        signature = inspect.signature(fn) if name in COUNTED else None
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            child = tracer._child_time
            depth = tracer._depth
            child.append(0.0)
            depth[name] += 1
            depth[layer] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                inner = child.pop()
                if child:
                    child[-1] += duration
                depth[name] -= 1
                depth[layer] -= 1
                tracer.calls[name] += 1
                tracer.layer_self_s[layer] += duration - inner
                if depth[name] == 0:
                    tracer.incl_s[name] += duration
                if depth[layer] == 0:
                    tracer.layer_incl_s[layer] += duration
            if signature is not None:
                tracer._count(name, signature.bind(*args, **kwargs), result)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def _targets(self):
        """(owner, attribute, original, span name, layer) for every traced callable."""
        for layer, module in MODULES.items():
            for attr, value in vars(module).items():
                if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    yield module, attr, value, f"{layer}.{attr}", layer
        for cls in vars(markov).values():
            if (isinstance(cls, type) and issubclass(cls, markov.RateRule)
                    and cls is not markov.RateRule):
                for attr in RULE_METHODS:
                    if attr in vars(cls):
                        yield cls, attr, vars(cls)[attr], f"markov.{attr}", "markov"

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for owner, attr, original, name, layer in self._targets():
            wrappers[id(original)] = self._wrap(original, name, layer)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrappers[id(original)])
        # names bound by `from .x import y` elsewhere in the package
        for module in (isingbridge, *MODULES.values()):
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def wrapped_names(self) -> list[str]:
        """Attributes that still hold a tracing wrapper (empty after remove())."""
        found = []
        for module in (isingbridge, *MODULES.values()):
            for attr, value in vars(module).items():
                if hasattr(value, "__perfbench_original__"):
                    found.append(f"{module.__name__}.{attr}")
                if isinstance(value, type):
                    found.extend(f"{module.__name__}.{value.__name__}.{m}"
                                 for m in RULE_METHODS
                                 if hasattr(vars(value).get(m), "__perfbench_original__"))
        return found
