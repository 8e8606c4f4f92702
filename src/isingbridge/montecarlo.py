"""Single-flip Monte Carlo annealing as a stochastic realization of the dynamics.

One sweep is N random-site flip attempts and advances the schedule by
one time unit, matching the unit attempt rate per site of the dense
generators. Heat-bath and Metropolis rates are probabilities (<= 1) and
are used directly as acceptance probabilities; all chains run in
lockstep from a single seeded RNG stream, so a report is reproducible
from (seed0, n_seeds, n_sweeps) alone.

A run takes one of two routes, chosen from its sizes alone. When the
chains outnumber the configurations (2^N <= n_seeds, within the N x 2^N
array cap), each sweep tabulates every flip's rate at its beta in one
`rule.rates` call on the flip system's (N, 2^N) deltas, and each attempt
reads its chains' rates from that table: the table evaluates no more
rates than the attempts would. Otherwise each attempt evaluates the rates
of its own n_seeds deltas. Both routes draw the same stream, per attempt
one `rng.integers(0, N, n_seeds)` for the sites and then one
`rng.random(n_seeds)` for the acceptances, and compare the same rates, so
every report is bit-identical whichever route runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spins
from .anneal import Schedule
from .markov import HeatBath, Metropolis, RateRule, _FlipSystem
from .spins import IsingModel


@dataclass(frozen=True)
class McReport:
    """Outcome of a batch of annealing chains."""

    success_fraction: float
    energy_trace: np.ndarray         # mean energy across chains, per sweep (incl. start)
    final_states: np.ndarray         # configuration index per chain
    final_energies: np.ndarray
    success: np.ndarray              # per-chain ground-state flag
    ground_energy: float
    n_sweeps: int
    n_seeds: int
    seed0: int
    state_histogram: np.ndarray | None = None  # visit counts after burn-in


def mc_simulated_annealing(model: IsingModel, rule: RateRule, schedule: Schedule,
                           n_sweeps: int, n_seeds: int, seed0: int,
                           ground_energy: float | None = None,
                           start: int | str = "random",
                           track_histogram: bool = False,
                           histogram_burn_in: int = 0) -> McReport:
    """Run n_seeds independent annealing chains for n_sweeps sweeps.

    The sweep index is the schedule time (clamped to t_final). `start`
    is either "random" (uniform initial configurations) or a fixed
    configuration index for every chain. A chain succeeds when its final
    energy matches the ground energy; the ground energy is found by
    exhaustive scan unless supplied. With `track_histogram` the states
    after each sweep from `histogram_burn_in` on are counted, so the
    burn-in must leave at least one sweep.
    """
    if not isinstance(rule, (HeatBath, Metropolis)):
        raise ValueError(
            f"Monte Carlo acceptance needs a rate that is a probability; "
            f"rule {rule!r} is not supported")
    n_seeds = spins._integer(n_seeds, "n_seeds")
    n_sweeps = spins._integer(n_sweeps, "n_sweeps")
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    if n_sweeps < 1:
        raise ValueError(f"n_sweeps must be >= 1, got {n_sweeps}")
    if histogram_burn_in and not track_histogram:
        raise ValueError("histogram_burn_in needs track_histogram=True")
    if not 0 <= histogram_burn_in < n_sweeps:
        raise ValueError(f"histogram_burn_in must lie in [0, n_sweeps = {n_sweeps}), "
                         f"got {histogram_burn_in}")
    if ground_energy is not None and not math.isfinite(ground_energy):
        raise ValueError(f"ground_energy must be finite, got {ground_energy}")

    n = model.n_spins
    size = model.n_states
    # a sweep's table costs N 2^N rates in one call, its attempts N n_seeds rates in N calls
    system = (_FlipSystem(model, rule)
              if size <= n_seeds and n <= spins._SPIN_CAPS["N x 2^N array"] else None)
    table = spins.energy_table(model) if system is None else system.energies
    if ground_energy is None:
        ground_energy = float(table.min())
    rng = np.random.default_rng(seed0)

    if start == "random":
        states = rng.integers(0, size, size=n_seeds, dtype=np.int64)
    else:
        start = spins._integer(start, "start")
        if not 0 <= start < size:
            raise ValueError(f"start index {start} out of range")
        states = np.full(n_seeds, start, dtype=np.int64)

    trace = np.empty(n_sweeps + 1)
    trace[0] = table[states].mean()
    histogram = np.zeros(size, dtype=np.int64) if track_histogram else None

    betas = schedule.beta(np.minimum(np.arange(n_sweeps, dtype=float), schedule.t_final))
    for sweep, beta in enumerate(betas):
        if system is None:
            for _ in range(n):
                sites = rng.integers(0, n, size=n_seeds)
                flipped = states ^ (np.int64(1) << sites)
                delta = table[flipped] - table[states]
                accept = rng.random(n_seeds) < rule.rates(beta, delta, n)
                states = np.where(accept, flipped, states)
        else:
            rates = system.rates(beta).ravel()  # rates[j * 2^N + c]: flip spin j out of c
            for _ in range(n):
                sites = rng.integers(0, n, size=n_seeds)
                accept = rng.random(n_seeds) < rates[sites * size + states]
                states ^= accept.astype(np.int64) << sites
        trace[sweep + 1] = table[states].mean()
        if histogram is not None and sweep >= histogram_burn_in:
            np.add.at(histogram, states, 1)

    final_energies = table[states]
    success = np.abs(final_energies - ground_energy) <= 1e-9 * max(1.0, abs(ground_energy))
    return McReport(success_fraction=float(success.mean()),
                    energy_trace=trace,
                    final_states=states.copy(),
                    final_energies=final_energies,
                    success=success,
                    ground_energy=ground_energy,
                    n_sweeps=n_sweeps, n_seeds=n_seeds, seed0=seed0,
                    state_histogram=histogram)


def empirical_distribution(report: McReport) -> np.ndarray:
    """Normalized visit histogram (requires track_histogram=True)."""
    if report.state_histogram is None:
        raise ValueError("run with track_histogram=True to collect a distribution")
    total = report.state_histogram.sum()
    return report.state_histogram / total


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """Total-variation distance between two distributions, 1-D arrays of one shape."""
    p, q = np.asarray(p), np.asarray(q)
    if p.ndim != 1 or p.shape != q.shape:
        raise ValueError(f"total variation needs two 1-D distributions of one shape, "
                         f"got shapes {p.shape} and {q.shape}")
    return 0.5 * float(np.abs(p - q).sum())
