"""Time-dependent schedules and the three dynamical engines.

The master equation with a time-dependent temperature, dP/dt = W(t) P,
transforms under phi(t) = exp(beta(t) H0 / 2) P(t) (`_to_phi`) into an
imaginary-time flow -dphi/dt = (H(t) - beta_dot(t) H0 / 2) phi, and
replacing -d/dt by i d/dt gives the real-time flow. All three engines
run on `markov._rk4` with `markov._FlipSystem` stage operators W(beta(t))
and -s (H - beta_dot H0 / 2), s = 1 (imaginary) or i (real), and sample
ground-state probability and overlap with the instantaneous ground state,
which for mapped Hamiltonians is the square-root Boltzmann vector.
Per-step guards: master |sum P - 1| <= 1e-8; imaginary renormalizes and
accumulates the log-norm decrement; real aborts if the norm leaves 1 by
over 1e-4. Stability: max(dt, h) * max|diagonal| of the engine's own stage
operator <= 0.1, max over 33 probe times: the outflow for the master
engine, |outflow - beta_dot H0 / 2| for the two Schrodinger engines.
`_rk4` asks for the stage operators of a chunk of steps in one call, and
the flip system builds them for the whole array of stage betas at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spins
from .markov import RateRule, _check_probability, _FlipSystem, _rk4
from .spins import IsingModel


class Schedule:
    """Nondecreasing inverse temperature beta(t) with closed-form derivative."""

    t_final: float

    def __post_init__(self):
        if not (math.isfinite(self.t_final) and self.t_final > 0):
            raise ValueError(f"t_final must be finite and positive, got {self.t_final}")

    def beta(self, t: float) -> float:
        raise NotImplementedError

    def beta_dot(self, t: float) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class LinearBeta(Schedule):
    """beta(t) = beta0 + (beta1 - beta0) t / t_final."""

    beta0: float
    beta1: float
    t_final: float

    def __post_init__(self):
        super().__post_init__()
        if self.beta1 < self.beta0:
            raise ValueError("beta must be nondecreasing: beta1 < beta0")
        spins._check_beta(self.beta0, "beta0")
        spins._check_beta(self.beta1, "beta1")

    def beta(self, t):
        return self.beta0 + (self.beta1 - self.beta0) * t / self.t_final

    def beta_dot(self, t):
        return (self.beta1 - self.beta0) / self.t_final


@dataclass(frozen=True)
class ExponentialBeta(Schedule):
    """beta(t) = beta0 * exp(rate * t)."""

    beta0: float
    rate: float
    t_final: float

    def __post_init__(self):
        super().__post_init__()
        spins._check_beta(self.beta0, "beta0")
        if not (math.isfinite(self.rate) and self.rate >= 0):
            raise ValueError(f"rate must be finite and nonnegative, got {self.rate}")

    def beta(self, t):
        return self.beta0 * math.exp(self.rate * t)

    def beta_dot(self, t):
        return self.rate * self.beta0 * math.exp(self.rate * t)


@dataclass(frozen=True)
class GemanGeman(Schedule):
    """Logarithmic growth beta(t) = log(t + t_offset) / (p * N).

    The offset keeps beta finite at t = 0; p is a caller-chosen constant
    of order the largest local field.
    """

    p: float
    n_spins: int
    t_final: float
    t_offset: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if not self.p > 0:
            raise ValueError(f"p must be positive, got {self.p}")
        if not self.t_offset >= 1.0:
            raise ValueError(f"t_offset must be >= 1, got {self.t_offset}")

    def beta(self, t):
        return math.log(t + self.t_offset) / (self.p * self.n_spins)

    def beta_dot(self, t):
        return 1.0 / ((t + self.t_offset) * self.p * self.n_spins)


def frozen_schedule(beta: float, t_final: float) -> LinearBeta:
    """Constant-temperature schedule."""
    return LinearBeta(beta, beta, t_final)


@dataclass(frozen=True)
class AnnealTrajectory:
    """Sampled state history of one annealing run."""

    engine: str
    times: np.ndarray
    betas: np.ndarray
    states: np.ndarray              # (n_samples, 2^N), real or complex
    ground_probability: np.ndarray  # mass on the model's ground configurations
    overlap: np.ndarray             # |<instantaneous ground | state>|^2
    log_norm_decrement: np.ndarray  # cumulative -log of raw norm (imaginary engine)

    @property
    def n_samples(self) -> int:
        return self.times.size


def _to_phi(p: np.ndarray, energies: np.ndarray, beta: float) -> np.ndarray:
    """phi = exp(beta H0 / 2) P as a unit vector; a zero P stays zero."""
    phi = p * spins._tilt(energies, 0.5 * beta)
    norm = np.linalg.norm(phi)
    return phi / norm if norm > 0 else phi


def _to_probability(phi: np.ndarray, energies: np.ndarray, beta: float) -> np.ndarray:
    """P = exp(-beta H0 / 2) phi, normalized to sum 1: the inverse of `_to_phi`."""
    p = phi * spins._tilt(energies, -0.5 * beta)
    return p / p.sum()


def _at(fn, times: np.ndarray) -> np.ndarray:
    """fn(t) for each of the times, as an array."""
    return np.array([fn(t) for t in times.tolist()])


def _unit_state(phi0: np.ndarray, dtype) -> np.ndarray:
    phi = np.array(phi0, dtype=dtype)
    nrm = np.linalg.norm(phi)
    if nrm == 0:
        raise ValueError("phi0 must be nonzero")
    return phi / nrm


def evolve_master_timedep(model: IsingModel, rule: RateRule, schedule: Schedule,
                          p0: np.ndarray, dt: float,
                          n_samples: int = 512) -> AnnealTrajectory:
    """Integrate dP/dt = W(beta(t)) P with the generator rebuilt per stage."""
    sys = _FlipSystem(model, rule, "anneal engine")
    spins.check_probability_vector(p0)
    p = np.array(p0, dtype=float)
    samples = _SampleBuffer(model, sys.energies, "master", schedule, n_samples, p)

    def on_step(step, n_steps, t, p):
        _check_probability(p, t)
        samples.at_step(step, n_steps, t, p)

    _rk4(lambda times: sys.generator(_at(schedule.beta, times)), p, schedule.t_final, dt,
         on_step)
    return samples.build()


def evolve_imaginary_schrodinger(model: IsingModel, rule: RateRule, schedule: Schedule,
                                 phi0: np.ndarray, dt: float, n_samples: int = 512,
                                 include_beta_derivative: bool = True) -> AnnealTrajectory:
    """Integrate -dphi/dt = (H(t) - beta_dot(t) H0 / 2) phi, renormalizing per step.

    The norm decrement is accumulated and sampled; only the state
    direction carries the master-equation correspondence. Setting
    include_beta_derivative=False drops the beta_dot term, reproducing
    the stationary-mapping approximation.
    """
    sys = _FlipSystem(model, rule, "anneal engine")
    phi = _unit_state(phi0, float)
    log_decrement = 0.0
    samples = _SampleBuffer(model, sys.energies, "imaginary", schedule, n_samples, phi)
    beta_dot = schedule.beta_dot if include_beta_derivative else lambda t: 0.0

    def on_step(step, n_steps, t, phi):
        nonlocal log_decrement
        nrm = np.linalg.norm(phi)
        phi /= nrm
        log_decrement -= math.log(nrm)
        samples.at_step(step, n_steps, t, phi, log_decrement)

    _rk4(lambda times: sys.hamiltonian(_at(schedule.beta, times), _at(beta_dot, times), -1.0),
         phi, schedule.t_final, dt, on_step)
    return samples.build()


def evolve_real_schrodinger(model: IsingModel, rule: RateRule, schedule: Schedule,
                            phi0: np.ndarray, dt: float,
                            n_samples: int = 512) -> AnnealTrajectory:
    """Integrate i dphi/dt = (H(t) - beta_dot(t) H0 / 2) phi on complex states.

    The norm must stay within 1e-4 of 1 or the run aborts with a dt
    suggestion; at reasonable dt it is conserved to better than 1e-6.
    """
    sys = _FlipSystem(model, rule, "anneal engine")
    phi = _unit_state(phi0, complex)
    samples = _SampleBuffer(model, sys.energies, "real", schedule, n_samples, phi)

    def on_step(step, n_steps, t, phi):
        drift = abs(np.linalg.norm(phi) - 1.0)
        if not drift <= 1e-4:
            raise RuntimeError(
                f"norm drifted by {drift:.3g} at t={t}; reduce dt "
                f"(try dt <= {schedule.t_final / n_steps / 4:.3g})")
        samples.at_step(step, n_steps, t, phi)

    _rk4(lambda times: sys.hamiltonian(_at(schedule.beta, times),
                                       _at(schedule.beta_dot, times), -1j),
         phi, schedule.t_final, dt, on_step)
    return samples.build()


class _SampleBuffer:
    """Collects per-sample diagnostics for an engine run, from its initial state on."""

    def __init__(self, model: IsingModel, energies: np.ndarray, engine: str,
                 schedule: Schedule, n_samples: int, initial: np.ndarray):
        if not n_samples >= 1:
            raise ValueError(f"n_samples must be positive, got {n_samples}")
        self.energies = energies
        self.ground = spins.ground_states(model)
        self.engine = engine
        self.schedule = schedule
        self.n_samples = n_samples
        self.times, self.betas, self.states = [], [], []
        self.ground_probability, self.overlap, self.log_norm = [], [], []
        self.add(0.0, initial)

    def at_step(self, step: int, n_steps: int, t: float, state: np.ndarray, log_norm=0.0):
        """Record every (n_steps // n_samples)-th step and the last."""
        stride = max(1, n_steps // self.n_samples)
        if step % stride == 0 or step == n_steps:
            self.add(t, state, log_norm)

    def add(self, t: float, state: np.ndarray, log_norm: float = 0.0):
        beta = self.schedule.beta(t)
        if self.engine == "master":
            probs = state
            phi_dir = _to_phi(state, self.energies, beta)
        elif self.engine == "imaginary":
            probs = _to_probability(state, self.energies, beta)
            phi_dir = state / np.linalg.norm(state)
        else:
            norm2 = float(np.real(np.vdot(state, state)))
            probs = np.real(state * np.conj(state)) / norm2
            phi_dir = state / math.sqrt(norm2)
        # instantaneous ground state of the mapped Hamiltonian, sqrt(P0)
        ground_vec = spins._tilt(self.energies, -0.5 * beta)
        ground_vec /= np.linalg.norm(ground_vec)
        self.times.append(t)
        self.betas.append(beta)
        self.states.append(np.array(state))
        self.ground_probability.append(
            float(np.clip(probs[self.ground].sum(), 0.0, 1.0)))
        self.overlap.append(float(np.abs(np.vdot(ground_vec, phi_dir)) ** 2))
        self.log_norm.append(log_norm)

    def build(self) -> AnnealTrajectory:
        return AnnealTrajectory(
            engine=self.engine,
            times=np.array(self.times),
            betas=np.array(self.betas),
            states=np.array(self.states),
            ground_probability=np.array(self.ground_probability),
            overlap=np.array(self.overlap),
            log_norm_decrement=np.array(self.log_norm),
        )


def _mapped_master_states(master: AnnealTrajectory, imaginary: AnnealTrajectory,
                          model: IsingModel):
    if master.n_samples != imaginary.n_samples or \
            np.abs(master.times - imaginary.times).max() > 1e-12:
        raise ValueError("trajectories must share their sample times")
    energies = spins.energy_table(model)
    for p, phi, beta in zip(master.states, imaginary.states, master.betas):
        yield _to_phi(p, energies, beta), phi


def master_imaginary_deviation(master: AnnealTrajectory,
                               imaginary: AnnealTrajectory,
                               model: IsingModel) -> float:
    """Max direction mismatch between the transformed master and imaginary runs.

    For every shared sample, maps the probability vector through
    exp(beta H0 / 2), normalizes, and returns the largest
    1 - |cos| against the imaginary-time state.
    """
    worst = 0.0
    for mapped, phi in _mapped_master_states(master, imaginary, model):
        cos = abs(float(np.real(np.vdot(mapped, phi))))
        worst = max(worst, 1.0 - cos)
    return worst


def master_imaginary_state_difference(master: AnnealTrajectory,
                                      imaginary: AnnealTrajectory,
                                      model: IsingModel) -> float:
    """Max Euclidean distance between the transformed master and imaginary states.

    Linear in the state error, unlike the cosine deviation (which is
    quadratic and bottoms out at roundoff), so this is the right measure
    for integrator-order checks.
    """
    worst = 0.0
    for mapped, phi in _mapped_master_states(master, imaginary, model):
        worst = max(worst, float(np.linalg.norm(mapped - phi)))
    return worst
