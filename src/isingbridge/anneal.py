"""Time-dependent schedules and the three dynamical engines.

The master equation with a time-dependent temperature, dP/dt = W(t) P,
transforms under phi(t) = exp(beta(t) H0 / 2) P(t) (`_to_phi`) into an
imaginary-time flow -dphi/dt = (H(t) - beta_dot(t) H0 / 2) phi, and
replacing -d/dt by i d/dt gives the real-time flow. All three engines
run on `markov._rk4` with `markov._FlipSystem` stage operators W(beta(t))
and -s (H - beta_dot H0 / 2), s = 1 (imaginary) or i (real). `_rk4` keeps
the samples, every (n_steps // n_samples)-th step, and `_trajectory`
computes the ground-state probability and the overlap with the
instantaneous ground state, which for mapped Hamiltonians is the
square-root Boltzmann vector, once over the stacked samples.
Per-step guards: master |sum P - 1| <= 1e-8; imaginary renormalizes and
returns the cumulative log-norm decrement, which `_rk4` keeps with each
sample; real aborts if the norm leaves 1 by over 1e-4. Stability:
max(dt, h) * max|diagonal| of the engine's own stage operator <= 0.1,
max over 33 probe times: the outflow for the master engine,
|outflow - beta_dot H0 / 2| for the two Schrodinger engines.
`_rk4` asks for the stage operators of a chunk of steps in one call: the
schedule gives beta and beta_dot on the whole array of stage times, and the
flip system builds the operators for the whole array of stage betas at once.
`_trajectory` takes the betas of all sample times in one call too, so a run
calls its schedule once per chunk, not once per stage or sample time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spins
from .markov import RateRule, _check_probability, _FlipSystem, _rk4, _step_count
from .spins import IsingModel


class Schedule:
    """Nondecreasing inverse temperature beta(t) with closed-form derivative.

    `beta` and `beta_dot` are array closed forms: a float in gives a float
    out, and an array of times gives the array of values, equal bit for bit
    to the values at each time. On construction the base class checks
    t_final, then the subclass's own fields (`_check_fields`), then that beta
    and beta_dot are finite at t = 0 and t_final; beta is nondecreasing and
    beta_dot monotonic, so the two ends bound them on [0, t_final].
    """

    t_final: float

    def __post_init__(self):
        if not (math.isfinite(self.t_final) and self.t_final > 0):
            raise ValueError(f"t_final must be finite and positive, got {self.t_final}")
        self._check_fields()
        ends = np.array([0.0, self.t_final])
        for name, fn in (("beta", self.beta), ("beta_dot", self.beta_dot)):
            with np.errstate(all="ignore"):
                values = fn(ends)
            bad = ~np.isfinite(values)
            if bad.any():
                raise ValueError(f"schedule {name}({ends[bad][0]:g}) = {values[bad][0]} "
                                 f"is not finite")

    def _check_fields(self) -> None:
        """Reject invalid fields of the subclass, before beta is evaluated."""

    def beta(self, t):
        raise NotImplementedError

    def beta_dot(self, t):
        raise NotImplementedError


@dataclass(frozen=True)
class LinearBeta(Schedule):
    """beta(t) = beta0 + (beta1 - beta0) (t / t_final), divided first so that no
    product overflows between two finite ends."""

    beta0: float
    beta1: float
    t_final: float

    def _check_fields(self):
        if self.beta1 < self.beta0:
            raise ValueError("beta must be nondecreasing: beta1 < beta0")
        spins._check_beta(self.beta0, "beta0")
        spins._check_beta(self.beta1, "beta1")

    def beta(self, t):
        return self.beta0 + (self.beta1 - self.beta0) * (t / self.t_final)

    def beta_dot(self, t):
        return np.full(np.shape(t), (self.beta1 - self.beta0) / self.t_final)[()]


@dataclass(frozen=True)
class ExponentialBeta(Schedule):
    """beta(t) = beta0 * exp(rate * t)."""

    beta0: float
    rate: float
    t_final: float

    def _check_fields(self):
        spins._check_beta(self.beta0, "beta0")
        if not (math.isfinite(self.rate) and self.rate >= 0):
            raise ValueError(f"rate must be finite and nonnegative, got {self.rate}")

    def beta(self, t):
        return self.beta0 * np.exp(self.rate * t)

    def beta_dot(self, t):
        return self.rate * self.beta0 * np.exp(self.rate * t)


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

    def _check_fields(self):
        if not 0.0 < self.p < math.inf:
            raise ValueError(f"p must be finite and positive, got {self.p}")
        if not spins._integer(self.n_spins, "n_spins") >= 1:
            raise ValueError(f"n_spins must be at least 1, got {self.n_spins}")
        if not 1.0 <= self.t_offset < math.inf:
            raise ValueError(f"t_offset must be finite and >= 1, got {self.t_offset}")

    def beta(self, t):
        return np.log(t + self.t_offset) / (self.p * self.n_spins)

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


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a_i|b_i> for each row i of a and b (of a and b themselves when 1-D), a conjugated."""
    return (np.conj(a)[..., None, :] @ b[..., :, None])[..., 0, 0]


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of x (of x itself when 1-D), with a trailing unit axis."""
    return np.sqrt(np.real(_row_dots(x, x)))[..., None]


def _to_phi(p: np.ndarray, energies: np.ndarray, beta) -> np.ndarray:
    """phi = exp(beta H0 / 2) P as a unit vector, row by row for a stack of P and a
    1-D array of beta; a zero P stays zero."""
    phi = p * spins._tilt(energies, 0.5 * beta)
    norm = _row_norms(phi)
    return phi / np.where(norm > 0, norm, 1.0)


def _to_probability(phi: np.ndarray, energies: np.ndarray, beta) -> np.ndarray:
    """P = exp(-beta H0 / 2) phi, normalized to sum 1: the inverse of `_to_phi`."""
    p = phi * spins._tilt(energies, -0.5 * beta)
    return p / p.sum(axis=-1, keepdims=True)


def _unit_state(phi0: np.ndarray, dtype) -> np.ndarray:
    phi = np.array(phi0, dtype=dtype)
    nrm = np.linalg.norm(phi)
    if not 0.0 < nrm < math.inf:  # NaN too
        raise ValueError(f"phi0 must be nonzero and finite, got norm {nrm}")
    return phi / nrm


def _stride(schedule: Schedule, dt: float, n_samples: int) -> int:
    """The `_rk4` stride that keeps about n_samples samples after t = 0."""
    if not n_samples >= 1:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    return max(1, _step_count(schedule.t_final, dt) // n_samples)


def _trajectory(engine: str, model: IsingModel, energies: np.ndarray, schedule: Schedule,
                samples) -> AnnealTrajectory:
    """The trajectory of `_rk4`'s samples (times, states, log-norm decrements), with the
    ground probability and the overlap with sqrt(P0), the instantaneous ground state
    of the mapped Hamiltonian, at every sample."""
    times, states, log_norm = samples
    betas = schedule.beta(times)
    if engine == "master":
        probs, phi = states, _to_phi(states, energies, betas)
    elif engine == "imaginary":
        probs, phi = _to_probability(states, energies, betas), states / _row_norms(states)
    else:
        norm2 = np.real(_row_dots(states, states))[:, None]
        probs, phi = np.real(states * np.conj(states)) / norm2, states / np.sqrt(norm2)
    root_p0 = spins._tilt(energies, -0.5 * betas)
    root_p0 /= _row_norms(root_p0)
    return AnnealTrajectory(
        engine=engine, times=times, betas=betas, states=states,
        ground_probability=np.clip(probs[:, spins.ground_states(model)].sum(axis=1), 0.0, 1.0),
        overlap=np.abs(_row_dots(root_p0, phi)) ** 2,
        log_norm_decrement=log_norm)


def evolve_master_timedep(model: IsingModel, rule: RateRule, schedule: Schedule,
                          p0: np.ndarray, dt: float,
                          n_samples: int = 512) -> AnnealTrajectory:
    """Integrate dP/dt = W(beta(t)) P with the generator rebuilt per stage."""
    sys = _FlipSystem(model, rule)
    spins.check_probability_vector(p0)
    samples = _rk4(lambda times: sys.generator(schedule.beta(times)),
                   np.array(p0, dtype=float), schedule.t_final, dt,
                   _stride(schedule, dt, n_samples), _check_probability)
    return _trajectory("master", model, sys.energies, schedule, samples)


def evolve_imaginary_schrodinger(model: IsingModel, rule: RateRule, schedule: Schedule,
                                 phi0: np.ndarray, dt: float, n_samples: int = 512,
                                 include_beta_derivative: bool = True) -> AnnealTrajectory:
    """Integrate -dphi/dt = (H(t) - beta_dot(t) H0 / 2) phi, renormalizing per step.

    The norm decrement is accumulated and sampled; only the state
    direction carries the master-equation correspondence. Setting
    include_beta_derivative=False drops the beta_dot term, reproducing
    the stationary-mapping approximation.
    """
    sys = _FlipSystem(model, rule)
    phi = _unit_state(phi0, float)
    log_decrement = 0.0

    def on_step(step, n_steps, t, phi):
        nonlocal log_decrement
        nrm = np.linalg.norm(phi)
        phi /= nrm
        log_decrement -= math.log(nrm)
        return log_decrement

    def operators_at(times):
        beta_dot = schedule.beta_dot(times) if include_beta_derivative else 0.0
        return sys.hamiltonian(schedule.beta(times), beta_dot, -1.0)

    samples = _rk4(operators_at, phi, schedule.t_final, dt, _stride(schedule, dt, n_samples),
                   on_step)
    return _trajectory("imaginary", model, sys.energies, schedule, samples)


def evolve_real_schrodinger(model: IsingModel, rule: RateRule, schedule: Schedule,
                            phi0: np.ndarray, dt: float,
                            n_samples: int = 512) -> AnnealTrajectory:
    """Integrate i dphi/dt = (H(t) - beta_dot(t) H0 / 2) phi on complex states.

    The norm must stay within 1e-4 of 1 or the run aborts with a dt
    suggestion; at reasonable dt it is conserved to better than 1e-6.
    """
    sys = _FlipSystem(model, rule)
    phi = _unit_state(phi0, complex)

    def on_step(step, n_steps, t, phi):
        drift = abs(np.linalg.norm(phi) - 1.0)
        if not drift <= 1e-4:
            raise RuntimeError(
                f"norm drifted by {drift:.3g} at t={t}; reduce dt "
                f"(try dt <= {schedule.t_final / n_steps / 4:.3g})")

    samples = _rk4(lambda times: sys.hamiltonian(schedule.beta(times),
                                                 schedule.beta_dot(times), -1j),
                   phi, schedule.t_final, dt, _stride(schedule, dt, n_samples), on_step)
    return _trajectory("real", model, sys.energies, schedule, samples)


def _mapped_master_states(master: AnnealTrajectory, imaginary: AnnealTrajectory,
                          model: IsingModel):
    """The master states mapped to unit phi, and the imaginary states, as two stacks."""
    if master.n_samples != imaginary.n_samples or \
            np.abs(master.times - imaginary.times).max() > 1e-12:
        raise ValueError("trajectories must share their sample times")
    return _to_phi(master.states, spins.energy_table(model), master.betas), imaginary.states


def master_imaginary_deviation(master: AnnealTrajectory,
                               imaginary: AnnealTrajectory,
                               model: IsingModel) -> float:
    """Max direction mismatch between the transformed master and imaginary runs.

    For every shared sample, maps the probability vector through
    exp(beta H0 / 2), normalizes, and returns the largest
    1 - |cos| against the imaginary-time state.
    """
    mapped, phi = _mapped_master_states(master, imaginary, model)
    return float(np.max(1.0 - np.abs(_row_dots(mapped, phi)), initial=0.0))


def master_imaginary_state_difference(master: AnnealTrajectory,
                                      imaginary: AnnealTrajectory,
                                      model: IsingModel) -> float:
    """Max Euclidean distance between the transformed master and imaginary states.

    Linear in the state error, unlike the cosine deviation (which is
    quadratic and bottoms out at roundoff), so this is the right measure
    for integrator-order checks.
    """
    mapped, phi = _mapped_master_states(master, imaginary, model)
    return float(np.max(_row_norms(mapped - phi), initial=0.0))
