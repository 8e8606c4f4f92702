"""Continuous-time single-spin-flip Markov generators and the master equation.

Rates follow the factorized form W[dest, src] = w * exp(-beta*delta/2) with
delta = H0(dest) - H0(src) and a symmetric factor w fixed by the update
rule. Time is normalized to one flip attempt per site per unit time, so
relaxation times are directly comparable with the spectral gap of the
mapped Hamiltonian.

`_FlipSystem` gives W and the mapped H as one single-flip operator. `_rk4`
is the one RK4 driver of `evolve_master` and the three `anneal` engines;
both master engines check |sum P - 1| <= 1e-8 after every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import spins
from .spins import IsingModel


def _logistic(x):
    """1 / (1 + exp(x)), overflow-safe for |x| up to ~1e3."""
    x = np.asarray(x, dtype=float)
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, ex, 1.0) / (1.0 + ex)


def _half_sech(x):
    """1 / (2 cosh(x)), overflow-safe: exp(-|x|) / (1 + exp(-2|x|))."""
    ax = np.abs(np.asarray(x, dtype=float))
    ex = np.exp(-ax)
    return ex / (1.0 + ex * ex)


class RateRule:
    """Base class for single-flip rate rules."""

    name = "abstract"

    def rates(self, beta: float, delta, n_spins: int | None = None):
        """Transition rates W[dest,src] for energy changes `delta`."""
        raise NotImplementedError

    def weights(self, beta: float, delta, n_spins: int | None = None):
        """Symmetric factor w, even in delta."""
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}()"


class HeatBath(RateRule):
    """rate = exp(-beta*delta/2) / (exp(beta*delta/2) + exp(-beta*delta/2))."""

    name = "heatbath"

    def rates(self, beta, delta, n_spins=None):
        return _logistic(beta * np.asarray(delta, dtype=float))

    def weights(self, beta, delta, n_spins=None):
        return _half_sech(0.5 * beta * np.asarray(delta, dtype=float))


class Metropolis(RateRule):
    """rate = min(1, exp(-beta*delta))."""

    name = "metropolis"

    def rates(self, beta, delta, n_spins=None):
        return np.exp(-np.maximum(0.0, beta * np.asarray(delta, dtype=float)))

    def weights(self, beta, delta, n_spins=None):
        return np.exp(-0.5 * np.abs(beta * np.asarray(delta, dtype=float)))


@dataclass(frozen=True, repr=False)
class UniformRate(RateRule):
    """Configuration-independent symmetric factor w = exp(-p*N)."""

    p: float

    name = "uniform"

    def __post_init__(self):
        if not self.p > 0:
            raise ValueError(f"uniform rate constant p must be positive, got {self.p}")

    def _w(self, n_spins):
        if n_spins is None:
            raise ValueError("uniform rule needs the spin count to evaluate w = exp(-p*N)")
        return math.exp(-self.p * n_spins)

    def rates(self, beta, delta, n_spins=None):
        return self._w(n_spins) * np.exp(-0.5 * beta * np.asarray(delta, dtype=float))

    def weights(self, beta, delta, n_spins=None):
        return np.full_like(np.asarray(delta, dtype=float), self._w(n_spins))

    def __repr__(self):
        return f"UniformRate(p={self.p})"


HEAT_BATH = HeatBath()
METROPOLIS = Metropolis()


def parse_rule(text: str) -> RateRule:
    """Parse 'heatbath' | 'metropolis' | 'uniform:P' into a rule object."""
    text = text.strip().lower()
    if text == "heatbath":
        return HEAT_BATH
    if text == "metropolis":
        return METROPOLIS
    if text.startswith("uniform:"):
        return UniformRate(float(text.split(":", 1)[1]))
    raise ValueError(f"unknown rate rule {text!r}")


def local_rate(rule: RateRule, beta: float, delta: float,
               n_spins: int | None = None) -> tuple[float, float]:
    """Rate and symmetric factor for a single flip with energy change `delta`.

    delta is H0(destination) - H0(source). Returns (rate, w) where
    rate = w * exp(-beta*delta/2).
    """
    spins._check_beta(beta)
    rate = float(rule.rates(beta, delta, n_spins))
    w = float(rule.weights(beta, delta, n_spins))
    return rate, w


@dataclass(frozen=True)
class MarkovGenerator:
    """Dense transition-rate matrix, column-indexed by source configuration.

    Off-diagonal entries are nonnegative single-flip rates; each diagonal
    entry is minus its column's off-diagonal sum, so columns sum to zero.
    `energies` is the H0 table used for detailed balance and for the
    isospectral symmetrization. Immutable after construction.
    """

    matrix: np.ndarray
    beta: float
    energies: np.ndarray
    n_spins: int
    rule: RateRule | None = None
    model: IsingModel | None = None

    def __post_init__(self):
        self.matrix.setflags(write=False)
        self.energies.setflags(write=False)


class _FlipOperator(NamedTuple):
    """A[c, c] = diag[c], A[c, flips[j, c]] = off[j, c]; calling it applies A, dense() writes A."""

    diag: np.ndarray
    off: np.ndarray
    flips: np.ndarray

    def __call__(self, y: np.ndarray) -> np.ndarray:
        return self.diag * y + (self.off * y[self.flips]).sum(axis=0)

    def dense(self) -> np.ndarray:
        matrix = np.diag(self.diag.astype(np.result_type(self.diag, self.off, float)))
        matrix[np.arange(self.diag.size), self.flips] = self.off
        return matrix


def _flip_table(n_spins: int) -> np.ndarray:
    """flips[j, c] = c with bit j toggled, for every configuration c."""
    return np.arange(1 << n_spins)[None, :] ^ (1 << np.arange(n_spins))[:, None]


class _FlipSystem:
    """H0, flips and deltas = H0[flips] - H0 of a model under a rule; `cap` is its spin cap."""

    def __init__(self, model: IsingModel, rule: RateRule, cap: str = "dense matrix"):
        spins._check_spins(model.n_spins, cap)
        self.rule = rule
        self.n = model.n_spins
        self.energies = spins.energy_table(model)
        self.flips = _flip_table(self.n)
        self.deltas = self.energies[self.flips] - self.energies[None, :]

    def rates(self, beta: float) -> np.ndarray:
        """rates[j, c]: rate of flipping spin j out of configuration c."""
        return np.asarray(self.rule.rates(beta, self.deltas, self.n))

    def generator(self, beta: float) -> _FlipOperator:
        """W: minus the outflow on the diagonal, the in-rates W[c, flip_j(c)] along the flips."""
        rates = self.rates(beta)
        return _FlipOperator(-rates.sum(axis=0), np.take_along_axis(rates, self.flips, axis=1),
                             self.flips)

    def hamiltonian(self, beta: float, beta_dot: float = 0.0, scale=1.0) -> _FlipOperator:
        """scale * (H - beta_dot H0 / 2); H has the outflow on the diagonal, -w along the flips."""
        diag = self.rates(beta).sum(axis=0) - 0.5 * beta_dot * self.energies
        off = -np.asarray(self.rule.weights(beta, self.deltas, self.n))
        return _FlipOperator(scale * diag, scale * off, self.flips)


def build_generator(model: IsingModel, beta: float, rule: RateRule) -> MarkovGenerator:
    """Assemble the dense generator for single-flip dynamics at fixed beta.

    One attempt channel per site with unit attempt rate; columns sum
    to zero by construction.
    """
    spins._check_beta(beta)
    system = _FlipSystem(model, rule)
    return MarkovGenerator(matrix=system.generator(beta).dense(), beta=float(beta),
                           energies=system.energies, n_spins=system.n, rule=rule, model=model)


def stationary_distribution(generator: MarkovGenerator) -> np.ndarray:
    """Boltzmann distribution at the generator's temperature, from its H0 table."""
    w = np.exp(-generator.beta * (generator.energies - generator.energies.min()))
    return w / w.sum()


def detailed_balance_residual(generator: MarkovGenerator) -> float:
    """Max relative asymmetry of equilibrium fluxes W[a,b] P0[b] vs W[b,a] P0[a]."""
    p0 = stationary_distribution(generator)
    flux = generator.matrix * p0[None, :]
    np.fill_diagonal(flux, 0.0)
    scale = np.abs(flux).max()
    if scale == 0.0:
        return 0.0
    return float(np.abs(flux - flux.T).max() / scale)


@dataclass(frozen=True)
class MasterTrajectory:
    """Sampled solution of dP/dt = W P."""

    times: np.ndarray
    states: np.ndarray  # (n_samples, 2^N)

    def __iter__(self):
        return iter(zip(self.times, self.states))


def _rk4(operator_at, y: np.ndarray, t_final: float, dt: float, max_rate: float, on_step):
    """Integrate dy/dt = A(t) y over [0, t_final] in round(t_final / dt) RK4 steps.

    operator_at(t) returns y -> A(t) y, built at 0, (step - 0.5) h and step h;
    on_step(step, n_steps, step * h, y) gets each new y and may edit it in place.
    Raises ValueError for a dt that is not finite and positive, and when
    max(dt, h) * max_rate > 0.1 (max_rate: largest total outflow rate).
    """
    if not (math.isfinite(dt) and dt > 0 and math.isfinite(t_final)):
        raise ValueError("dt must be finite and positive and t_final finite, "
                         f"got dt={dt}, t_final={t_final}")
    n_steps = max(1, int(round(t_final / dt)))
    h = t_final / n_steps
    margin = max(dt, h) * max_rate
    if not margin <= 0.1:  # NaN rates fail too
        raise ValueError(
            f"dt={dt} too large for stability: max(dt, h) * max rate = {margin:.3g} "
            f"> 0.1{_stable_dt_hint(t_final, max_rate)}")
    start = operator_at(0.0)
    for step in range(1, n_steps + 1):
        mid = operator_at((step - 0.5) * h)
        end = operator_at(step * h)
        k1 = start(y)
        k2 = mid(y + 0.5 * h * k1)
        k3 = mid(y + 0.5 * h * k2)
        k4 = end(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        on_step(step, n_steps, step * h, y)
        start = end


def _stable_dt_hint(t_final: float, max_rate: float) -> str:
    """'; use dt <= x' with x rounded down to 3 digits, so that both dt and h pass."""
    limit = 0.1 / max_rate
    if not (math.isfinite(limit) and limit > 0):
        return ""
    limit = t_final / math.ceil(t_final / limit) if t_final > 0 else limit
    scale = 10.0 ** (math.floor(math.log10(limit)) - 2)
    return f"; use dt <= {math.floor(limit / scale) * scale:.3g}"


def _check_probability(p: np.ndarray, t: float) -> None:
    """Probability guard of both master engines: |sum P - 1| <= 1e-8."""
    total = p.sum()
    if not abs(total - 1.0) <= 1e-8:
        raise RuntimeError(f"probability drifted to {total} at t={t}; reduce dt")


def evolve_master(generator: MarkovGenerator, p0: np.ndarray, t_final: float,
                  dt: float, record_stride: int | None = None) -> MasterTrajectory:
    """Integrate the fixed-temperature master equation, W constant, with `_rk4`.

    Requires max(dt, h) * max|diagonal| <= 0.1. Probability conservation
    is asserted (not enforced) after every step, to 1e-8.
    """
    spins.check_probability_vector(p0)
    w = generator.matrix
    times, states = [0.0], [np.array(p0, dtype=float)]

    def on_step(step, n_steps, t, p):
        _check_probability(p, t)
        stride = record_stride if record_stride is not None else max(1, n_steps // 1024)
        if step % stride == 0 or step == n_steps:
            times.append(t)
            states.append(p)

    _rk4(lambda t: w.__matmul__, states[0], t_final, dt,
         np.abs(np.diag(w)).max(), on_step)
    return MasterTrajectory(times=np.array(times), states=np.array(states))


def relaxation_time(generator: MarkovGenerator) -> float:
    """1/|lambda_1| from the slowest decaying mode of the generator.

    Eigenvalues come from the symmetric isospectral form computed by the
    spectral engine. A chain whose second eigenvalue vanishes (within
    1e-10) is reducible or degenerate and is rejected.
    """
    from . import spectral

    report = spectral.spectrum_of_generator(generator)
    lam1 = report.eigenvalues[-2]
    if abs(lam1) < 1e-10:
        raise ValueError(
            "generator is degenerate: second eigenvalue vanishes, "
            "no finite relaxation time")
    return 1.0 / abs(lam1)
