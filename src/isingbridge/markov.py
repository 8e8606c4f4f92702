"""Continuous-time single-spin-flip Markov generators and the master equation.

A rate rule defines its rates W[dest, src] and nothing else. Each rule's
rates have the factorized form w * exp(-beta*delta/2) with
delta = H0(dest) - H0(src) and a factor w even in delta, so W is in
detailed balance and the mapped Hamiltonian hops by
-sqrt(W[a, b] W[b, a]) = -w, which `_FlipSystem.hamiltonian` takes from
the rates. Time is normalized to one flip attempt per site per unit time,
so relaxation times are directly comparable with the spectral gap of the
mapped Hamiltonian.

`_FlipOperator` is the one form of every W and H, written densely only when
read. `_FlipSystem` gives W and the mapped H in it, for one beta or stacked
over an array of stage betas. Its arrays hold N x 2^N entries, capped at 16
spins; `_FlipOperator.dense` is the one writer of a 2^N x 2^N matrix, capped
at 12. `relaxation_time` finds the gap of H by a deflated Lanczos solve
(`_lowest_eigenvalue`) that applies the operator and writes no dense matrix.
`_rk4` is the one RK4 driver of `evolve_master` and the three `anneal`
engines; it asks for the stage operators of a chunk of steps in one call,
and it is the one place that samples: it keeps t = 0, every stride-th step
and the last, and returns them stacked. Both master engines check
|sum P - 1| <= 1e-8 after every step.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import spins
from .spins import IsingModel

_TINY = np.finfo(float).tiny
SYMMETRY_TOL = 1e-8  # relative asymmetry allowed in a symmetric form or eigensolver input


def _logistic(x):
    """1 / (1 + exp(x)), overflow-safe for |x| up to ~1e3."""
    x = np.asarray(x, dtype=float)
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, ex, 1.0) / (1.0 + ex)


class RateRule:
    """Base class for single-flip rate rules."""

    name = "abstract"

    def rates(self, beta: float, delta, n_spins: int | None = None):
        """Transition rates W[dest,src] for energy changes `delta`."""
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}()"


class HeatBath(RateRule):
    """rate = exp(-beta*delta/2) / (exp(beta*delta/2) + exp(-beta*delta/2))."""

    name = "heatbath"

    def rates(self, beta, delta, n_spins=None):
        return _logistic(beta * np.asarray(delta, dtype=float))


class Metropolis(RateRule):
    """rate = min(1, exp(-beta*delta))."""

    name = "metropolis"

    def rates(self, beta, delta, n_spins=None):
        return np.exp(-np.maximum(0.0, beta * np.asarray(delta, dtype=float)))


@dataclass(frozen=True, repr=False)
class UniformRate(RateRule):
    """rate = w * exp(-beta*delta/2) with the configuration-independent w = exp(-p*N)."""

    p: float

    name = "uniform"

    def __post_init__(self):
        if not (math.isfinite(self.p) and self.p > 0):
            raise ValueError(f"uniform rate constant p must be finite and positive, got {self.p}")

    def _w(self, n_spins):
        if n_spins is None:
            raise ValueError("uniform rule needs the spin count to evaluate w = exp(-p*N)")
        w = math.exp(-self.p * n_spins)
        if w == 0.0:  # every rate would vanish: a frozen chain
            raise ValueError(f"uniform rate w = exp({-self.p * n_spins:g}) underflows to 0")
        return w

    def rates(self, beta, delta, n_spins=None):
        return self._w(n_spins) * np.exp(-0.5 * beta * np.asarray(delta, dtype=float))

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


class _FlipOperator:
    """A[c, c] = diag[c], A[c, flips[j, c]] = off[j, c], flips[j, c] = c ^ masks[j].

    The package's W and H use the masks 1 << j; `from_dense` reads any pattern.
    Calling it applies A, dense() writes A, and A - B takes the difference of two
    operators on one flip table. A leading stage axis on diag and off stacks one
    operator per stage, op[i] is stage i; without it, every stage.
    """

    __slots__ = ("diag", "off", "flips")

    def __init__(self, diag: np.ndarray, off: np.ndarray, flips: np.ndarray):
        self.diag, self.off, self.flips = diag, off, flips

    @classmethod
    def from_dense(cls, matrix) -> _FlipOperator:
        """A square matrix of power-of-two size. Its masks are the r ^ c where an entry
        has a set bit, so -0.0 and NaN are kept and dense() gives A back bit for bit."""
        matrix = np.ascontiguousarray(matrix, dtype=float)
        size = matrix.shape[0]
        if matrix.shape != (size, size) or size & (size - 1):
            raise ValueError(f"expected a square matrix of power-of-two size, "
                             f"got shape {matrix.shape}")
        rows, cols = np.nonzero(matrix.view(np.uint64))
        used = np.zeros(size, dtype=bool)
        used[rows ^ cols] = True
        states = np.arange(size)
        flips = states[None, :] ^ (np.flatnonzero(used[1:]) + 1)[:, None]  # 0: the diagonal
        return cls(matrix.diagonal().copy(), matrix[states, flips], flips)

    def __len__(self) -> int:  # rows of A, as len() of its matrix; stages are not items
        return self.diag.shape[-1]

    __iter__ = None

    def __getitem__(self, stage: int) -> _FlipOperator:
        if self.diag.ndim == 1:
            return self
        return _FlipOperator(self.diag[stage], self.off[stage], self.flips)

    def __call__(self, y: np.ndarray) -> np.ndarray:
        return self.diag * y + (self.off * y[self.flips]).sum(axis=0)

    def dense(self) -> np.ndarray:
        """The 2^N x 2^N matrix; raises ValueError above the dense-matrix spin cap."""
        spins._check_spins(self.diag.size.bit_length() - 1, "dense matrix")
        matrix = np.diag(self.diag.astype(np.result_type(self.diag, self.off, float)))
        matrix[np.arange(self.diag.size), self.flips] = self.off
        return matrix

    def __sub__(self, other: _FlipOperator) -> _FlipOperator:
        """A - B, entry by entry; A and B must share their flip table."""
        if not np.array_equal(self.flips, other.flips):
            raise ValueError("cannot subtract operators with different flip tables")
        return _FlipOperator(self.diag - other.diag, self.off - other.off, self.flips)

    def transpose(self) -> _FlipOperator:  # A^T[c, c ^ m] = A[c ^ m, c]
        return _FlipOperator(self.diag, np.take_along_axis(self.off, self.flips, axis=1),
                             self.flips)

    def max_abs(self) -> float:
        """max|A|, NaN when an entry is NaN."""
        return float(np.maximum(np.abs(self.diag).max(initial=0.0),
                                np.abs(self.off).max(initial=0.0)))

    def asymmetry(self) -> float:
        """max|A - A^T| / max|A|: 0 for A = 0, NaN when an entry is NaN or infinite."""
        scale = self.max_abs()
        if not 0.0 < scale < math.inf:
            return 0.0 if scale == 0.0 else math.nan
        return float(np.abs(self.off - self.transpose().off).max(initial=0.0) / scale)


class _OperatorField:
    """Base of the immutable types that hold an `operator` field; their spin count is
    read from the operator's size."""

    def __post_init__(self):
        for array in (self.operator.diag, self.operator.off, self.operator.flips):
            array.setflags(write=False)

    @classmethod
    def from_matrix(cls, matrix, **fields):
        """The instance whose operator is read from a dense matrix, with its other fields."""
        return cls(operator=_FlipOperator.from_dense(matrix), **fields)

    @property
    def n_spins(self) -> int:
        """N of the operator's 2^N configurations."""
        return self.operator.diag.size.bit_length() - 1

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """The dense matrix, written on first read, cached and read-only."""
        matrix = self.operator.dense()
        matrix.setflags(write=False)
        return matrix


@dataclass(frozen=True)
class MarkovGenerator(_OperatorField):
    """Transition-rate operator W, column-indexed by source configuration.

    Off-diagonal entries are nonnegative rates; each diagonal entry is
    minus its column's off-diagonal sum, so columns sum to zero.
    `energies` is the H0 table used for detailed balance and for the
    isospectral symmetrization, one entry per configuration. Immutable after
    construction.
    """

    operator: _FlipOperator
    beta: float
    energies: np.ndarray
    rule: RateRule | None = None

    def __post_init__(self):
        size = self.operator.diag.size
        if np.shape(self.energies) != (size,):
            raise ValueError(f"energies table has shape {np.shape(self.energies)}, "
                             f"expected ({size},) for the {size}-state generator")
        super().__post_init__()
        self.energies.setflags(write=False)


def _flip_table(n_spins: int) -> np.ndarray:
    """flips[j, c] = c with bit j toggled, for every configuration c."""
    return np.arange(1 << n_spins)[None, :] ^ (1 << np.arange(n_spins))[:, None]


def _stage_axis(values, trailing: int) -> np.ndarray:
    """A scalar, or a 1-D array of per-stage values, with `trailing` unit axes appended."""
    values = np.asarray(values, dtype=float)
    return values.reshape(values.shape + (1,) * trailing)


class _FlipSystem:
    """H0, flips and deltas = H0[flips] - H0 of a model under a rule, up to 16 spins.

    beta and beta_dot are a scalar or a 1-D array of stage values; an array
    gives every returned array a leading stage axis.
    """

    def __init__(self, model: IsingModel, rule: RateRule):
        spins._check_spins(model.n_spins, "N x 2^N array")
        self.rule = rule
        self.n = model.n_spins
        self.energies = spins.energy_table(model)
        self.flips = _flip_table(self.n)
        self.deltas = self.energies[self.flips] - self.energies[None, :]
        self._sites = np.arange(self.n)[:, None]

    def rates(self, beta) -> np.ndarray:
        """rates[..., j, c]: rate of flipping spin j out of configuration c."""
        return np.asarray(self.rule.rates(_stage_axis(beta, 2), self.deltas, self.n))

    def generator(self, beta) -> _FlipOperator:
        """W: minus the outflow on the diagonal, the in-rates W[c, flip_j(c)] along the flips."""
        rates = self.rates(beta)
        return _FlipOperator(-rates.sum(axis=-2), rates[..., self._sites, self.flips],
                             self.flips)

    def hamiltonian(self, beta, beta_dot=0.0, scale=1.0) -> _FlipOperator:
        """scale * (H - beta_dot H0 / 2); H has the outflow on the diagonal and the
        hopping H[c, c'] = -sqrt(W[c', c] * W[c, c']) along the flips.

        The root of the product is exact for equal rates (heat bath at delta = 0
        hops by exactly 1/2). Where the product falls below the normal range the
        roots are taken apart instead: a subnormal uniform w = exp(-p*N) squares
        to 0, but sqrt(w) * sqrt(w) keeps it.
        """
        rates = self.rates(beta)
        diag = rates.sum(axis=-2) - 0.5 * _stage_axis(beta_dot, 1) * self.energies
        reverse = rates[..., self._sites, self.flips]
        product = rates * reverse
        off = -np.where(product >= _TINY, np.sqrt(product),
                        np.sqrt(rates) * np.sqrt(reverse))
        return _FlipOperator(scale * diag, scale * off, self.flips)


def build_generator(model: IsingModel, beta: float, rule: RateRule) -> MarkovGenerator:
    """Assemble the generator for single-flip dynamics at fixed beta, in flip form.

    One attempt channel per site with unit attempt rate; columns sum
    to zero by construction.
    """
    spins._check_beta(beta)
    system = _FlipSystem(model, rule)
    return MarkovGenerator(operator=system.generator(beta), beta=float(beta),
                           energies=system.energies, rule=rule)


def stationary_distribution(generator: MarkovGenerator) -> np.ndarray:
    """Boltzmann distribution at the generator's temperature, from its H0 table."""
    w = spins._tilt(generator.energies, -generator.beta)
    return w / w.sum()


def detailed_balance_residual(generator: MarkovGenerator) -> float:
    """Max relative asymmetry of equilibrium fluxes W[a,b] P0[b] vs W[b,a] P0[a], a != b.

    Each flux is taken, up to one common factor, as S[a,b] * (r[a] * r[b]) with S
    the symmetric form and r = exp(-beta H0 / 2): equal to W[a,b] P0[b], but a P0
    entry that underflows cannot meet the finite rate out of it on one side only.
    """
    s = _symmetrize(generator)
    r = spins._tilt(generator.energies, -0.5 * generator.beta)
    return _FlipOperator(np.zeros_like(s.diag), s.off * (r * r[s.flips]), s.flips).asymmetry()


@dataclass(frozen=True)
class MasterTrajectory:
    """Sampled solution of dP/dt = W P."""

    times: np.ndarray
    states: np.ndarray  # (n_samples, 2^N)

    def __iter__(self):
        return iter(zip(self.times, self.states))


_CHUNK_ENTRIES = 2048  # // state size = RK4 steps per chunk; larger chunks fall out of cache


def _step_count(t_final: float, dt: float) -> int:
    """round(t_final / dt) RK4 steps, at least 1.

    Raises ValueError unless dt is finite and positive and t_final finite.
    """
    if not (math.isfinite(dt) and dt > 0 and math.isfinite(t_final)):
        raise ValueError("dt must be finite and positive and t_final finite, "
                         f"got dt={dt}, t_final={t_final}")
    return max(1, int(round(t_final / dt)))


def _rk4(operators_at, y: np.ndarray, t_final: float, dt: float, stride: int, on_step):
    """Integrate dy/dt = A(t) y over [0, t_final] in round(t_final / dt) RK4 steps,
    sampling y at t = 0, at every stride-th step and at the last.

    operators_at(times) returns the operators y -> A(t) y at a 1-D array of
    times as one stack: stack[i] is the operator at times[i], and stack.diag
    holds the diagonal of A. Each call asks for at most 2 * chunk times,
    chunk = _CHUNK_ENTRIES // y.size steps (at least 1): first 33 equally
    spaced probe times, then t = 0, then the times (step - 0.5) h, step h
    of each step of a chunk, interleaved.
    on_step(step, n_steps, step * h, y) gets each new y, may edit it in place, and
    returns a number kept with a sampled y (None keeps 0.0, as does t = 0).
    Returns (times, states, kept), the sampled y stacked as rows.
    Raises ValueError for a dt that is not finite and positive, and when
    max(dt, h) * max|diag A| > 0.1 at the probe times.
    """
    n_steps = _step_count(t_final, dt)
    h = t_final / n_steps
    chunk = max(1, _CHUNK_ENTRIES // y.size)
    probes = np.linspace(0.0, t_final, 33)
    max_rate = np.max([np.abs(operators_at(probes[i:i + 2 * chunk]).diag).max()
                       for i in range(0, probes.size, 2 * chunk)])
    margin = max(dt, h) * max_rate
    if not margin <= 0.1:  # NaN rates fail too
        raise ValueError(
            f"dt={dt} too large for stability: max(dt, h) * max rate = {margin:.3g} "
            f"> 0.1{_stable_dt_hint(t_final, max_rate)}")
    start = operators_at(np.zeros(1))[0]
    times, states, kept = [0.0], [y], [0.0]
    for first in range(1, n_steps + 1, chunk):
        steps = np.arange(first, min(first + chunk, n_steps + 1))
        stages = operators_at(np.column_stack(((steps - 0.5) * h, steps * h)).ravel())
        for i, step in enumerate(steps.tolist()):
            mid, end = stages[2 * i], stages[2 * i + 1]
            k1 = start(y)
            k2 = mid(y + 0.5 * h * k1)
            k3 = mid(y + 0.5 * h * k2)
            k4 = end(y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            value = on_step(step, n_steps, step * h, y)
            if step % stride == 0 or step == n_steps:
                times.append(step * h)
                states.append(y)
                kept.append(0.0 if value is None else value)
            start = end
    return np.array(times), np.array(states), np.array(kept)


def _stable_dt_hint(t_final: float, max_rate: float) -> str:
    """'; use dt <= x' with x rounded down to 3 digits, so that both dt and h pass."""
    limit = 0.1 / max_rate
    if not (math.isfinite(limit) and limit > 0):
        return ""
    limit = t_final / math.ceil(t_final / limit) if t_final > 0 else limit
    scale = 10.0 ** (math.floor(math.log10(limit)) - 2)
    return f"; use dt <= {math.floor(limit / scale) * scale:.3g}"


def _check_probability(step: int, n_steps: int, t: float, p: np.ndarray) -> None:
    """Probability guard of both master engines, an `_rk4` on_step: |sum P - 1| <= 1e-8."""
    total = p.sum()
    if not abs(total - 1.0) <= 1e-8:
        raise RuntimeError(f"probability drifted to {total} at t={t}; reduce dt")


def _symmetrize(generator: MarkovGenerator) -> _FlipOperator:
    """exp(beta*H0/2) W exp(-beta*H0/2), isospectral to W, and symmetric when W is in
    detailed balance with its energies; H is its negation.

    The exponential is taken only at nonzero rates, so no overflowed factor
    multiplies a zero rate.
    """
    w = generator.operator
    half = 0.5 * generator.beta * generator.energies
    factor = np.exp(half - half[w.flips], out=np.ones_like(w.off), where=w.off != 0)
    # + 0.0 writes a -0.0 outflow +0.0: every zero of the form is +0.0
    return _FlipOperator(w.diag + 0.0, factor * w.off, w.flips)


def _symmetric_form(generator: MarkovGenerator, tol: float) -> _FlipOperator:
    """`_symmetrize(generator)`, checked: raises ValueError beyond `tol` relative
    asymmetry, as W is then not in detailed balance with its energies."""
    symmetric = _symmetrize(generator)
    if not symmetric.asymmetry() <= tol:
        raise ValueError("generator is not in detailed balance with its energies: its "
                         f"symmetric form is not symmetric within {tol:g} relative tolerance")
    return symmetric


def evolve_master(generator: MarkovGenerator, p0: np.ndarray, t_final: float,
                  dt: float, record_stride: int | None = None) -> MasterTrajectory:
    """Integrate the fixed-temperature master equation, W constant, with `_rk4`.

    Records every record_stride-th step and the last (default: about 1024
    samples). Requires max(dt, h) * max|diagonal| <= 0.1. Probability
    conservation is asserted (not enforced) after every step, to 1e-8.
    """
    spins.check_probability_vector(p0)
    if record_stride is not None and not record_stride >= 1:
        raise ValueError(f"record_stride must be positive, got {record_stride}")
    stride = record_stride or max(1, _step_count(t_final, dt) // 1024)
    w = generator.operator
    times, states, _ = _rk4(lambda times: w, np.array(p0, dtype=float), t_final, dt, stride,
                            _check_probability)
    return MasterTrajectory(times=times, states=states)


def _project_out(vector: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """vector minus its components along the orthonormal rows, in two Gram-Schmidt passes."""
    for _ in range(2):
        vector = vector - rows.T @ (rows @ vector)
    return vector


def _lowest_ritz_pair(alpha: list, beta: list) -> tuple[float, float]:
    """Lowest eigenvalue theta of the Lanczos tridiagonal and its Ritz residual.

    alpha is the diagonal; beta[:-1] the off-diagonal and beta[-1] the norm
    of the next Lanczos vector, so the residual is beta[-1] * |s[-1]| for
    the unit eigenvector s of theta. s comes from two inverse-iteration
    solves shifted just below theta, where the shifted matrix is positive
    definite.
    """
    t = np.diag(alpha) + np.diag(beta[:-1], 1) + np.diag(beta[:-1], -1)
    theta = float(np.linalg.eigvalsh(t)[0])
    shifted = t - (theta - 1e-12 * max(1.0, np.abs(t).max())) * np.eye(len(alpha))
    s = np.ones(len(alpha))
    for _ in range(2):
        s = np.linalg.solve(shifted, s)
        s /= np.linalg.norm(s)
    return theta, beta[-1] * abs(s[-1])


def _lowest_eigenvalue(apply, deflate: np.ndarray, tol: float) -> float:
    """Lowest eigenvalue of a symmetric operator on the complement of `deflate`'s rows.

    Lanczos with full reorthogonalisation (Lanczos 1950; Golub & Van Loan,
    Matrix Computations, ch. 10). apply(x) returns A x for a vector x;
    deflate holds orthonormal rows, such as a known ground vector. Each new
    Lanczos vector is orthogonalised against the deflated rows and every
    earlier Lanczos vector in each of two passes, so no roundoff component
    along a deflated row survives to grow into a spurious eigenvalue. The
    start is a seeded Gaussian vector: a symmetric start such as all ones
    has no component along modes odd under a symmetry of A. Stops when the
    lowest Ritz pair's residual is at most tol, or after dim - len(deflate)
    steps, when the Krylov space is the whole complement and the value is
    exact. The basis holds only the rows in use: room for 64 Lanczos
    vectors at first, doubled whenever it fills.
    """
    n_deflate, dim = deflate.shape
    basis = np.empty((min(dim, n_deflate + 64), dim))  # rows: deflate, then Lanczos vectors
    basis[:n_deflate] = deflate
    q = _project_out(np.random.default_rng(0).normal(size=dim), deflate)
    alpha, beta = [], []
    for k in range(n_deflate, dim):
        if k == len(basis):
            basis = np.concatenate((basis, np.empty((min(k, dim - k), dim))))
        q = q / np.linalg.norm(q)
        basis[k] = q
        w = apply(q)
        alpha.append(float(q @ w))
        w = _project_out(w, basis[:k + 1])
        beta.append(float(np.linalg.norm(w)))
        theta, residual = _lowest_ritz_pair(alpha, beta)
        if residual <= tol:
            break
        q = w
    return theta


def relaxation_time(generator: MarkovGenerator) -> float:
    """1/|lambda_1| from the slowest decaying mode of the generator.

    |lambda_1| is the gap of the mapped Hamiltonian
    H = -exp(beta*H0/2) W exp(-beta*H0/2): its lowest eigenvalue on the
    complement of its ground vector sqrt(P0). A deflated Lanczos solve
    (`_lowest_eigenvalue`) finds it, applying H through the
    operator of W, to a Ritz residual of 1e-13 * max(1, max|H|); no dense
    eigensolve runs, and the dense spectrum of the symmetric form is the
    test oracle. The solve runs on H scaled by 2^-e with 2^e > max|H|, exact
    for normal entries, so no Lanczos norm overflows. Raises ValueError
    when that form is not symmetric within 1e-8 relative (W is not in
    detailed balance with its energies). A chain whose second eigenvalue
    vanishes (below 1e-10, or below the Ritz tolerance, where it is
    roundoff) is reducible or degenerate and is rejected.
    """
    symmetric = _symmetric_form(generator, SYMMETRY_TOL)
    root_p0 = np.sqrt(stationary_distribution(generator))
    h_max = symmetric.max_abs()
    tol = 1e-13 * max(1.0, h_max)
    e = math.frexp(h_max)[1]
    scaled = _FlipOperator(np.ldexp(symmetric.diag, -e), np.ldexp(symmetric.off, -e),
                           symmetric.flips)
    lam1 = -math.ldexp(_lowest_eigenvalue(lambda x: -scaled(x), root_p0[None, :],
                                          math.ldexp(tol, -e)), e)
    if abs(lam1) < max(1e-10, tol):
        raise ValueError(
            "generator is degenerate: second eigenvalue vanishes, "
            "no finite relaxation time")
    return 1.0 / abs(lam1)
