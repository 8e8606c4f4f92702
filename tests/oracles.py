"""Oracles for the package's vectorized spin tables.

`energy` and `flip_delta` evaluate one configuration at a time, term by
term, and check `spins.energy_table` and `markov._FlipSystem.deltas`;
`energy_table` is the same term-by-term sum over all 2^N indices at once,
by index parity, for models too large to loop over; `hopping` is the
closed-form hopping of one flip under a rule; `asymmetry` is the relative
asymmetry of a dense matrix; `anneal_sample` is the ground probability and
overlap of one sampled anneal state; `schedule_values` is beta(t) and
beta_dot(t) of a schedule in scalar `math`, and `ScalarSchedule` serves an
engine from it one time at a time; `mc_chains` runs single-flip Monte Carlo
one attempt at a time, with the rates of each attempt's own deltas. They read
only `model.n_spins` and `model.terms` (or a schedule's fields), and use no
package code but the `rates` of a rule they are given, so an error in the
tables cannot reach its own oracle. Configurations follow the
package convention: bit i of the index is 0 for sigma_i = +1 and 1 for
sigma_i = -1.
"""

import math

import numpy as np


def spin_values(index: int, n_spins: int) -> np.ndarray:
    """Decode a configuration index into an array of +-1 spin values."""
    bits = (index >> np.arange(n_spins)) & 1
    return 1 - 2 * bits


def encode(values) -> int:
    """Encode a sequence of +-1 spin values into a configuration index."""
    index = 0
    for i, s in enumerate(values):
        if s == -1:
            index |= 1 << i
        elif s != 1:
            raise ValueError(f"spin values must be +-1, got {s!r} at site {i}")
    return index


def _sign(config: int, sites) -> float:
    """prod_{i in sites} sigma_i at the configuration `config`."""
    sign = 1.0
    for s in sites:
        if (config >> s) & 1:
            sign = -sign
    return sign


def energy(model, config: int) -> float:
    """H0 at one configuration, summed over the terms in their stored order."""
    assert 0 <= config < 1 << model.n_spins
    total = 0.0
    for sites, coeff in model.terms:
        total += coeff * _sign(config, sites)
    return total


def energy_table(model) -> np.ndarray:
    """H0 at every index: each term, in stored order, adds coeff times the
    product over its sites of 1 - 2 ((index >> s) & 1)."""
    idx = np.arange(1 << model.n_spins)
    table = np.zeros(idx.size)
    for sites, coeff in model.terms:
        sign = np.ones(idx.size)
        for s in sites:
            sign *= 1.0 - 2.0 * ((idx >> s) & 1)
        table += coeff * sign
    return table


def flip_delta(model, config: int, site: int) -> float:
    """H0(sigma') - H0(sigma) for a flip of `site`, from the terms containing it.

    Each such term changes sign, so the delta is -2 coeff * prod sigma
    summed over them.
    """
    assert 0 <= site < model.n_spins and 0 <= config < 1 << model.n_spins
    delta = 0.0
    for sites, coeff in model.terms:
        if site in sites:
            delta -= 2.0 * coeff * _sign(config, sites)
    return delta


def hopping(rule, beta: float, delta: float, n_spins: int) -> float:
    """The factor w of a rule's rates for a flip with energy change delta.

    w is -H[c, c'] of the mapped H. With x = beta * delta / 2, overflow-safe:
    heat-bath exp(-|x|) / (1 + exp(-2|x|)) = 1 / (2 cosh x), Metropolis
    exp(-|x|), uniform exp(-p N).
    """
    ax = abs(0.5 * beta * delta)
    if rule.name == "heatbath":
        return math.exp(-ax) / (1.0 + math.exp(-2.0 * ax))
    if rule.name == "metropolis":
        return math.exp(-ax)
    return math.exp(-rule.p * n_spins)


def asymmetry(matrix) -> float:
    """max|A - A^T| / max|A| of a dense matrix: 0 for A = 0, NaN when an entry is
    NaN or infinite."""
    a = np.asarray(matrix, dtype=float)
    if not np.isfinite(a).all():
        return math.nan
    scale = np.abs(a).max(initial=0.0)
    return 0.0 if scale == 0.0 else float(np.abs(a - a.T).max() / scale)


def anneal_sample(engine: str, model, beta: float, state):
    """(ground probability, overlap) of one sampled state of an anneal engine.

    The state is P (master), phi with P proportional to exp(-beta H0 / 2) phi
    (imaginary) or psi with P proportional to |psi|^2 (real). The ground
    probability is P summed over the configurations within 1e-9 of the minimum
    energy, the overlap |<sqrt(P0) | phi>|^2 with phi and sqrt(P0) as unit vectors.
    """
    energies = energy_table(model)

    def tilt(s):
        x = s * energies
        return np.exp(x - x.max())

    if engine == "master":
        probs = state
        phi = state * tilt(0.5 * beta)
        phi = phi / np.linalg.norm(phi)
    elif engine == "imaginary":
        probs = state * tilt(-0.5 * beta)
        probs = probs / probs.sum()
        phi = state / np.linalg.norm(state)
    else:
        norm2 = float(np.real(np.vdot(state, state)))
        probs = np.real(state * np.conj(state)) / norm2
        phi = state / math.sqrt(norm2)
    root_p0 = tilt(-0.5 * beta)
    root_p0 = root_p0 / np.linalg.norm(root_p0)
    ground = energies <= energies.min() + 1e-9
    return (float(np.clip(probs[ground].sum(), 0.0, 1.0)),
            float(np.abs(np.vdot(root_p0, phi)) ** 2))


def schedule_values(schedule, t: float) -> tuple[float, float]:
    """(beta(t), beta_dot(t)) of a LinearBeta, ExponentialBeta or GemanGeman schedule,
    evaluated from its fields in scalar math."""
    kind = type(schedule).__name__
    if kind == "LinearBeta":
        slope = (schedule.beta1 - schedule.beta0) / schedule.t_final
        return schedule.beta0 + (schedule.beta1 - schedule.beta0) * t / schedule.t_final, slope
    if kind == "ExponentialBeta":
        growth = math.exp(schedule.rate * t)
        return schedule.beta0 * growth, schedule.rate * schedule.beta0 * growth
    if kind == "GemanGeman":
        scale = schedule.p * schedule.n_spins
        return (math.log(t + schedule.t_offset) / scale,
                1.0 / ((t + schedule.t_offset) * schedule.p * schedule.n_spins))
    raise TypeError(f"no scalar form for {kind}")


class ScalarSchedule:
    """A schedule whose beta and beta_dot take an array of times one time at a time,
    through `schedule_values`."""

    def __init__(self, schedule):
        self.schedule, self.t_final = schedule, schedule.t_final

    def _values(self, times, which: int) -> np.ndarray:
        values = [schedule_values(self.schedule, t)[which] for t in np.ravel(times).tolist()]
        return np.array(values).reshape(np.shape(times))

    def beta(self, times):
        return self._values(times, 0)

    def beta_dot(self, times):
        return self._values(times, 1)


def mc_chains(model, rule, betas, n_seeds: int, seed0: int, start=None, burn_in=None):
    """(final states, energy trace, visit histogram or None) of n_seeds lockstep chains
    with one sweep of N attempts per entry of `betas`.

    Chains start uniformly at random, or all at the index `start`. Every attempt
    draws n_seeds sites, then n_seeds uniforms, and accepts where a uniform is
    below `rule.rates` of that attempt's n_seeds deltas. The trace holds the mean
    energy before the first sweep and after each; with `burn_in` the states after
    each sweep from `burn_in` on are counted.
    """
    n = model.n_spins
    table = energy_table(model)
    rng = np.random.default_rng(seed0)
    if start is None:
        states = rng.integers(0, table.size, size=n_seeds, dtype=np.int64)
    else:
        states = np.full(n_seeds, start, dtype=np.int64)
    trace = [table[states].mean()]
    histogram = None if burn_in is None else np.zeros(table.size, dtype=np.int64)
    for sweep, beta in enumerate(betas):
        for _ in range(n):
            sites = rng.integers(0, n, size=n_seeds)
            flipped = states ^ (np.int64(1) << sites)
            delta = table[flipped] - table[states]
            accept = rng.random(n_seeds) < rule.rates(beta, delta, n)
            states = np.where(accept, flipped, states)
        trace.append(table[states].mean())
        if histogram is not None and sweep >= burn_in:
            np.add.at(histogram, states, 1)
    return states, np.array(trace), histogram


def mapped_chain_hamiltonian(n: int, k: float, rule):
    """The generic route W -> H for the uniform chain (J = 1) at K = beta."""
    from isingbridge import markov, quantum, spins  # only this helper uses the package

    return quantum.classical_to_quantum(markov.build_generator(spins.chain_model(n, [1.0] * n),
                                                               k, rule))
