"""Ising models with multibody diagonal couplings, on bit-indexed configurations.

Configuration convention, shared by every module in this package: a
configuration of N spins is an integer index in [0, 2^N). Bit i of the
index is 0 for sigma_i = +1 and 1 for sigma_i = -1, and flipping spin i
toggles exactly bit i. All matrices elsewhere are indexed in this basis;
bits are toggled by `markov._flip_table` and montecarlo, read by `quantum._z_columns`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

_SPIN_CAPS = {
    "model": 20,                # energy tables / Boltzmann vectors stay addressable
    "Walsh expansion": 16,      # reverse.extract_couplings
    "fermion enumeration": 16,  # fermion.many_body_spectrum, 2^N occupation subsets
    "dense matrix": 12,         # dense 2^N x 2^N matrices, eigensolves up to 4096
    "anneal engine": 10,        # the three time-dependent engines
    "command-line": 10,         # every CLI command but mc
    "wide state export": 8,     # anneal --dump-states wide: 2^N CSV columns
}
MAX_SPINS = _SPIN_CAPS["model"]


def _check_spins(n_spins: int, use: str) -> None:
    """Reject more spins than the `use` entry of `_SPIN_CAPS` allows."""
    if n_spins > _SPIN_CAPS[use]:
        raise ValueError(f"{n_spins} spins exceed the {use} cap n_spins <= {_SPIN_CAPS[use]}")


def spin_value(index: int, site: int) -> int:
    """Value (+1 or -1) of one spin in the configuration `index`."""
    return 1 - 2 * ((index >> site) & 1)


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


def flip(index: int, site: int) -> int:
    """Configuration index with the spin at `site` flipped."""
    return index ^ (1 << site)


@dataclass(frozen=True)
class IsingModel:
    """Diagonal spin Hamiltonian H0(sigma) = sum_terms coeff * prod_{i in sites} sigma_i.

    `terms` is a collection of (sites, coefficient) pairs; each sites entry
    is a subset of [0, N) with no repeats, and no two terms share a subset.
    A ferromagnetic bond -J sigma_j sigma_k is stored as ((j, k), -J).
    Instances are immutable and safe to share between threads.
    """

    n_spins: int
    terms: tuple[tuple[tuple[int, ...], float], ...]
    name: str | None = None

    def __post_init__(self):
        if self.n_spins < 1:
            raise ValueError(f"n_spins must be at least 1, got {self.n_spins}")
        _check_spins(self.n_spins, "model")
        normalized = []
        seen = set()
        for sites, coeff in self.terms:
            sites = tuple(sorted(int(s) for s in sites))
            if len(set(sites)) != len(sites):
                raise ValueError(f"term {sites} repeats a site")
            if sites and not (0 <= sites[0] and sites[-1] < self.n_spins):
                raise ValueError(f"term {sites} has a site outside [0, {self.n_spins})")
            if sites in seen:
                raise ValueError(f"duplicate term for sites {sites}")
            if not math.isfinite(coeff):
                raise ValueError(f"term {sites} has a non-finite coefficient {coeff}")
            seen.add(sites)
            normalized.append((sites, float(coeff)))
        object.__setattr__(self, "terms", tuple(normalized))

    @property
    def n_states(self) -> int:
        return 1 << self.n_spins


def chain_model(n: int, couplings, name: str | None = None) -> IsingModel:
    """Periodic nearest-neighbor chain H0 = -sum_j J_j sigma_{j-1} sigma_j.

    couplings[j] is the bond between sites (j-1) mod n and j, so a uniform
    ferromagnet is couplings = [J]*n. Requires n >= 3: a periodic chain on
    fewer sites duplicates bonds.
    """
    couplings = [float(j) for j in couplings]
    if n < 3:
        raise ValueError(f"periodic chain needs n >= 3, got {n}")
    if len(couplings) != n:
        raise ValueError(f"expected {n} couplings, got {len(couplings)}")
    terms = [(((j - 1) % n, j), -couplings[j]) for j in range(n)]
    return IsingModel(n, terms, name=name)


def single_spin_model(h: float) -> IsingModel:
    """One spin in a longitudinal field: H0 = -h sigma_0."""
    return IsingModel(1, [((0,), -h)])


def frustrated_instance(n_spins: int = 4, seed: int = 0) -> IsingModel:
    """Random +-1 couplings on the complete graph, redrawn until frustrated.

    Frustration test: the minimum of H0 over all configurations exceeds
    -(number of bonds), i.e. not every bond can be satisfied at once.
    Deterministic for a fixed seed.
    """
    pairs = [(i, j) for i in range(n_spins) for j in range(i + 1, n_spins)]
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        signs = rng.choice([-1.0, 1.0], size=len(pairs))
        model = IsingModel(n_spins, list(zip(pairs, signs)),
                           name=f"frustrated-{n_spins}-seed{seed}")
        if energy_table(model).min() > -len(pairs) + 1e-12:
            return model
    raise RuntimeError("could not draw a frustrated instance")  # pragma: no cover


def energy(model: IsingModel, config: int) -> float:
    """Evaluate H0 at one configuration index."""
    if not 0 <= config < model.n_states:
        raise ValueError(f"config {config} out of range for {model.n_spins} spins")
    total = 0.0
    for sites, coeff in model.terms:
        sign = 1.0
        for s in sites:
            if (config >> s) & 1:
                sign = -sign
        total += coeff * sign
    return total


def energy_table(model: IsingModel) -> np.ndarray:
    """H0 evaluated at every configuration, as a length-2^N array."""
    idx = np.arange(model.n_states)
    table = np.zeros(model.n_states)
    for sites, coeff in model.terms:
        sign = np.ones(model.n_states)
        for s in sites:
            sign *= 1.0 - 2.0 * ((idx >> s) & 1)
        table += coeff * sign
    return table


def flip_delta(model: IsingModel, config: int, site: int) -> float:
    """Energy change H0(sigma') - H0(sigma) from flipping one spin.

    Only terms containing `site` contribute; each flips sign, so the
    delta is an integer combination (-2, 0, +2) of the coefficients and
    agrees exactly with the two-evaluation difference.
    """
    if not 0 <= site < model.n_spins:
        raise ValueError(f"site {site} out of range for {model.n_spins} spins")
    if not 0 <= config < model.n_states:
        raise ValueError(f"config {config} out of range for {model.n_spins} spins")
    delta = 0.0
    for sites, coeff in model.terms:
        if site not in sites:
            continue
        sign = 1.0
        for s in sites:
            if (config >> s) & 1:
                sign = -sign
        delta -= 2.0 * coeff * sign
    return delta


def _check_beta(beta: float, name: str = "beta") -> None:
    """Reject an inverse temperature that is NaN, infinite or negative."""
    if not (math.isfinite(beta) and beta >= 0):
        raise ValueError(f"{name} must be finite and nonnegative, got {beta}")


def boltzmann(model: IsingModel, beta: float) -> np.ndarray:
    """Boltzmann distribution exp(-beta H0) / Z over configuration indices.

    Shifted by the minimum energy before exponentiating, so beta*|H0| up
    to ~700 cannot overflow.
    """
    _check_beta(beta)
    table = energy_table(model)
    weights = np.exp(-beta * (table - table.min()))
    return weights / weights.sum()


def ground_states(model: IsingModel, tol: float = 1e-9) -> np.ndarray:
    """Indices of all configurations within `tol` of the minimum energy."""
    table = energy_table(model)
    return np.flatnonzero(table <= table.min() + tol)


def check_probability_vector(p: np.ndarray, tol: float = 1e-12) -> None:
    """Validate nonnegativity and normalization of a distribution."""
    p = np.asarray(p)
    if p.ndim != 1:
        raise ValueError("probability vector must be one-dimensional")
    if np.any(p < -tol):
        raise ValueError(f"negative probability entry {p.min()}")
    if abs(p.sum() - 1.0) > tol:
        raise ValueError(f"probabilities sum to {p.sum()}, not 1")


def model_to_dict(model: IsingModel) -> dict:
    out = {
        "n_spins": model.n_spins,
        "terms": [{"sites": list(sites), "coeff": coeff} for sites, coeff in model.terms],
    }
    if model.name is not None:
        out["name"] = model.name
    return out


def model_from_dict(data: dict) -> IsingModel:
    terms = [(t["sites"], t["coeff"]) for t in data["terms"]]
    return IsingModel(int(data["n_spins"]), terms, name=data.get("name"))


def save_model(model: IsingModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")


def load_model(path) -> IsingModel:
    with open(path) as fh:
        return model_from_dict(json.load(fh))
