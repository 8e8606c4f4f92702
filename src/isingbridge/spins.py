"""Ising models with multibody diagonal couplings, on bit-indexed configurations.

Configuration convention, shared by every module in this package: a
configuration of N spins is an integer index in [0, 2^N). Bit i of the
index is 0 for sigma_i = +1 and 1 for sigma_i = -1, and flipping spin i
toggles exactly bit i. All operators elsewhere are held in this basis by
XOR masks, A[c, c ^ mask] (`markov._FlipOperator`); bits are toggled by
`markov._flip_table` and montecarlo, read for every configuration at once by
`_bits`, and `energy_table` reads bit i as axis N - 1 - i of
`table.reshape((2,) * N)`.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass

import numpy as np

_SPIN_CAPS = {
    "model": 20,                    # energy tables / Boltzmann vectors stay addressable
    "N x 2^N array": 16,            # flip tables, rates, z columns, Walsh stages, occupation bits
    "dense matrix": 12,             # 2^N x 2^N matrices (_FlipOperator.dense, eig_sym), and
                                    # spectral._symmetry_blocks, which are smaller
    "single-particle block": 2048,  # fermion chains: N-mode grids, N x N random forms
}
MAX_SPINS = _SPIN_CAPS["model"]


def _check_spins(n_spins: int, use: str) -> None:
    """Reject more spins than the `use` entry of `_SPIN_CAPS` allows."""
    if n_spins > _SPIN_CAPS[use]:
        raise ValueError(f"{n_spins} spins exceed the {use} cap n_spins <= {_SPIN_CAPS[use]}")


def _bits(n_spins: int) -> np.ndarray:
    """(N, 2^N) integer table of bit j of every configuration c, at [j, c]: 1 where
    sigma_j = -1. Raises ValueError above the N x 2^N array spin cap."""
    _check_spins(n_spins, "N x 2^N array")
    return (np.arange(1 << n_spins) >> np.arange(n_spins)[:, None]) & 1


def _integer(value, name: str) -> int:
    """`value` as an int, by `operator.index`: 1.5 or 1.0 is rejected, never truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


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
        object.__setattr__(self, "n_spins", _integer(self.n_spins, "n_spins"))
        if self.n_spins < 1:
            raise ValueError(f"n_spins must be at least 1, got {self.n_spins}")
        _check_spins(self.n_spins, "model")
        normalized = []
        seen = set()
        for sites, coeff in self.terms:
            sites = tuple(sorted(_integer(s, "site") for s in sites))
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
    fewer sites duplicates bonds. n is checked against the model cap before
    `couplings` is read, so a lazy itertools.repeat(J, n) is never expanded
    for a chain no model can hold.
    """
    if n < 3:
        raise ValueError(f"periodic chain needs n >= 3, got {n}")
    _check_spins(n, "model")
    couplings = [float(j) for j in couplings]
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


_AXIS_SIGNS = np.array([1.0, -1.0])  # sigma_i at bit value 0 and 1


def energy_table(model: IsingModel) -> np.ndarray:
    """H0 evaluated at every configuration, as a length-2^N array.

    The table is viewed as the hypercube `table.reshape((2,) * N)`, whose
    axis N - 1 - i is bit i. Each term, in stored order, adds its +-coeff
    as a broadcast of [1, -1] along its site axes, so every entry is the
    same sum as the term-by-term oracle, and a k-site term costs one
    2^k-entry factor.
    """
    table = np.zeros(model.n_states)
    cube = table.reshape((2,) * model.n_spins)
    for sites, coeff in model.terms:
        factor = coeff
        for s in sites:
            factor = factor * _AXIS_SIGNS.reshape((2,) + (1,) * s)
        cube += factor
    return table


def _check_beta(beta: float, name: str = "beta") -> None:
    """Reject an inverse temperature that is NaN, infinite or negative."""
    if not (math.isfinite(beta) and beta >= 0):
        raise ValueError(f"{name} must be finite and nonnegative, got {beta}")


def _tilt(energies: np.ndarray, s) -> np.ndarray:
    """exp(s * H0) scaled so that its largest entry is 1: no entry can overflow.

    For a 1-D array of s, one such row per s, each scaled by its own maximum.
    """
    x = np.multiply.outer(s, energies)
    return np.exp(x - x.max(axis=-1, keepdims=True))


def boltzmann(model: IsingModel, beta: float) -> np.ndarray:
    """Boltzmann distribution exp(-beta H0) / Z over configuration indices, for any beta."""
    _check_beta(beta)
    weights = _tilt(energy_table(model), -beta)
    return weights / weights.sum()


def ground_states(model: IsingModel) -> np.ndarray:
    """Indices of all configurations within 1e-9 of the minimum energy."""
    table = energy_table(model)
    return np.flatnonzero(table <= table.min() + 1e-9)


def check_probability_vector(p: np.ndarray) -> None:
    """Validate nonnegativity (down to -1e-12) and normalization (to 1e-12) of a distribution."""
    p = np.asarray(p)
    if p.ndim != 1:
        raise ValueError("probability vector must be one-dimensional")
    bad = p[~(p >= -1e-12)]  # NaN entries too
    if bad.size:
        raise ValueError(f"negative or NaN probability entry {bad[0]}")
    if not abs(p.sum() - 1.0) <= 1e-12:
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
    return IsingModel(data["n_spins"], terms, name=data.get("name"))


def save_model(model: IsingModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")


def load_model(path) -> IsingModel:
    with open(path) as fh:
        return model_from_dict(json.load(fh))
