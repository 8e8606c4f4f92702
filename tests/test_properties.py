"""Property tests over random multibody models, rules and temperatures.

The single-flip operator of `markov._FlipSystem` is checked against its own
dense form, and the dense routes against each other: direct and mapped H
agree, W conserves probability, and W and H share their spectrum. The
closed-form random-coupling heat-bath chain is checked against the direct
route, and the Walsh expansion against the table it came from.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from isingbridge import markov, quantum, reverse, spectral, spins

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                             database=None)


@st.composite
def models(draw):
    n = draw(st.integers(1, 6))
    subsets = draw(st.lists(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
        .map(lambda sites: tuple(sorted(sites))),
        min_size=1, max_size=8, unique=True))
    coeffs = draw(st.lists(st.floats(-2.0, 2.0), min_size=len(subsets),
                           max_size=len(subsets)))
    return spins.IsingModel(n, list(zip(subsets, coeffs)))


rules = st.one_of(st.sampled_from([markov.HEAT_BATH, markov.METROPOLIS]),
                  st.floats(0.01, 1.0).map(markov.UniformRate))
betas = st.floats(0.0, 3.0)


@PROPERTY_SETTINGS
@given(models(), rules, betas, st.floats(-2.0, 2.0), st.integers(0, 2**32 - 1))
def test_operator_matches_its_dense_form(model, rule, beta, beta_dot, seed):
    system = markov._FlipSystem(model, rule)
    y = np.random.default_rng(seed).normal(size=model.n_states)
    for op in (system.generator(beta), system.hamiltonian(beta),
               system.hamiltonian(beta, beta_dot, -1.0),
               system.hamiltonian(beta, beta_dot, -1j)):
        dense = op.dense()
        scale = np.abs(dense).max() * np.abs(y).sum()
        assert np.abs(op(y) - dense @ y).max() <= 1e-13 * scale


@PROPERTY_SETTINGS
@given(models(), rules, betas)
def test_direct_equals_mapped(model, rule, beta):
    generator = markov.build_generator(model, beta, rule)
    mapped = quantum.classical_to_quantum(generator).matrix
    direct = quantum.assemble_direct(model, beta, rule).matrix
    assert np.abs(direct - mapped).max() <= 1e-12 * np.abs(mapped).max()


@PROPERTY_SETTINGS
@given(models(), rules, betas)
def test_generator_columns_sum_to_zero(model, rule, beta):
    w = markov.build_generator(model, beta, rule).matrix
    assert np.abs(w.sum(axis=0)).max() <= 1e-12 * np.abs(w).max()


@PROPERTY_SETTINGS
@given(models(), rules, betas)
def test_spectrum_is_shared(model, rule, beta):
    generator = markov.build_generator(model, beta, rule)
    hamiltonian = quantum.assemble_direct(model, beta, rule)
    w_evals = spectral.spectrum_of_generator(generator).eigenvalues
    h_evals = spectral.spectrum_of_hamiltonian(hamiltonian).eigenvalues
    # eigh is accurate to roundoff times the matrix norm, and uniform rates
    # reach exp(beta * |delta| / 2) >> 1 on strongly coupled models
    tol = 1e-9 * max(1.0, np.abs(hamiltonian.matrix).max())
    assert spectral.compare_spectra(-w_evals, h_evals, tol).matched


@st.composite
def chain_couplings(draw):
    n = draw(st.sampled_from([4, 6]))
    magnitudes = draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
    return [m * s for m, s in zip(magnitudes, signs)]


@PROPERTY_SETTINGS
@given(chain_couplings(), st.floats(0.0, 2.0))
def test_random_heatbath_chain_equals_direct(couplings, beta):
    closed = quantum.chain_random_heatbath_hamiltonian(couplings, beta).matrix
    model = spins.chain_model(len(couplings), couplings)
    direct = quantum.assemble_direct(model, beta, markov.HEAT_BATH).matrix
    assert np.abs(closed - direct).max() <= 1e-12 * max(1.0, np.abs(direct).max())


@PROPERTY_SETTINGS
@given(st.integers(1, 8), st.floats(0.01, 100.0), st.integers(0, 2**32 - 1))
def test_walsh_expansion_reconstructs_its_table(n, scale, seed):
    table = scale * np.random.default_rng(seed).normal(size=1 << n)
    rebuilt = reverse.extract_couplings(table).reconstruct()
    assert np.abs(rebuilt - table).max() <= 1e-12 * max(1.0, np.abs(table).max())
