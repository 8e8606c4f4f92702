"""Property tests over random multibody models, rules and temperatures.

The energy table and flip deltas are checked against the scalar oracles
of `oracles`. A random matrix read into XOR-mask form is written back bit
for bit, with the dense asymmetry and product. The single-flip operator of
`markov._FlipSystem` is checked against its own dense form, stage by stage
against the operators it builds for an array of stage betas, and the dense
routes against each other: direct and mapped H agree, the direct H is
exactly symmetric with the rule's closed-form hopping, W conserves
probability, W and H share their spectrum, and the Lanczos relaxation time
is the dense gap. The image exp(beta H0 / 2) P0 of the Boltzmann vector is
the ground vector of H, and P -> phi -> P is the identity. The closed-form
random-coupling heat-bath chain is checked against the direct route, and
the Walsh expansion against the table it came from. The reverse map
takes the generator of a random dyadic model back from its H. Models whose
terms all have even order commute with the global spin flip: they pass
`bridge-check`, their spectra from the flip's blocks match the dense ones,
and the reverse map round-trips through a symmetric sector of at most half
the configurations. Models whose terms come with all their translates
commute with the cyclic shift, and their spectra from momentum blocks match
the dense ones; with an odd-order term the reverse map on the shift's orbits
matches it on the whole H. Monte Carlo chains, on the per-sweep rate table
when they outnumber the configurations and per attempt otherwise, are the
one-attempt-at-a-time reference bit for bit.
"""

import json
import os
import tempfile

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from isingbridge import anneal, cli, markov, quantum, reverse, spectral, spins
import oracles
from test_montecarlo import assert_matches_reference
from test_reverse import deviation, mapped
from test_spectral import _same_bits, assert_blocks_match_dense
from test_spins import random_model

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


def _operators(system, beta, beta_dot):
    return (system.generator(beta), system.hamiltonian(beta),
            system.hamiltonian(beta, beta_dot, -1.0),
            system.hamiltonian(beta, beta_dot, -1j))


@PROPERTY_SETTINGS
@given(models(), rules, st.lists(st.tuples(betas, st.floats(-2.0, 2.0)), min_size=1, max_size=4),
       st.integers(0, 2**32 - 1))
def test_operator_matches_its_dense_form(model, rule, stages, seed):
    """Each stage of the operators built for an array of stage betas is, bit for
    bit, the operator built for that one beta, and matches its dense form."""
    system = markov._FlipSystem(model, rule)
    y = np.random.default_rng(seed).normal(size=model.n_states)
    stacked = _operators(system, *map(np.array, zip(*stages)))
    for i, (beta, beta_dot) in enumerate(stages):
        for op, stack in zip(_operators(system, beta, beta_dot), stacked):
            assert _same_bits(stack[i].diag, op.diag) and _same_bits(stack[i].off, op.off)
            dense = op.dense()
            scale = np.abs(dense).max() * np.abs(y).sum()
            assert np.abs(op(y) - dense @ y).max() <= 1e-13 * scale


@st.composite
def mask_matrices(draw):
    """A 2^N x 2^N matrix, N <= 5, nonzero only on the diagonal and on a random set
    of XOR masks (sometimes all), at a random density, optionally symmetrized, with
    -0.0 where a negative entry is masked out and at most one special entry."""
    size = 1 << draw(st.integers(0, 5))
    masks = list(range(1, size))
    if not draw(st.booleans()):
        masks = sorted(draw(st.sets(st.sampled_from(masks)))) if masks else []
    density = draw(st.sampled_from([0.0, 0.3, 1.0]))
    special = draw(st.sampled_from([None, 0.0, -0.0, np.nan, np.inf, -np.inf]))
    symmetric = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = np.zeros((size, size))
    states = np.arange(size)
    for mask in [0] + masks:
        matrix[states, states ^ mask] = rng.normal(size=size) * (rng.random(size) < density)
    if symmetric:
        matrix = matrix + matrix.T
    if special is not None:
        matrix[tuple(rng.integers(size, size=2))] = special
    return matrix


@settings(PROPERTY_SETTINGS, max_examples=150)
@given(mask_matrices(), st.integers(0, 2**32 - 1))
def test_mask_form_of_a_dense_matrix(matrix, seed):
    """from_dense(A).dense() is A bit for bit, its asymmetry is the dense one, and the
    operator applies A to roundoff."""
    op = markov._FlipOperator.from_dense(matrix)
    assert _same_bits(op.dense(), matrix)
    expected_asymmetry = oracles.asymmetry(matrix)
    assert op.asymmetry() == expected_asymmetry or (
        np.isnan(op.asymmetry()) and np.isnan(expected_asymmetry))
    y = np.random.default_rng(seed).normal(size=matrix.shape[0])
    got, expected = op(y), matrix @ y
    finite = np.isfinite(expected)
    assert np.array_equal(got[~finite], expected[~finite], equal_nan=True)
    bound = 1e-13 * (np.abs(matrix) @ np.abs(y))[finite]
    assert np.all(np.abs(got[finite] - expected[finite]) <= bound)


@PROPERTY_SETTINGS
@given(models(), rules)
def test_tables_equal_the_scalar_oracles(model, rule):
    """energy_table is the term-by-term sum and each delta the difference of two such
    sums, bit for bit. The local form flip_delta sums other terms, so it agrees to
    roundoff: for H0 = s0 + 6e-99 s0 s1 the table difference is 0, not -1.2e-98."""
    table = spins.energy_table(model)
    deltas = markov._FlipSystem(model, rule).deltas
    roundoff = 1e-14 * sum(abs(coeff) for _, coeff in model.terms)
    for c in range(model.n_states):
        assert table[c] == oracles.energy(model, c)
        for j in range(model.n_spins):
            flipped = c ^ (1 << j)
            assert deltas[j, c] == oracles.energy(model, flipped) - oracles.energy(model, c)
            assert abs(deltas[j, c] - oracles.flip_delta(model, c, j)) <= roundoff


@PROPERTY_SETTINGS
@given(models(), rules, betas)
def test_direct_equals_mapped(model, rule, beta):
    generator = markov.build_generator(model, beta, rule)
    mapped = quantum.classical_to_quantum(generator).matrix
    direct = quantum.assemble_direct(model, beta, rule).matrix
    assert np.abs(direct - mapped).max() <= 1e-12 * np.abs(mapped).max()


@PROPERTY_SETTINGS
@given(models(), rules, st.floats(0.0, 40.0))
def test_direct_hopping_is_the_rules_factor(model, rule, beta):
    """The direct H equals its transpose, and each hopping -H[c, c'] is the factor w of
    the rule's rates to 1e-15 relative wherever either is at least 1e-150. |delta| <= 32
    and beta <= 40 keep |beta delta| / 2 below 700; an uphill rate that underflows
    takes a hopping far below 1e-150 to 0."""
    h = quantum.assemble_direct(model, beta, rule).matrix
    assert np.array_equal(h, h.T)
    for c in range(model.n_states):
        for j in range(model.n_spins):
            flipped = c ^ (1 << j)
            delta = oracles.energy(model, flipped) - oracles.energy(model, c)
            w = oracles.hopping(rule, beta, delta, model.n_spins)
            if max(w, -h[c, flipped]) >= 1e-150:
                assert abs(-h[c, flipped] - w) <= 1e-15 * w


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
    h_max = max(1.0, np.abs(hamiltonian.matrix).max())
    assert spectral.compare_spectra(-w_evals, h_evals, 1e-9 * h_max).matched
    values_only = spectral.spectrum_report(hamiltonian.matrix, keep_ground_vector=False)
    assert np.abs(values_only.eigenvalues - h_evals).max() <= 1e-12 * h_max


@PROPERTY_SETTINGS
@given(models(), rules, st.floats(0.0, 2.0))
def test_relaxation_time_is_the_dense_gap(model, rule, beta):
    """The Lanczos gap is the second eigenvalue of the dense symmetric form."""
    generator = markov.build_generator(model, beta, rule)
    symmetric = markov._symmetric_form(generator, markov.SYMMETRY_TOL).dense()
    lam1 = np.linalg.eigvalsh(symmetric)[-2]
    try:
        gap = 1.0 / markov.relaxation_time(generator)
    except ValueError:  # the guard for a vanishing second eigenvalue
        gap = 0.0
    # both solvers are accurate to roundoff times the norm, and Lanczos stops at
    # a Ritz residual of 1e-13 max(1, max|H|), which bounds its error; gaps near
    # 1e-6 at beta = 2 put that floor above 1e-10 relative
    tol = 1e-10 * abs(lam1) + 1e-13 * max(1.0, np.abs(symmetric).max())
    assert abs(gap - abs(lam1)) <= tol


@PROPERTY_SETTINGS
@given(models(), rules, st.floats(0.0, 2.0))
def test_boltzmann_image_is_the_ground_vector(model, rule, beta):
    """phi = exp(beta H0 / 2) P0 solves H phi = 0 for the directly assembled H."""
    phi = anneal._to_phi(spins.boltzmann(model, beta), spins.energy_table(model), beta)
    h = quantum.assemble_direct(model, beta, rule).matrix
    assert np.abs(h @ phi).max() <= 1e-12 * max(1.0, np.abs(h).max())


@PROPERTY_SETTINGS
@given(models(), st.floats(0.0, 2.0), st.integers(0, 2**32 - 1))
def test_probability_round_trips_through_phi(model, beta, seed):
    energies = spins.energy_table(model)
    p = np.random.default_rng(seed).dirichlet(np.ones(model.n_states))
    back = anneal._to_probability(anneal._to_phi(p, energies, beta), energies, beta)
    assert np.abs(back - p).max() <= 1e-12 * p.max()


@st.composite
def dyadic_models(draw):
    """`test_spins.random_model`: N <= 6, up to 8 terms of order <= 4, dyadic
    coefficients up to 2. N and the term count are drawn evenly, not small-first."""
    n = draw(st.sampled_from(range(1, 7)))
    n_terms = draw(st.sampled_from(range(1, min(8, 2**n - 1) + 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_model(n, n_terms, rng, max_order=min(4, n))


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(dyadic_models(),
       st.sampled_from([markov.HEAT_BATH, markov.METROPOLIS, markov.UniformRate(0.1),
                        markov.UniformRate(0.5)]),
       st.floats(0.0, 2.0))
# two draws where two fixed solves left excited weight: W came back 34 and 40
# times the gate off
@example(spins.IsingModel(6, [((0, 1, 3, 4), 1.25), ((0, 2), -2.0), ((0, 3, 4, 5), 2.0),
                              ((0, 4), 1.75), ((1, 2, 5), -0.5)]),
         markov.UniformRate(0.5), 1.6163488725671074)
@example(spins.IsingModel(6, [((0, 1, 4, 5), -1.5), ((0, 2, 3, 5), 0.25), ((1, 2, 3, 4), 2.0),
                              ((1, 2, 5), 1.75), ((2,), 1.0), ((2, 3, 4), 1.75),
                              ((3, 5), -2.0)]),
         markov.METROPOLIS, 1.9628833544304578)
def test_reverse_map_round_trips(model, rule, beta):
    """W -> H -> W and H0 come back, and every generator condition holds, wherever the
    inverse-iteration shift is at most 1/100 of the gap: the vector then converges."""
    _assert_round_trip(model, rule, beta)


def _assert_round_trip(model, rule, beta):
    generator = markov.build_generator(model, beta, rule)
    hamiltonian = quantum.classical_to_quantum(generator)
    levels = np.linalg.eigvalsh(hamiltonian.matrix)
    shift = reverse.INVERSE_SHIFT * max(1.0, hamiltonian.operator.max_abs())
    assume(shift <= (levels[1] - levels[0]) / 100)
    result = reverse.quantum_to_classical(hamiltonian)
    rate_max = generator.operator.off.max(initial=0.0)
    deviation = (result.generator.operator - generator.operator).max_abs()
    assert deviation <= 1e-10 * max(1.0, rate_max)
    table = result.energy_table - beta * generator.energies
    assert np.abs(table - table.mean()).max() <= 1e-9
    assert max(result.condition_residuals.values()) <= 1e-9


@st.composite
def even_order_models(draw):
    """Models whose terms all have even order, so that every table and matrix built
    from them commutes with the global spin flip, without being the uniform chain:
    2 <= N <= 6, up to 8 terms of even order <= N, dyadic coefficients up to 2."""
    n = draw(st.sampled_from(range(2, 7)))
    n_terms = draw(st.sampled_from(range(1, min(8, 2 ** (n - 1) - 1) + 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    subsets = set()
    while len(subsets) < n_terms:
        order = 2 * rng.integers(1, n // 2 + 1)
        subsets.add(tuple(sorted(rng.choice(n, size=order, replace=False).tolist())))
    coeffs = rng.integers(-8, 9, size=n_terms) / 4.0
    return spins.IsingModel(n, list(zip(sorted(subsets), coeffs)))


RULE_NAMES = ["heatbath", "metropolis", "uniform:0.1", "uniform:0.5"]


@PROPERTY_SETTINGS
@given(even_order_models(), st.sampled_from(RULE_NAMES), st.floats(0.0, 2.0))
def test_flip_symmetric_models_pass_bridge_check(model, rule, beta):
    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "model.json")
        spins.save_model(model, path)
        assert cli.main(["bridge-check", "--model", path, "--rule", rule,
                         "--K", repr(beta), "--out", out]) == 0
        with open(os.path.join(out, "bridge_check.json")) as fh:
            checks = json.load(fh)["checks"]
    assert len(checks) == 4 and all(checks.values())


@PROPERTY_SETTINGS
@given(even_order_models(), rules, st.floats(0.0, 2.0))
def test_flip_symmetric_models_take_the_flip_blocks(model, rule, beta):
    """W's symmetric form and the direct H commute with the spin flip bit for bit, so
    their group holds it, with the shift only where the terms happen to be invariant;
    their blocks match the dense spectrum, and H's ground vector solves its matrix."""
    generator = markov.build_generator(model, beta, rule)
    symmetric = markov._symmetric_form(generator, markov.SYMMETRY_TOL)
    hamiltonian = quantum.assemble_direct(model, beta, rule).operator
    for operator, keep_ground_vector in ((symmetric, False), (hamiltonian, True)):
        images, order = spectral._group(operator)
        assert len(images) == 2 * order
        assert_blocks_match_dense(operator, keep_ground_vector)


@PROPERTY_SETTINGS
@given(even_order_models(), st.sampled_from([markov.HEAT_BATH, markov.METROPOLIS,
                                             markov.UniformRate(0.1), markov.UniformRate(0.5)]),
       st.floats(0.0, 2.0))
def test_reverse_map_round_trips_on_a_half_size_sector(model, rule, beta):
    hamiltonian = quantum.classical_to_quantum(markov.build_generator(model, beta, rule))
    assert len(next(spectral._symmetry_blocks(hamiltonian.operator))[0]) <= 2 ** (
        model.n_spins - 1)
    _assert_round_trip(model, rule, beta)


@st.composite
def translation_invariant_models(draw):
    """Models that commute with the cyclic shift of sites: 3 <= N <= 8, up to 4
    random terms, each with all its translates and one coefficient per orbit."""
    n = draw(st.integers(3, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        sites = rng.choice(n, size=rng.integers(1, n + 1), replace=False)
        orbit = {tuple(sorted(((sites + shift) % n).tolist())) for shift in range(n)}
        if not orbit & terms.keys():
            terms.update(dict.fromkeys(orbit, float(rng.uniform(-2.0, 2.0))))
    return spins.IsingModel(n, list(terms.items()))


@PROPERTY_SETTINGS
@given(translation_invariant_models(), rules, betas)
def test_translation_invariant_models_take_the_momentum_blocks(model, rule, beta):
    """W's symmetric form and the direct H pass the shift test despite the roundoff
    of their energy sums, and their blocks match the dense spectrum; H's ground
    vector comes from the m = 0 block."""
    generator = markov.build_generator(model, beta, rule)
    assert_blocks_match_dense(markov._symmetric_form(generator, markov.SYMMETRY_TOL),
                              keep_ground_vector=False)
    hamiltonian = quantum.assemble_direct(model, beta, rule)
    ground, _, _ = assert_blocks_match_dense(hamiltonian.operator, keep_ground_vector=True)
    assert ground is not None


# energy table and Walsh coefficients of the shift's sector against the whole H, times
# gap / max(1, max|H|): worst 2.0e-15 over 1000 draws of the property below
SHIFT_SECTOR_TOL = 2e-14


@PROPERTY_SETTINGS
@given(translation_invariant_models(), rules, st.floats(0.1, 3.0))
def test_reverse_map_on_the_shift_sector_matches_the_whole_matrix(model, rule, beta):
    """With an odd-order term and beta > 0, H commutes with the cyclic shift but not
    with the spin flip, so the reverse map iterates on the shift's orbits. The whole
    H, the sector of the trivial group, is the oracle. Its LU leaves log v errors of
    order eps max|H| / gap, and below a gap of about 1e-9 max|H| it stops converging,
    so the draws keep gaps above 1e-6 max|H| and the deviation is compared at the
    scale max|H| / gap."""
    assume(any(len(sites) % 2 for sites, _ in model.terms))
    hamiltonian = quantum.classical_to_quantum(markov.build_generator(model, beta, rule))
    levels = np.linalg.eigvalsh(hamiltonian.matrix)
    gap, scale = levels[1] - levels[0], max(1.0, hamiltonian.operator.max_abs())
    assume(gap >= 1e-6 * scale and reverse.INVERSE_SHIFT * scale <= gap / 100)
    images, order = spectral._group(hamiltonian.operator)
    assert order == len(images) == model.n_spins  # the shift, but not the flip
    assert len(next(spectral._symmetry_blocks(hamiltonian.operator))[0]) == np.unique(
        images.min(axis=0)).size
    assert deviation(mapped(hamiltonian), mapped(hamiltonian, shift=False)) * gap <= (
        SHIFT_SECTOR_TOL * scale)


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


@PROPERTY_SETTINGS
@given(models(), st.sampled_from(["heatbath", "metropolis"]), st.booleans(), st.data(),
       betas, betas, st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_monte_carlo_routes_match_the_reference(model, rule, table_side, data, beta0,
                                                rise, n_sweeps, seed):
    size = model.n_states
    n_seeds = data.draw(st.integers(size, 2 * size) if table_side
                        else st.integers(1, size - 1))
    schedule = anneal.LinearBeta(beta0, beta0 + rise, float(n_sweeps))
    calls = assert_matches_reference(model, rule, schedule, n_sweeps, n_seeds, seed,
                                     burn_in=n_sweeps // 2)
    assert calls == (n_sweeps if size <= n_seeds else n_sweeps * model.n_spins)
