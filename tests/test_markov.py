import math
import re

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from isingbridge import markov, quantum, reverse, spectral, spins
import oracles
from test_spins import random_model


def two_flip_generator(n):
    """The reverse map of a chain with x_j x_{j+1} terms: a generator with
    two-spin flips, outside the single-flip pattern."""
    matrix = quantum.transverse_field_chain(n, 0.7).matrix.copy()
    states = np.arange(1 << n)
    for j in range(n):
        matrix[states, states ^ (1 << j) ^ (1 << (j + 1) % n)] -= 0.4
    ham = quantum.QuantumHamiltonian.from_matrix(matrix, provenance=quantum.PROVENANCE_USER)
    return reverse.quantum_to_classical(ham).generator


def sparse_matrix(op):
    """A flip operator as a scipy CSR matrix: A[c, flips[j, c]] = off[j, c] plus the diagonal."""
    rows = np.broadcast_to(np.arange(op.diag.size), op.flips.shape)
    off = scipy.sparse.csr_matrix((op.off.ravel(), (rows.ravel(), op.flips.ravel())),
                                  shape=(op.diag.size,) * 2)
    return off + scipy.sparse.diags(op.diag)


def perturbed_rate(gen, eps):
    """gen with its first off-diagonal rate scaled by 1 + eps, columns still summing to 0."""
    matrix = gen.matrix.copy()
    rows, cols = np.nonzero(matrix)
    r, c = next((r, c) for r, c in zip(rows, cols) if r != c)
    delta = eps * matrix[r, c]
    matrix[r, c] += delta
    matrix[c, c] -= delta
    return markov.MarkovGenerator.from_matrix(matrix, beta=gen.beta, energies=gen.energies)


def rate_and_weight(rule, beta, delta, n_spins=None):
    """(rate, w) of one flip with energy change delta: the rate from the rule, and w
    as the hopping -H[0, 1] of the directly assembled H of spin 0 in the field
    h = delta / 2, the single-spin model when n_spins is None."""
    rate = float(rule.rates(beta, delta, n_spins))
    model = spins.IsingModel(n_spins or 1, [((0,), -0.5 * delta)])
    return rate, float(-quantum.assemble_direct(model, beta, rule).matrix[0, 1])


class TestLocalRate:
    def test_heatbath_zero_delta(self):
        rate, w = rate_and_weight(markov.HEAT_BATH, 0.7, 0.0)
        assert rate == 0.5 and w == 0.5

    def test_metropolis_zero_delta(self):
        rate, _ = rate_and_weight(markov.METROPOLIS, 1.3, 0.0)
        assert rate == 1.0

    def test_heatbath_factorization_oracle(self):
        beta, delta = 0.5, 4.0
        # the two factors computed independently of the implementation
        w_direct = 1.0 / (math.exp(0.5 * beta * delta) + math.exp(-0.5 * beta * delta))
        expected = w_direct * math.exp(-0.5 * beta * delta)
        rate, w = rate_and_weight(markov.HEAT_BATH, beta, delta)
        assert abs(rate - expected) <= 1e-15
        assert abs(w - w_direct) <= 1e-15
        assert abs(expected - math.exp(-1) / (math.exp(1) + math.exp(-1))) <= 1e-16

    def test_metropolis_matches_min_form(self):
        for beta, delta in [(0.5, 4.0), (1.0, -2.0), (2.0, 0.5)]:
            rate, w = rate_and_weight(markov.METROPOLIS, beta, delta)
            assert abs(rate - min(1.0, math.exp(-beta * delta))) <= 1e-15
            assert abs(w - math.exp(-0.5 * abs(beta * delta))) <= 1e-15

    def test_uniform_rule(self):
        rule = markov.UniformRate(p=0.3)
        rate, w = rate_and_weight(rule, 0.8, 2.0, n_spins=4)
        assert abs(w - math.exp(-1.2)) <= 1e-15
        assert abs(rate - math.exp(-1.2) * math.exp(-0.8)) <= 1e-15
        with pytest.raises(ValueError, match="spin count"):
            rate_and_weight(rule, 0.8, 2.0)

    def test_uniform_rule_needs_positive_p(self):
        with pytest.raises(ValueError):
            markov.UniformRate(p=0.0)

    @pytest.mark.parametrize("p", [math.nan, math.inf])
    def test_uniform_rule_needs_finite_p(self, p):
        with pytest.raises(ValueError, match="finite and positive"):
            markov.UniformRate(p=p)

    def test_uniform_rule_rejects_a_vanishing_w(self):
        # exp(-200 * 4) underflows to 0: every rate would vanish
        model = spins.chain_model(4, [1.0] * 4)
        for build in (markov.build_generator, quantum.assemble_direct):
            with pytest.raises(ValueError, match="underflows to 0"):
                build(model, 0.5, markov.UniformRate(200.0))
        # exp(-180 * 4) is subnormal but not 0
        assert markov.build_generator(model, 0.5, markov.UniformRate(180.0)).matrix.any()

    def test_metropolis_dominates_heatbath(self):
        for beta in (0.0, 0.3, 1.0, 5.0):
            for delta in (-6.0, -1.0, 0.0, 0.5, 3.0):
                hb, _ = rate_and_weight(markov.HEAT_BATH, beta, delta)
                mt, _ = rate_and_weight(markov.METROPOLIS, beta, delta)
                assert mt >= hb

    def test_stable_at_extreme_arguments(self):
        for delta in (700.0, -700.0):
            rate, w = rate_and_weight(markov.HEAT_BATH, 1.0, delta)
            assert math.isfinite(rate) and math.isfinite(w)
            rate, w = rate_and_weight(markov.METROPOLIS, 1.0, delta)
            assert math.isfinite(rate) and math.isfinite(w)

    def test_parse_rule(self):
        assert markov.parse_rule("heatbath") is markov.HEAT_BATH
        assert markov.parse_rule("metropolis") is markov.METROPOLIS
        assert markov.parse_rule("uniform:0.25") == markov.UniformRate(0.25)
        with pytest.raises(ValueError):
            markov.parse_rule("glauber")


class TestBuildGenerator:
    def test_infinite_temperature_chain(self):
        gen = markov.build_generator(spins.chain_model(3, [1.0] * 3), 0.0,
                                     markov.HEAT_BATH)
        off = gen.matrix.copy()
        np.fill_diagonal(off, 0.0)
        flips = off != 0
        assert np.all(off[flips] == 0.5)
        assert np.all(np.diag(gen.matrix) == -1.5)

    def test_construction_satisfies_detailed_balance(self):
        gen = markov.build_generator(spins.chain_model(3, [1.0] * 3), 0.7,
                                     markov.HEAT_BATH)
        assert markov.detailed_balance_residual(gen) <= 1e-12

    def test_column_sums_vanish(self):
        rng = np.random.default_rng(9)
        couplings = rng.choice([-1.0, 1.0], 4)
        gen = markov.build_generator(spins.chain_model(4, couplings), 1.0,
                                     markov.METROPOLIS)
        assert np.abs(gen.matrix.sum(axis=0)).max() <= 1e-13

    def test_offdiagonal_count_and_sign(self):
        rng = np.random.default_rng(3)
        model = random_model(5, 7, rng)
        gen = markov.build_generator(model, 0.9, markov.HEAT_BATH)
        off = gen.matrix.copy()
        np.fill_diagonal(off, 0.0)
        assert np.count_nonzero(off) == 5 * 32
        assert off.min() >= 0.0
        rows, cols = np.nonzero(off)
        hamming = np.array([bin(r ^ c).count("1") for r, c in zip(rows, cols)])
        assert np.all(hamming == 1)

    def test_uniform_rule_generator(self):
        # the configuration-independent symmetric factor still balances
        model = spins.chain_model(4, [1.0] * 4)
        gen = markov.build_generator(model, 0.6, markov.UniformRate(p=0.5))
        assert markov.detailed_balance_residual(gen) <= 1e-12
        assert np.abs(gen.matrix.sum(axis=0)).max() <= 1e-13
        delta = oracles.flip_delta(model, 0, 0)
        expected = math.exp(-0.5 * 4) * math.exp(-0.3 * delta)
        assert abs(gen.matrix[1, 0] - expected) <= 1e-15

    def test_rejects_oversized_model(self):
        model = spins.chain_model(17, [1.0] * 17)
        with pytest.raises(ValueError, match="<= 16"):
            markov.build_generator(model, 0.5, markov.HEAT_BATH)
        generator = markov.build_generator(spins.chain_model(13, [1.0] * 13), 0.5,
                                           markov.HEAT_BATH)
        with pytest.raises(ValueError, match="<= 12"):
            generator.matrix

    def test_spin_count_comes_from_the_operator(self):
        gen = markov.MarkovGenerator.from_matrix(np.zeros((8, 8)), beta=1.0,
                                                 energies=np.zeros(8))
        assert gen.n_spins == 3
        assert markov.build_generator(spins.chain_model(5, [1.0] * 5), 0.5,
                                      markov.HEAT_BATH).n_spins == 5
        with pytest.raises(TypeError, match="n_spins"):
            markov.MarkovGenerator.from_matrix(np.zeros((8, 8)), beta=1.0,
                                               energies=np.zeros(8), n_spins=5)

    def test_rejects_an_energy_table_of_another_size(self):
        with pytest.raises(ValueError, match=re.escape(
                "energies table has shape (4,), expected (8,) for the 8-state generator")):
            markov.MarkovGenerator.from_matrix(np.zeros((8, 8)), beta=1.0,
                                               energies=np.zeros(4))


class TestDetailedBalanceResidual:
    def test_perturbed_entry_detected(self):
        gen = markov.build_generator(spins.chain_model(4, [1.0] * 4), 0.6,
                                     markov.HEAT_BATH)
        p0 = markov.stationary_distribution(gen)
        flux = gen.matrix * p0[None, :]
        np.fill_diagonal(flux, 0.0)
        r, c = np.unravel_index(np.argmax(np.abs(flux)), flux.shape)
        broken = gen.matrix.copy()
        broken[r, c] *= 1.1
        bad = markov.MarkovGenerator.from_matrix(broken, beta=gen.beta, energies=gen.energies)
        assert markov.detailed_balance_residual(bad) > 0.01

    def test_single_spin_closed_form(self):
        gen = markov.build_generator(spins.single_spin_model(0.8), 1.3,
                                     markov.HEAT_BATH)
        assert markov.detailed_balance_residual(gen) <= 1e-15

    @pytest.mark.parametrize("n", [4, 6, 8])
    @pytest.mark.parametrize("p", [0.1, 0.3])
    def test_underflowed_boltzmann_weight_is_not_a_balance_failure(self, n, p):
        """At K = 200 the excited P0 = exp(-800) underflows to 0 while the uniform rate out
        of it, w exp(400), stays finite; W P0 then read 1.0 for a W exactly in balance."""
        gen = markov.build_generator(spins.chain_model(n, [1.0] * n), 200.0,
                                     markov.UniformRate(p))
        assert markov.detailed_balance_residual(gen) <= 1e-15

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_nonfinite_rate_gives_nan(self, value):
        gen = markov.build_generator(spins.chain_model(4, [1.0] * 4), 0.6, markov.HEAT_BATH)
        assert math.isnan(markov.detailed_balance_residual(perturbed_rate(gen, value)))


class TestEvolveMaster:
    def test_boltzmann_is_stationary(self):
        model = spins.chain_model(4, [1.0] * 4)
        gen = markov.build_generator(model, 0.7, markov.HEAT_BATH)
        p0 = spins.boltzmann(model, 0.7)
        traj = markov.evolve_master(gen, p0, t_final=10.0, dt=0.02)
        assert np.abs(traj.states - p0[None, :]).max() <= 1e-9

    def test_relaxation_matches_eigendecomposition_oracle(self):
        model = spins.chain_model(3, [1.0] * 3)
        gen = markov.build_generator(model, 0.5, markov.HEAT_BATH)
        p0 = np.zeros(8)
        p0[0] = 1.0
        traj = markov.evolve_master(gen, p0, t_final=50.0, dt=0.02)

        # independent spectral solution P(t) = sum_n a_n e^{lambda_n t} psi_n
        half = 0.5 * gen.beta * gen.energies
        scale = np.exp(half - half.max())
        sym = (gen.matrix * scale[:, None]) / scale[None, :]
        evals, vecs = np.linalg.eigh((sym + sym.T) / 2)
        exact = (vecs @ (np.exp(evals * 50.0) * (vecs.T @ (scale * p0)))) / scale
        assert np.abs(traj.states[-1] - exact).max() <= 1e-9

        # residual distance to equilibrium is set by the spectral gap:
        # exp(-gap * 50) ~ 6.7e-6 leaves a 3.2e-6 deviation at t = 50
        boltz = spins.boltzmann(model, 0.5)
        dev_exact = np.abs(exact - boltz).max()
        dev_rk4 = np.abs(traj.states[-1] - boltz).max()
        assert abs(dev_rk4 - dev_exact) <= 1e-9
        assert dev_rk4 <= 4e-6

        # a slightly longer horizon passes the micro tolerance
        traj65 = markov.evolve_master(gen, p0, t_final=65.0, dt=0.02)
        assert np.abs(traj65.states[-1] - boltz).max() <= 1e-6

    def test_kl_divergence_nonincreasing(self):
        model = spins.chain_model(4, [1.0] * 4)
        gen = markov.build_generator(model, 0.8, markov.HEAT_BATH)
        p0 = np.zeros(16)
        p0[3] = 1.0
        traj = markov.evolve_master(gen, p0, t_final=20.0, dt=0.02, record_stride=50)
        boltz = spins.boltzmann(model, 0.8)
        with np.errstate(divide="ignore"):
            logs = np.where(traj.states > 0,
                            np.log(np.maximum(traj.states, 1e-300) / boltz), 0.0)
        kl = (traj.states * logs).sum(axis=1)
        assert np.all(np.diff(kl) <= 1e-12)

    def test_stability_guard(self):
        gen = markov.build_generator(spins.chain_model(4, [1.0] * 4), 0.5,
                                     markov.HEAT_BATH)
        with pytest.raises(ValueError, match="use dt <="):
            markov.evolve_master(gen, spins.boltzmann(spins.chain_model(4, [1.0] * 4), 0.5),
                                 t_final=1.0, dt=0.5)

    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_rejects_nonfinite_dt(self, dt):
        gen = markov.build_generator(spins.chain_model(3, [1.0] * 3), 0.5,
                                     markov.HEAT_BATH)
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            markov.evolve_master(gen, np.full(8, 0.125), t_final=1.0, dt=dt)

    @pytest.mark.parametrize("stride", [0, -3])
    def test_rejects_nonpositive_record_stride(self, stride):
        gen = markov.build_generator(spins.chain_model(3, [1.0] * 3), 0.5,
                                     markov.HEAT_BATH)
        with pytest.raises(ValueError, match="record_stride must be positive"):
            markov.evolve_master(gen, np.full(8, 0.125), t_final=1.0, dt=0.01,
                                 record_stride=stride)

    def test_record_stride_keeps_every_stride_th_step_and_the_last(self):
        gen = markov.build_generator(spins.chain_model(3, [1.0] * 3), 0.5,
                                     markov.HEAT_BATH)
        traj = markov.evolve_master(gen, np.full(8, 0.125), t_final=1.0, dt=0.01,
                                    record_stride=30)
        assert np.allclose(traj.times, [0.0, 0.3, 0.6, 0.9, 1.0], rtol=0, atol=1e-12)

    def test_multi_flip_generator_matches_exponential(self):
        n = 4
        gen = two_flip_generator(n)
        assert np.count_nonzero(gen.matrix[:, 0]) == 1 + 2 * n
        p0 = np.zeros(1 << n)
        p0[5] = 1.0
        traj = markov.evolve_master(gen, p0, t_final=2.0, dt=0.005)
        exact = scipy.linalg.expm(2.0 * gen.matrix) @ p0
        assert np.abs(traj.states[-1] - exact).max() <= 1e-9

    def test_validates_initial_distribution(self):
        gen = markov.build_generator(spins.chain_model(3, [1.0] * 3), 0.5,
                                     markov.HEAT_BATH)
        with pytest.raises(ValueError):
            markov.evolve_master(gen, np.full(8, 0.2), t_final=1.0, dt=0.01)


@pytest.mark.parametrize("beta", [math.nan, math.inf])
@pytest.mark.parametrize("build", [
    lambda beta: markov.build_generator(spins.chain_model(3, [1.0] * 3), beta,
                                        markov.HEAT_BATH),
    lambda beta: quantum.assemble_direct(spins.chain_model(3, [1.0] * 3), beta,
                                         markov.HEAT_BATH),
], ids=["build_generator", "assemble_direct"])
def test_rejects_nonfinite_beta(build, beta):
    with pytest.raises(ValueError, match="beta must be finite and nonnegative"):
        build(beta)


class TestRelaxationTime:
    def test_uniform_chain_matches_gap_formula(self):
        gen = markov.build_generator(spins.chain_model(6, [1.0] * 6), 0.5,
                                     markov.HEAT_BATH)
        assert abs(markov.relaxation_time(gen) - 1.0 / (1.0 - math.tanh(1.0))) <= 1e-9

    def test_infinite_temperature_single_site_decorrelation(self):
        rng = np.random.default_rng(11)
        model = random_model(4, 5, rng)
        gen = markov.build_generator(model, 0.0, markov.HEAT_BATH)
        # brute-force oracle on the nonsymmetric matrix
        evals = np.sort(scipy.linalg.eigvals(gen.matrix).real)
        assert abs(evals[-2] - (-1.0)) <= 1e-10
        assert abs(markov.relaxation_time(gen) - 1.0) <= 1e-10

    def test_two_site_open_chain_is_irreducible(self):
        model = spins.IsingModel(2, [((0, 1), -1.0)])
        gen = markov.build_generator(model, 0.9, markov.HEAT_BATH)
        assert markov.relaxation_time(gen) > 0

    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    @pytest.mark.parametrize("k", [0.0, 0.25, 0.5, 1.0, 2.0, 3.0])
    def test_uniform_chain_gap_up_to_strong_coupling(self, n, k):
        gen = markov.build_generator(spins.chain_model(n, [1.0] * n), k, markov.HEAT_BATH)
        # the gap falls to 1.2e-5 at K = 3; the Lanczos value is within its Ritz
        # residual, 1e-13 max(1, max|H|), and heat-bath outflows are at most n
        gap = 1.0 / markov.relaxation_time(gen)
        assert abs(gap - (1.0 - math.tanh(2.0 * k))) <= 1e-13 * n

    @pytest.mark.parametrize("rule", [markov.HEAT_BATH, markov.METROPOLIS],
                             ids=["heatbath", "metropolis"])
    @pytest.mark.parametrize("k", [0.5, 1.5])
    def test_gap_beyond_the_dense_cap(self, rule, k):
        """At 14 spins, past the dense cap, the Lanczos gap matches ARPACK on the same
        operator, and the heat-bath gap matches 1 - tanh 2K."""
        gen = markov.build_generator(spins.chain_model(14, [1.0] * 14), k, rule)
        gap = 1.0 / markov.relaxation_time(gen)
        h = -sparse_matrix(markov._symmetric_form(gen, markov.SYMMETRY_TOL))
        ground, first = np.sort(scipy.sparse.linalg.eigsh(h, k=2, which="SA",
                                                          return_eigenvectors=False))
        assert abs(gap - (first - ground)) <= 1e-12
        if rule is markov.HEAT_BATH:
            assert abs(gap - (1.0 - math.tanh(2.0 * k))) <= 1e-12

    def test_heatbath_gap_at_the_array_cap(self):
        """16 spins: the Lanczos basis grows with its steps, not to 2^16 rows."""
        gen = markov.build_generator(spins.chain_model(16, [1.0] * 16), 0.5, markov.HEAT_BATH)
        assert abs(1.0 / markov.relaxation_time(gen) - (1.0 - math.tanh(1.0))) <= 1e-12

    def test_two_flip_generator_matches_dense_gap(self):
        gen = two_flip_generator(5)
        symmetric = markov._symmetric_form(gen, markov.SYMMETRY_TOL).dense()
        lam1 = np.linalg.eigvalsh(symmetric)[-2]
        assert abs(markov.relaxation_time(gen) * abs(lam1) - 1.0) <= 1e-10

    @pytest.mark.parametrize("wrong", ["energies", "irreversible"])
    def test_rejects_generator_out_of_detailed_balance(self, wrong):
        gen = markov.build_generator(spins.chain_model(4, [1.0] * 4), 0.7, markov.HEAT_BATH)
        matrix, energies = gen.matrix.copy(), gen.energies
        if wrong == "energies":
            energies = 2.0 * energies
        else:  # a rate whose reverse rate is zero
            matrix[3, 0] += 0.5
            matrix[0, 0] -= 0.5
        bad = markov.MarkovGenerator.from_matrix(matrix, beta=0.7, energies=energies)
        with pytest.raises(ValueError, match="detailed balance"):
            markov.relaxation_time(bad)

    def test_balance_tolerance_is_relative_1e8(self):
        """A rate off by 1e-10 only moves eigenvalues; one off by 1e-6 is rejected."""
        gen = markov.build_generator(spins.chain_model(4, [1.0] * 4), 0.7, markov.HEAT_BATH)
        for eps, accepted in ((1e-10, True), (1e-6, False)):
            bad = perturbed_rate(gen, eps)
            if accepted:
                assert abs(markov.relaxation_time(bad) / markov.relaxation_time(gen) - 1) <= 1e-8
            else:
                with pytest.raises(ValueError, match="detailed balance"):
                    markov.relaxation_time(bad)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_nonfinite_rate(self, value):
        gen = markov.build_generator(spins.chain_model(4, [1.0] * 4), 0.7, markov.HEAT_BATH)
        with pytest.raises(ValueError, match="detailed balance"):
            markov.relaxation_time(perturbed_rate(gen, value))

    def test_underflowed_rate_is_not_a_balance_failure(self):
        """At K = 200 the uphill heat-bath rate exp(-800) is 0 while its reverse is
        1; the symmetric form then differs from its transpose by exp(-400) only."""
        gen = markov.build_generator(spins.chain_model(4, [1.0] * 4), 200.0, markov.HEAT_BATH)
        symmetric = markov._symmetric_form(gen, 1e-12)
        assert 0.0 < symmetric.asymmetry() <= 1e-170

    @pytest.mark.parametrize("k", [10.0, 20.0, 200.0])
    def test_roundoff_gap_is_degenerate(self, k):
        """uniform:0.1 rates reach max|H| = 1.4e174 at K = 200, which overflowed the
        Lanczos norms into numpy's LinAlgError. On H scaled by 2^-e the solve runs, and
        a gap below its Ritz tolerance 1e-13 max|H| is roundoff: at K = 10 and 20 the
        unscaled solve returned 1.1e-7 and 14.8 against tolerances of 1.3e-4 and 6.3e4."""
        gen = markov.build_generator(spins.chain_model(4, [1.0] * 4), k, markov.UniformRate(0.1))
        with pytest.raises(ValueError, match="degenerate"):
            markov.relaxation_time(gen)

    def test_degenerate_chain_flagged(self):
        block = np.array([[-1.0, 1.0], [1.0, -1.0]])
        w = np.zeros((4, 4))
        w[:2, :2] = block
        w[2:, 2:] = block
        gen = markov.MarkovGenerator.from_matrix(w, beta=0.0, energies=np.zeros(4))
        with pytest.raises(ValueError, match="degenerate"):
            markov.relaxation_time(gen)


class TestGeneratorSpectrumInvariants:
    def test_eigenvalues_real_nonpositive_with_boltzmann_mode(self):
        rng = np.random.default_rng(21)
        model = random_model(5, 6, rng)
        gen = markov.build_generator(model, 0.8, markov.HEAT_BATH)
        evals, vecs = scipy.linalg.eig(gen.matrix)
        assert np.abs(evals.imag).max() <= 1e-10
        assert evals.real.max() <= 1e-10
        top = np.argmax(evals.real)
        psi = vecs[:, top].real
        psi /= psi.sum()
        assert np.abs(psi - spins.boltzmann(model, 0.8)).max() <= 1e-10


class TestOperatorForm:
    def test_dense_matrices_are_written_only_when_read(self, monkeypatch):
        """Generators, the W -> H map, the direct and closed-form Hamiltonians and the
        master equation never write a dense matrix."""
        def refuse(self):
            raise AssertionError("a dense matrix was written")

        monkeypatch.setattr(markov._FlipOperator, "dense", refuse)
        model = spins.chain_model(6, [1.0, -0.5, 2.0, 0.3, -1.2, 0.8])
        gen = markov.build_generator(model, 0.5, markov.HEAT_BATH)
        assert markov.detailed_balance_residual(gen) <= 1e-15
        assert markov.relaxation_time(gen) > 0.0
        p0 = np.full(model.n_states, 1.0 / model.n_states)
        assert markov.evolve_master(gen, p0, 0.1, 0.01).states.shape == (11, 64)
        quantum.classical_to_quantum(gen)
        quantum.assemble_direct(model, 0.5, markov.METROPOLIS)
        quantum.chain_heatbath_hamiltonian(6, 0.5)
        quantum.chain_metropolis_hamiltonian(6, 0.5)
        quantum.chain_random_heatbath_hamiltonian([1.0, -0.5, 2.0, 0.3, -1.2, 0.8], 0.5)
        ham = quantum.transverse_field_chain(6, 0.7)
        with pytest.raises(AssertionError, match="dense matrix was written"):
            ham.matrix

    @pytest.mark.parametrize("rule", [markov.HEAT_BATH, markov.METROPOLIS])
    @pytest.mark.parametrize("k", [400.0, 1000.0])
    def test_conjugation_multiplies_only_nonzero_rates(self, rule, k):
        """exp(K dE / 2) overflows at K = 400 where the uphill rate is 0, so a factor
        taken at a zero rate would give 0 * inf = NaN (and a RuntimeWarning, which the
        suite turns into an error). The mapped H holds no -0.0: the dump prints it."""
        gen = markov.build_generator(spins.chain_model(4, [1.0] * 4), k, rule)
        h = quantum.classical_to_quantum(gen).matrix
        assert np.isfinite(h).all()
        assert not np.signbit(h[h == 0.0]).any()
        assert np.isfinite(spectral.spectrum_of_generator(gen).eigenvalues).all()
        assert markov.detailed_balance_residual(gen) == 0.0

    def test_difference_needs_one_flip_table(self):
        """A - B is the dense difference on one flip table and refuses two tables."""
        model = spins.chain_model(4, [1.0, -0.5, 2.0, 0.3])
        a = markov.build_generator(model, 0.7, markov.HEAT_BATH).operator
        b = quantum.assemble_direct(model, 0.7, markov.METROPOLIS).operator
        assert np.array_equal((a - b).dense(), a.dense() - b.dense())
        assert (a - b).max_abs() == np.abs(a.dense() - b.dense()).max()
        other = two_flip_generator(4).operator
        with pytest.raises(ValueError, match="different flip tables"):
            a - other

    def test_from_matrix_reads_any_flip_pattern(self):
        """A two-flip generator is held by its XOR masks: the single flips 1 << j and
        the nearest-neighbour pairs."""
        gen = two_flip_generator(5)
        pairs = [(1 << j) | (1 << (j + 1) % 5) for j in range(5)]
        assert sorted(gen.operator.flips[:, 0]) == sorted([1 << j for j in range(5)] + pairs)
        assert not gen.matrix.flags.writeable and gen.matrix is gen.matrix
