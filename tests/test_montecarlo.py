import math

import numpy as np
import pytest
from scipy import stats

from isingbridge import anneal, markov, montecarlo, spins
import oracles
from test_spectral import _same_bits
from test_spins import random_model


class Counted:
    """A rule that counts its `rates` calls."""

    calls = 0

    def rates(self, *args):
        self.calls += 1
        return super().rates(*args)


class CountingHeatBath(Counted, markov.HeatBath):
    pass


class CountingMetropolis(Counted, markov.Metropolis):
    pass


COUNTING = {"heatbath": CountingHeatBath, "metropolis": CountingMetropolis}


def assert_matches_reference(model, rule_name, schedule, n_sweeps, n_seeds, seed0,
                             start=None, burn_in=None) -> int:
    """Run the chains and the one-attempt-at-a-time reference on one stream, require
    final states, energy trace and histogram to agree bit for bit, and return the
    number of `rates` calls of the run."""
    rule = COUNTING[rule_name]()
    histogram = {} if burn_in is None else {"track_histogram": True,
                                            "histogram_burn_in": burn_in}
    report = montecarlo.mc_simulated_annealing(
        model, rule, schedule, n_sweeps=n_sweeps, n_seeds=n_seeds, seed0=seed0,
        start="random" if start is None else start, **histogram)
    calls = rule.calls
    betas = schedule.beta(np.minimum(np.arange(n_sweeps, dtype=float), schedule.t_final))
    states, trace, visits = oracles.mc_chains(model, rule, betas, n_seeds, seed0,
                                              start, burn_in)
    assert _same_bits(report.final_states, states)
    assert _same_bits(report.energy_trace, trace)
    if visits is None:
        assert report.state_histogram is None
    else:
        assert _same_bits(report.state_histogram, visits)
    return calls


CHAIN4 = spins.chain_model(4, [1.0] * 4)
CHAIN6 = spins.chain_model(6, [1.0] * 6)
FIELDS5 = random_model(5, 10, np.random.default_rng(0))  # four fields among its terms
RANDOM8 = random_model(8, 14, np.random.default_rng(1))


class TestRoutes:
    """2^N <= n_seeds tabulates each sweep's rates in one call; fewer chains evaluate
    every attempt's own. Either way the report is the reference's, bit for bit."""

    @pytest.mark.parametrize("model, rule, schedule, n_sweeps, n_seeds, start, burn_in", [
        (CHAIN6, "heatbath", anneal.frozen_schedule(0.5, 250.0), 250, 800, None, 50),
        (CHAIN6, "heatbath", anneal.LinearBeta(0.0, 3.0, 2000.0), 2000, 100, None, None),
        (CHAIN4, "metropolis", anneal.LinearBeta(0.0, 2.0, 100.0), 100, 32, None, None),
        (FIELDS5, "heatbath", anneal.LinearBeta(0.0, 2.0, 60.0), 60, 32, None, 10),
        (FIELDS5, "metropolis", anneal.LinearBeta(0.0, 2.0, 60.0), 60, 32, 5, None),
        (FIELDS5, "heatbath", anneal.LinearBeta(0.5, 1.5, 60.0), 60, 40, 5, None),
        (FIELDS5, "metropolis", anneal.LinearBeta(0.5, 1.5, 60.0), 60, 40, None, 10),
    ], ids=["chain6-frozen-800", "chain6-100", "chain4-metropolis-32",
            "fields5-heatbath-32", "fields5-metropolis-32", "fields5-heatbath-40",
            "fields5-metropolis-40"])
    def test_table_route_is_the_reference(self, model, rule, schedule, n_sweeps, n_seeds,
                                          start, burn_in):
        assert model.n_states <= n_seeds
        calls = assert_matches_reference(model, rule, schedule, n_sweeps, n_seeds,
                                         seed0=17, start=start, burn_in=burn_in)
        assert calls == n_sweeps

    @pytest.mark.parametrize("model, rule, n_sweeps, n_seeds", [
        (spins.chain_model(10, [1.0] * 10), "heatbath", 200, 200),
        (RANDOM8, "metropolis", 100, 64),
        # above the N x 2^N array cap the table is never built, however many chains run
        (spins.chain_model(17, [1.0] * 17), "heatbath", 1, 1 << 17),
    ], ids=["chain10-200", "random8-64", "chain17-cap"])
    def test_attempt_route_is_the_reference(self, model, rule, n_sweeps, n_seeds):
        schedule = anneal.LinearBeta(0.0, 3.0, float(n_sweeps))
        calls = assert_matches_reference(model, rule, schedule, n_sweeps, n_seeds, seed0=29)
        assert calls == n_sweeps * model.n_spins


class TestAcceptanceSampling:
    def test_infinite_temperature_mixes_to_uniform(self):
        # all chains start from the same configuration; a chi-square test
        # over all 16 bins checks the final states are uniform
        model = spins.chain_model(4, [1.0] * 4)
        report = montecarlo.mc_simulated_annealing(
            model, markov.HEAT_BATH, anneal.frozen_schedule(0.0, 60.0),
            n_sweeps=60, n_seeds=100_000, seed0=1234, start=0)
        counts = np.bincount(report.final_states, minlength=16)
        _, p_value = stats.chisquare(counts)
        assert p_value > 0.01

    def test_single_spin_magnetization_matches_tanh(self):
        beta, h = 1.2, 0.7
        model = spins.single_spin_model(h)
        report = montecarlo.mc_simulated_annealing(
            model, markov.HEAT_BATH, anneal.frozen_schedule(beta, 50.0),
            n_sweeps=50, n_seeds=2000, seed0=11)
        spins_final = 1.0 - 2.0 * (report.final_states & 1)
        m_hat = spins_final.mean()
        m_true = math.tanh(beta * h)
        stderr = math.sqrt((1.0 - m_true ** 2) / report.n_seeds)
        assert abs(m_hat - m_true) <= 3.0 * stderr

    def test_frozen_run_approaches_boltzmann(self):
        # total-variation distance falls as the sample count grows
        model = spins.chain_model(4, [1.0] * 4)
        boltz = spins.boltzmann(model, 0.5)

        def tv_at(n_sweeps):
            report = montecarlo.mc_simulated_annealing(
                model, markov.HEAT_BATH, anneal.frozen_schedule(0.5, n_sweeps),
                n_sweeps=n_sweeps, n_seeds=50, seed0=3,
                track_histogram=True, histogram_burn_in=50)
            return montecarlo.total_variation(
                montecarlo.empirical_distribution(report), boltz)

        short, long = tv_at(300), tv_at(6000)
        assert long < short
        assert long < 0.02


class TestAnnealedRuns:
    def test_ferromagnetic_chain_succeeds(self, ferro_mc_run):
        assert ferro_mc_run.success_fraction >= 0.95
        assert ferro_mc_run.ground_energy == -10.0
        # success means ending in one of the two aligned configurations
        winners = set(ferro_mc_run.final_states[ferro_mc_run.success])
        assert winners <= {0, 2 ** 10 - 1}

    def test_energy_trace_decreases_under_annealing(self, ferro_mc_run):
        trace = ferro_mc_run.energy_trace
        assert trace.size == ferro_mc_run.n_sweeps + 1
        assert trace[-1] < trace[0]

    def test_deterministic_given_seed(self):
        model = spins.chain_model(6, [1.0] * 6)
        schedule = anneal.LinearBeta(0.0, 2.0, 100.0)
        a = montecarlo.mc_simulated_annealing(model, markov.METROPOLIS, schedule,
                                              n_sweeps=100, n_seeds=32, seed0=5)
        b = montecarlo.mc_simulated_annealing(model, markov.METROPOLIS, schedule,
                                              n_sweeps=100, n_seeds=32, seed0=5)
        assert a.success_fraction == b.success_fraction
        assert np.array_equal(a.final_states, b.final_states)
        assert np.array_equal(a.energy_trace, b.energy_trace)

    def test_schedule_is_called_once_per_run(self):
        calls = []

        class CountingBeta(anneal.LinearBeta):
            def beta(self, t):
                calls.append(np.shape(t))
                return super().beta(t)

        schedule = CountingBeta(0.0, 2.0, 30.0)
        calls.clear()  # construction evaluates both ends
        model = spins.chain_model(4, [1.0] * 4)
        report = montecarlo.mc_simulated_annealing(model, markov.HEAT_BATH, schedule,
                                                   n_sweeps=40, n_seeds=8, seed0=1)
        assert calls == [(40,)]
        assert report.energy_trace.size == 41


class TestValidation:
    def test_uniform_rule_rejected(self):
        model = spins.chain_model(4, [1.0] * 4)
        with pytest.raises(ValueError, match="probability"):
            montecarlo.mc_simulated_annealing(
                model, markov.UniformRate(0.5), anneal.frozen_schedule(0.5, 10.0),
                n_sweeps=10, n_seeds=4, seed0=0)

    def test_supplied_ground_energy_controls_success(self):
        model = spins.chain_model(4, [1.0] * 4)
        schedule = anneal.LinearBeta(0.0, 4.0, 200.0)
        honest = montecarlo.mc_simulated_annealing(
            model, markov.HEAT_BATH, schedule, n_sweeps=200, n_seeds=16, seed0=2)
        impossible = montecarlo.mc_simulated_annealing(
            model, markov.HEAT_BATH, schedule, n_sweeps=200, n_seeds=16, seed0=2,
            ground_energy=-100.0)
        assert honest.success_fraction > 0.5
        assert impossible.success_fraction == 0.0

    def test_bad_arguments(self):
        model = spins.chain_model(4, [1.0] * 4)
        schedule = anneal.frozen_schedule(0.5, 10.0)
        with pytest.raises(ValueError):
            montecarlo.mc_simulated_annealing(model, markov.HEAT_BATH, schedule,
                                              n_sweeps=0, n_seeds=4, seed0=0)
        with pytest.raises(ValueError):
            montecarlo.mc_simulated_annealing(model, markov.HEAT_BATH, schedule,
                                              n_sweeps=10, n_seeds=0, seed0=0)
        with pytest.raises(ValueError, match="out of range"):
            montecarlo.mc_simulated_annealing(model, markov.HEAT_BATH, schedule,
                                              n_sweeps=10, n_seeds=4, seed0=0,
                                              start=16)

    @pytest.mark.parametrize("argument, value", [
        ("start", 2.7), ("n_seeds", 2.5), ("n_sweeps", 2.5)])
    def test_non_integer_count_rejected(self, argument, value):
        kwargs = {"n_sweeps": 10, "n_seeds": 4, "seed0": 0, argument: value}
        with pytest.raises(ValueError, match=f"{argument} must be an integer"):
            montecarlo.mc_simulated_annealing(
                spins.chain_model(4, [1.0] * 4), markov.HEAT_BATH,
                anneal.frozen_schedule(0.5, 10.0), **kwargs)

    @pytest.mark.parametrize("ground_energy", [math.nan, math.inf, -math.inf])
    def test_non_finite_ground_energy_rejected(self, ground_energy):
        with pytest.raises(ValueError, match="ground_energy must be finite"):
            montecarlo.mc_simulated_annealing(
                spins.chain_model(4, [1.0] * 4), markov.HEAT_BATH,
                anneal.frozen_schedule(0.5, 10.0), n_sweeps=10, n_seeds=4, seed0=0,
                ground_energy=ground_energy)

    @pytest.mark.parametrize("p, q", [
        (np.ones(4) / 4, np.array([1.0])),
        (np.ones((2, 2)) / 4, np.ones((2, 2)) / 4),
        (np.ones(4) / 4, np.ones((1, 4)) / 4),
    ], ids=["lengths", "two-dimensional", "broadcast"])
    def test_total_variation_needs_one_shape(self, p, q):
        with pytest.raises(ValueError, match="1-D distributions of one shape"):
            montecarlo.total_variation(p, q)

    @pytest.mark.parametrize("burn_in", [-1, 10, 11], ids=["negative", "all", "beyond"])
    def test_burn_in_must_leave_a_sweep(self, burn_in):
        model = spins.chain_model(4, [1.0] * 4)
        with pytest.raises(ValueError, match=r"histogram_burn_in must lie in \[0, n_sweeps"):
            montecarlo.mc_simulated_annealing(
                model, markov.HEAT_BATH, anneal.frozen_schedule(0.5, 10.0),
                n_sweeps=10, n_seeds=4, seed0=0,
                track_histogram=True, histogram_burn_in=burn_in)

    def test_burn_in_needs_a_histogram(self):
        model = spins.chain_model(4, [1.0] * 4)
        with pytest.raises(ValueError, match="histogram_burn_in needs track_histogram"):
            montecarlo.mc_simulated_annealing(
                model, markov.HEAT_BATH, anneal.frozen_schedule(0.5, 10.0),
                n_sweeps=10, n_seeds=4, seed0=0, histogram_burn_in=5)

    def test_histogram_requires_tracking(self):
        model = spins.chain_model(4, [1.0] * 4)
        report = montecarlo.mc_simulated_annealing(
            model, markov.HEAT_BATH, anneal.frozen_schedule(0.5, 10.0),
            n_sweeps=10, n_seeds=4, seed0=0)
        with pytest.raises(ValueError, match="track_histogram"):
            montecarlo.empirical_distribution(report)
