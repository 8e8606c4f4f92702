import math
import re

import numpy as np
import pytest
import scipy.linalg

from isingbridge import anneal, markov, quantum, spectral, spins
import oracles

CHAIN4 = spins.chain_model(4, [1.0] * 4)
FRUSTRATED5 = spins.frustrated_instance(5, seed=2)  # ten degenerate ground states
UNIFORM16 = np.full(16, 1.0 / 16.0)
FLAT16 = np.full(16, 0.25)


class CountingHeatBath(markov.HeatBath):
    """Heat-bath rule that counts its rate evaluations."""

    def __init__(self):
        self.rate_calls = 0

    def rates(self, beta, delta, n_spins=None):
        self.rate_calls += 1
        return super().rates(beta, delta, n_spins)


class CountingSchedule:
    """A schedule that counts its beta and beta_dot calls."""

    def __init__(self, schedule):
        self.schedule, self.t_final = schedule, schedule.t_final
        self.calls = {"beta": 0, "beta_dot": 0}

    def beta(self, t):
        self.calls["beta"] += 1
        return self.schedule.beta(t)

    def beta_dot(self, t):
        self.calls["beta_dot"] += 1
        return self.schedule.beta_dot(t)


SCHEDULES = {
    "linear": anneal.LinearBeta(0.0, 2.0, 10.0),
    "frozen": anneal.frozen_schedule(0.7, 3.0),
    "exponential": anneal.ExponentialBeta(0.1, 0.3, 5.0),
    "geman": anneal.GemanGeman(p=2.0, n_spins=4, t_final=100.0),
    "geman-offset": anneal.GemanGeman(p=0.3, n_spins=5, t_final=7.0, t_offset=1.5),
}


class TestSchedules:
    @pytest.mark.parametrize("name", sorted(SCHEDULES))
    def test_array_gives_the_scalar_values_bit_for_bit(self, name):
        schedule = SCHEDULES[name]
        times = np.concatenate((np.linspace(0.0, schedule.t_final, 33),
                                schedule.t_final * np.array([1 / 3, 2 / 7, 0.999])))
        for fn in (schedule.beta, schedule.beta_dot):
            scalars = [fn(t) for t in times.tolist()]
            assert all(isinstance(value, float) for value in scalars)
            values = fn(times)
            assert values.shape == times.shape
            assert values.tobytes() == np.array(scalars).tobytes()

    @pytest.mark.parametrize("name", sorted(SCHEDULES))
    def test_closed_forms_match_the_scalar_math_oracle(self, name):
        schedule = SCHEDULES[name]
        times = np.linspace(0.0, schedule.t_final, 33)
        for which, fn in enumerate((schedule.beta, schedule.beta_dot)):
            want = [oracles.schedule_values(schedule, t)[which] for t in times.tolist()]
            np.testing.assert_allclose(fn(times), want, rtol=1e-15, atol=0.0)

    def test_linear_divides_before_it_multiplies(self):
        """(beta1 - beta0) * t overflows at beta1 = 1e308 before / t_final brings it back."""
        schedule = anneal.LinearBeta(0.0, 1e308, 10.0)
        assert schedule.beta(5.0) == 5e307 and schedule.beta(10.0) == 1e308
        times = np.linspace(0.0, 10.0, 33)
        scalars = np.array([schedule.beta(t) for t in times.tolist()])
        assert schedule.beta(times).tobytes() == scalars.tobytes()

    @pytest.mark.parametrize("make, match", [
        (lambda: anneal.GemanGeman(p=1e-320, n_spins=4, t_final=10.0),
         "schedule beta(10) = inf is not finite"),
        (lambda: anneal.GemanGeman(p=1e-320, n_spins=4, t_final=1e-300),
         "schedule beta_dot(0) = inf is not finite"),
        (lambda: anneal.ExponentialBeta(1.0, 1000.0, 10.0),
         "schedule beta(10) = inf is not finite"),
        (lambda: anneal.ExponentialBeta(1e300, 1e10, 1e-10),
         "schedule beta_dot(0) = inf is not finite"),
        (lambda: anneal.LinearBeta(0.0, 1e308, 1e-10),
         "schedule beta_dot(0) = inf is not finite"),
    ], ids=["geman-beta", "geman-beta-dot", "exponential-beta", "exponential-beta-dot",
            "linear-beta-dot"])
    def test_rejects_values_that_are_not_finite(self, make, match):
        with pytest.raises(ValueError, match=re.escape(match)):
            make()

    @pytest.mark.parametrize("schedule", [
        anneal.LinearBeta(0.0, 2.0, 10.0),
        anneal.ExponentialBeta(0.1, 0.3, 5.0),
        anneal.GemanGeman(p=2.0, n_spins=4, t_final=100.0),
    ])
    def test_derivative_matches_central_difference(self, schedule):
        eps = 1e-5
        for t in np.linspace(eps, schedule.t_final - eps, 17):
            numeric = (schedule.beta(t + eps) - schedule.beta(t - eps)) / (2 * eps)
            analytic = schedule.beta_dot(t)
            scale = max(abs(analytic), 1e-12)
            assert abs(numeric - analytic) / scale <= 1e-6

    @pytest.mark.parametrize("schedule", [
        anneal.LinearBeta(0.0, 2.0, 10.0),
        anneal.ExponentialBeta(0.1, 0.3, 5.0),
        anneal.GemanGeman(p=2.0, n_spins=4, t_final=100.0),
    ])
    def test_nondecreasing(self, schedule):
        betas = [schedule.beta(t) for t in np.linspace(0, schedule.t_final, 33)]
        assert np.all(np.diff(betas) >= 0)

    def test_geman_closed_form(self):
        schedule = anneal.GemanGeman(p=2.0, n_spins=4, t_final=1e4)
        assert schedule.beta(0.0) == 0.0  # log(1) with unit offset
        assert abs(schedule.beta(99.0) - math.log(100.0) / 8.0) <= 1e-15

    def test_validation(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            anneal.LinearBeta(2.0, 1.0, 10.0)
        with pytest.raises(ValueError):
            anneal.LinearBeta(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            anneal.GemanGeman(p=0.0, n_spins=4, t_final=10.0)
        with pytest.raises(ValueError):
            anneal.GemanGeman(p=1.0, n_spins=4, t_final=10.0, t_offset=0.5)
        with pytest.raises(ValueError):
            anneal.ExponentialBeta(-0.1, 0.2, 5.0)
        for make in (lambda: anneal.LinearBeta(0.0, math.nan, 10.0),
                     lambda: anneal.LinearBeta(0.0, 1.0, math.nan),
                     lambda: anneal.ExponentialBeta(0.1, math.inf, 5.0),
                     lambda: anneal.GemanGeman(p=math.nan, n_spins=4, t_final=10.0)):
            with pytest.raises(ValueError):
                make()

    @pytest.mark.parametrize("kwargs, match", [
        ({"p": math.inf}, "p must be finite and positive, got inf"),
        ({"t_offset": math.inf}, "t_offset must be finite and >= 1, got inf"),
        ({"t_offset": math.nan}, "t_offset must be finite and >= 1, got nan"),
        ({"n_spins": 0}, "n_spins must be at least 1, got 0"),
        ({"n_spins": 2.5}, "n_spins must be an integer"),
    ], ids=["p-inf", "offset-inf", "offset-nan", "no-spins", "fractional-spins"])
    def test_geman_rejects_with_one_line(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            anneal.GemanGeman(**{"p": 1.0, "n_spins": 4, "t_final": 10.0, **kwargs})


class TestMasterEngine:
    @pytest.mark.parametrize(
        "rule", [markov.HEAT_BATH, markov.METROPOLIS, markov.UniformRate(0.1)],
        ids=["heatbath", "metropolis", "uniform"])
    def test_frozen_schedule_matches_fixed_temperature_integrator(self, rule):
        beta = 0.8
        gen = markov.build_generator(CHAIN4, beta, rule)
        p0 = np.zeros(16)
        p0[2] = 1.0
        fixed = markov.evolve_master(gen, p0, t_final=3.0, dt=0.005)
        frozen = anneal.evolve_master_timedep(CHAIN4, rule,
                                              anneal.frozen_schedule(beta, 3.0),
                                              p0, 0.005, n_samples=10)
        assert np.abs(frozen.states[-1] - fixed.states[-1]).max() <= 1e-10

    def test_slow_anneal_reaches_ground_pair(self):
        model = spins.chain_model(6, [1.0] * 6)
        p0 = np.full(64, 1.0 / 64.0)
        traj = anneal.evolve_master_timedep(model, markov.HEAT_BATH,
                                            anneal.LinearBeta(0.0, 3.0, 200.0),
                                            p0, 0.0125, n_samples=100)
        assert traj.ground_probability[-1] >= 0.9

    def test_logarithmic_schedule_ground_probability_increases(self, geman_run):
        _, _, trajectory = geman_run
        final_decade = trajectory.times >= trajectory.times[-1] / 10.0
        ground = trajectory.ground_probability[final_decade]
        assert ground.size > 100
        assert np.all(np.diff(ground) > 0)

    def test_probability_drift_rejected(self):
        with pytest.raises(ValueError, match="dt"):
            anneal.evolve_master_timedep(CHAIN4, markov.HEAT_BATH,
                                         anneal.LinearBeta(0.0, 1.0, 5.0),
                                         UNIFORM16, 0.5)

    def test_rejects_nan_start(self):
        p0 = np.zeros(16)
        p0[:2] = [math.nan, 1.0]
        with pytest.raises(ValueError, match="NaN probability entry"):
            anneal.evolve_master_timedep(CHAIN4, markov.HEAT_BATH,
                                         anneal.LinearBeta(0.0, 1.0, 1.0), p0, 0.01)

    def test_runs_beyond_the_command_line_cap(self):
        # the engines share evolve_master's N x 2^N arrays, capped at 16 spins, not 10
        model = spins.chain_model(11, [1.0] * 11)
        p0 = np.full(2048, 1 / 2048)
        fixed = markov.evolve_master(markov.build_generator(model, 0.7, markov.HEAT_BATH),
                                     p0, t_final=0.05, dt=0.005)
        frozen = anneal.evolve_master_timedep(model, markov.HEAT_BATH,
                                              anneal.frozen_schedule(0.7, 0.05), p0, 0.005)
        assert np.array_equal(frozen.states[-1], fixed.states[-1])


class TestTransformationIdentity:
    def test_master_and_imaginary_agree_in_direction(self):
        schedule = anneal.LinearBeta(0.0, 2.0, 5.0)
        traj_m = anneal.evolve_master_timedep(CHAIN4, markov.HEAT_BATH, schedule,
                                              UNIFORM16, 0.002, n_samples=100)
        traj_i = anneal.evolve_imaginary_schrodinger(CHAIN4, markov.HEAT_BATH,
                                                     schedule, FLAT16, 0.002,
                                                     n_samples=100)
        assert anneal.master_imaginary_deviation(traj_m, traj_i, CHAIN4) <= 1e-6
        # the two engines also report the same classical ground probability
        assert np.abs(traj_m.ground_probability
                      - traj_i.ground_probability).max() <= 1e-9

    def test_state_difference_shrinks_sixteenfold_per_halving(self):
        schedule = anneal.LinearBeta(0.0, 2.0, 10.0)
        deviations = []
        for dt in (0.02, 0.01, 0.005, 0.0025):
            tm = anneal.evolve_master_timedep(CHAIN4, markov.HEAT_BATH, schedule,
                                              UNIFORM16, dt, n_samples=50)
            ti = anneal.evolve_imaginary_schrodinger(CHAIN4, markov.HEAT_BATH,
                                                     schedule, FLAT16, dt,
                                                     n_samples=50)
            deviations.append(
                anneal.master_imaginary_state_difference(tm, ti, CHAIN4))
        ratios = [a / b for a, b in zip(deviations, deviations[1:])]
        assert all(8.0 <= r <= 32.0 for r in ratios)

    def test_identity_holds_for_metropolis_rule(self):
        schedule = anneal.LinearBeta(0.0, 1.5, 2.0)
        tm = anneal.evolve_master_timedep(CHAIN4, markov.METROPOLIS, schedule,
                                          UNIFORM16, 0.002, n_samples=40)
        ti = anneal.evolve_imaginary_schrodinger(CHAIN4, markov.METROPOLIS,
                                                 schedule, FLAT16, 0.002,
                                                 n_samples=40)
        assert anneal.master_imaginary_deviation(tm, ti, CHAIN4) <= 1e-6

    def test_requires_matching_sample_times(self):
        schedule = anneal.LinearBeta(0.0, 1.0, 2.0)
        tm = anneal.evolve_master_timedep(CHAIN4, markov.HEAT_BATH, schedule,
                                          UNIFORM16, 0.01, n_samples=10)
        ti = anneal.evolve_imaginary_schrodinger(CHAIN4, markov.HEAT_BATH, schedule,
                                                 FLAT16, 0.01, n_samples=20)
        with pytest.raises(ValueError, match="sample times"):
            anneal.master_imaginary_deviation(tm, ti, CHAIN4)


class TestImaginaryEngine:
    def test_frozen_flow_converges_to_instantaneous_ground(self):
        traj = anneal.evolve_imaginary_schrodinger(CHAIN4, markov.HEAT_BATH,
                                                   anneal.frozen_schedule(0.5, 100.0),
                                                   FLAT16, 0.02)
        assert traj.overlap[-1] >= 1.0 - 1e-8
        assert traj.log_norm_decrement[-1] != 0.0

    def test_beta_derivative_term_measurable_at_fast_schedules(self):
        def deficit(t_final, dt):
            schedule = anneal.LinearBeta(0.0, 0.5, t_final)
            exact = anneal.evolve_imaginary_schrodinger(
                CHAIN4, markov.HEAT_BATH, schedule, FLAT16, dt, n_samples=50)
            omitted = anneal.evolve_imaginary_schrodinger(
                CHAIN4, markov.HEAT_BATH, schedule, FLAT16, dt, n_samples=50,
                include_beta_derivative=False)
            worst = 0.0
            for a, b in zip(exact.states, omitted.states):
                worst = max(worst, 1.0 - abs(float(np.dot(a, b))))
            return worst

        assert deficit(1.0, 0.002) > 1e-3       # fast: the term matters
        assert deficit(1000.0, 0.02) < 1e-6     # slow: negligible


class TestRealEngine:
    def test_frozen_ground_state_is_stationary(self):
        beta = 0.5
        x = -0.5 * beta * spins.energy_table(CHAIN4)
        ground = np.exp(x - x.max())
        traj = anneal.evolve_real_schrodinger(CHAIN4, markov.HEAT_BATH,
                                              anneal.frozen_schedule(beta, 20.0),
                                              ground.astype(complex), 0.01)
        assert traj.overlap.min() >= 1.0 - 1e-8

    def test_norm_conserved_on_moderate_run(self):
        traj = anneal.evolve_real_schrodinger(CHAIN4, markov.HEAT_BATH,
                                              anneal.LinearBeta(0.0, 0.5, 10.0),
                                              FLAT16.astype(complex), 0.005)
        norms = np.abs(np.linalg.norm(traj.states, axis=1) - 1.0)
        assert norms.max() <= 1e-6

    def test_two_level_oscillation_period(self):
        ham = oracles.mapped_chain_hamiltonian(4, 0.5, markov.HEAT_BATH)
        evals, vecs = spectral.eig_sym(ham.matrix)
        gap = evals[1] - evals[0]
        mix = (vecs[:, 0] + vecs[:, 1]) / math.sqrt(2.0)
        period = 2.0 * math.pi / gap
        traj = anneal.evolve_real_schrodinger(CHAIN4, markov.HEAT_BATH,
                                              anneal.frozen_schedule(0.5, period),
                                              mix.astype(complex), period / 4096,
                                              n_samples=256)
        with_initial = np.abs(traj.states @ mix) ** 2
        # full revival at one period pins the period to better than 1%
        assert with_initial[-1] >= 1.0 - 1e-4
        half = np.argmin(np.abs(traj.times - period / 2.0))
        assert with_initial[half] <= 1e-3

    def test_adiabatic_and_diabatic_regimes(self):
        gap_min = 1.0 - math.tanh(1.0)  # smallest gap along the path, at beta = 0.5
        slow_t = 500.0
        fast_t = 0.2
        assert slow_t > 10.0 / gap_min ** 2 and fast_t < 0.1 / gap_min
        slow = anneal.evolve_real_schrodinger(CHAIN4, markov.HEAT_BATH,
                                              anneal.LinearBeta(0.0, 0.5, slow_t),
                                              FLAT16.astype(complex), 0.02,
                                              n_samples=20)
        assert slow.overlap[-1] >= 0.99
        fast = anneal.evolve_real_schrodinger(CHAIN4, markov.HEAT_BATH,
                                              anneal.LinearBeta(0.0, 0.5, fast_t),
                                              FLAT16.astype(complex), 0.002,
                                              n_samples=20)
        assert fast.overlap[-1] < 0.9

    def test_matches_propagator_on_complex_state(self):
        # a complex start tells exp(-iHt) from its conjugate exp(+iHt),
        # which |.|^2 observables on real starts cannot
        beta, t_final = 0.5, 2.0
        rng = np.random.default_rng(7)
        phi0 = rng.normal(size=16) + 1j * rng.normal(size=16)
        phi0 /= np.linalg.norm(phi0)
        ham = quantum.assemble_direct(CHAIN4, beta, markov.HEAT_BATH).matrix
        exact = scipy.linalg.expm(-1j * ham * t_final) @ phi0
        traj = anneal.evolve_real_schrodinger(CHAIN4, markov.HEAT_BATH,
                                              anneal.frozen_schedule(beta, t_final),
                                              phi0, 0.005)
        assert np.abs(traj.states[-1] - exact).max() <= 1e-8

    def test_norm_drift_aborts_with_guidance(self):
        # top eigenvector of the infinite-temperature Hamiltonian maximizes
        # the per-step RK4 norm decay
        signs = np.array([(-1.0) ** bin(i).count("1") for i in range(16)])
        top = (signs / 4.0).astype(complex)
        with pytest.raises(RuntimeError, match="reduce dt"):
            anneal.evolve_real_schrodinger(CHAIN4, markov.HEAT_BATH,
                                           anneal.frozen_schedule(0.0, 600.0),
                                           top, 0.0249)


class TestSharedDriver:
    ENGINES = {
        "master": lambda rule, schedule, dt: anneal.evolve_master_timedep(
            CHAIN4, rule, schedule, UNIFORM16, dt),
        "imaginary": lambda rule, schedule, dt: anneal.evolve_imaginary_schrodinger(
            CHAIN4, rule, schedule, FLAT16, dt),
        "real": lambda rule, schedule, dt: anneal.evolve_real_schrodinger(
            CHAIN4, rule, schedule, FLAT16.astype(complex), dt),
        "imaginary-no-beta-dot": lambda rule, schedule, dt:
            anneal.evolve_imaginary_schrodinger(CHAIN4, rule, schedule, FLAT16, dt,
                                                include_beta_derivative=False),
    }

    @pytest.mark.parametrize("n_samples", [0, -3])
    @pytest.mark.parametrize("engine, state", [
        (anneal.evolve_master_timedep, UNIFORM16),
        (anneal.evolve_imaginary_schrodinger, FLAT16),
        (anneal.evolve_real_schrodinger, FLAT16.astype(complex)),
    ], ids=["master", "imaginary", "real"])
    def test_rejects_fewer_than_one_sample(self, engine, state, n_samples):
        with pytest.raises(ValueError, match=f"n_samples must be positive, got {n_samples}"):
            engine(CHAIN4, markov.HEAT_BATH, anneal.LinearBeta(0.0, 1.0, 1.0), state, 0.01,
                   n_samples=n_samples)

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_one_operator_build_per_chunk(self, engine):
        rule = CountingHeatBath()
        schedule = CountingSchedule(anneal.LinearBeta(0.0, 1.0, 2.0))
        n_steps = 300
        chunk = markov._CHUNK_ENTRIES // CHAIN4.n_states
        self.ENGINES[engine](rule, schedule, 2.0 / n_steps)
        builds = 2 + math.ceil(n_steps / chunk)  # the probes, t = 0, then one per chunk
        assert rule.rate_calls == builds
        # one schedule call per build, and one for the betas of the sample times
        assert schedule.calls == {"beta": builds + 1,
                                  "beta_dot": builds if engine in ("imaginary", "real") else 0}

    @pytest.mark.parametrize("stage", ["generator", "imaginary", "real"])
    @pytest.mark.parametrize("chunks", [(0, 1), (1, -1), (1, 0), (1, 1), (3, 2)],
                             ids=["1", "c-1", "c", "c+1", "3c+2"])  # n_steps = a c + b
    def test_chunked_driver_matches_per_stage_loop(self, stage, chunks):
        system = markov._FlipSystem(CHAIN4, markov.METROPOLIS)
        schedule = anneal.LinearBeta(0.2, 0.23, 0.01)  # one step of h = 0.01 is stable
        scale = {"generator": None, "imaginary": -1.0, "real": -1j}[stage]

        def operator(beta, beta_dot):
            if scale is None:
                return system.generator(beta)
            return system.hamiltonian(beta, beta_dot, scale)

        def operators_at(times):
            return operator(np.array([schedule.beta(t) for t in times]),
                            np.array([schedule.beta_dot(t) for t in times]))

        def operator_at(t):
            return operator(schedule.beta(t), schedule.beta_dot(t))

        n_steps = chunks[0] * (markov._CHUNK_ENTRIES // CHAIN4.n_states) + chunks[1]
        h = schedule.t_final / n_steps
        y = FLAT16.astype(complex if stage == "real" else float)
        reference, start = [], operator_at(0.0)
        for step in range(1, n_steps + 1):
            mid, end = operator_at((step - 0.5) * h), operator_at(step * h)
            k1 = start(y)
            k2 = mid(y + 0.5 * h * k1)
            k3 = mid(y + 0.5 * h * k2)
            k4 = end(y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            reference.append((step, step * h, y))
            start = end

        driven = []
        times, states, kept = markov._rk4(
            operators_at, FLAT16.astype(y.dtype), schedule.t_final, h, 1,
            lambda step, n, t, y: driven.append((step, t, y)))
        assert len(driven) == n_steps
        for (step, t, y), (ref_step, ref_t, ref_y) in zip(driven, reference):
            assert (step, t) == (ref_step, ref_t)
            assert y.tobytes() == ref_y.tobytes()
        # stride 1 keeps the start and every step
        assert times.tolist() == [0.0] + [t for _, t, _ in reference]
        assert states[0].tobytes() == FLAT16.astype(y.dtype).tobytes()
        assert states[1:].tobytes() == np.array([y for _, _, y in reference]).tobytes()
        assert not kept.any()

    @pytest.mark.parametrize("engine", [anneal.evolve_imaginary_schrodinger,
                                        anneal.evolve_real_schrodinger])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_nonfinite_start(self, engine, value):
        phi0 = FLAT16.copy()
        phi0[3] = value
        with pytest.raises(ValueError, match="phi0 must be nonzero and finite"):
            engine(CHAIN4, markov.HEAT_BATH, anneal.LinearBeta(0.0, 1.0, 1.0), phi0, 0.01)

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0])
    def test_rejects_bad_dt(self, engine, dt):
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            self.ENGINES[engine](markov.HEAT_BATH, anneal.LinearBeta(0.0, 1.0, 2.0), dt)

    @pytest.mark.parametrize("h_over_dt", [0.6, 1.4])
    def test_stability_guard_uses_the_larger_of_dt_and_h(self, h_over_dt):
        # t_final = h_over_dt * dt rounds to one step of h = t_final; the
        # larger of dt and h puts the margin at 0.11, the smaller below 0.1
        max_rate = 2.0  # heat-bath outflow at beta = 0: four sites at rate 1/2
        dt = 0.11 / max_rate / max(1.0, h_over_dt)
        t_final = h_over_dt * dt
        gen = markov.build_generator(CHAIN4, 0.0, markov.HEAT_BATH)
        with pytest.raises(ValueError, match="too large for stability"):
            markov.evolve_master(gen, UNIFORM16, t_final, dt)
        with pytest.raises(ValueError, match="too large for stability"):
            anneal.evolve_master_timedep(CHAIN4, markov.HEAT_BATH,
                                         anneal.frozen_schedule(0.0, t_final),
                                         UNIFORM16, dt)

    STABILITY_RUNS = {
        "master": lambda t_final, dt: markov.evolve_master(
            markov.build_generator(CHAIN4, 0.0, markov.HEAT_BATH), UNIFORM16, t_final, dt),
        # |beta_dot H0 / 2| = 0.8 / t_final on the ground pair, ten times the outflow
        "imaginary": lambda t_final, dt: anneal.evolve_imaginary_schrodinger(
            CHAIN4, markov.HEAT_BATH, anneal.LinearBeta(0.0, 0.4, t_final),
            FLAT16, dt),
    }

    @pytest.mark.parametrize("run", sorted(STABILITY_RUNS))
    @pytest.mark.parametrize("h_over_dt", [0.6, 1.4])
    def test_suggested_dt_passes_the_stability_guard(self, run, h_over_dt):
        # at h_over_dt = 1.4, dt = 0.1 / max rate still rounds to one step
        # of h = t_final > dt, so the hint must account for h
        dt = 0.11 / 2.0 / max(1.0, h_over_dt)
        t_final = h_over_dt * dt
        with pytest.raises(ValueError, match="use dt <=") as err:
            self.STABILITY_RUNS[run](t_final, dt)
        suggested = float(str(err.value).rsplit("<= ", 1)[1])
        traj = self.STABILITY_RUNS[run](t_final, suggested)
        assert traj.times[-1] == pytest.approx(t_final)


class TestSampling:
    RUNS = {
        "master": lambda model, schedule, dt, n_samples: anneal.evolve_master_timedep(
            model, markov.HEAT_BATH, schedule, np.full(model.n_states, 1.0 / model.n_states),
            dt, n_samples=n_samples),
        "imaginary": lambda model, schedule, dt, n_samples: anneal.evolve_imaginary_schrodinger(
            model, markov.HEAT_BATH, schedule, np.ones(model.n_states), dt,
            n_samples=n_samples),
        # a complex start whose overlap with sqrt(P0) is far from 0 and 1
        "real": lambda model, schedule, dt, n_samples: anneal.evolve_real_schrodinger(
            model, markov.HEAT_BATH, schedule,
            np.exp(1j * np.arange(model.n_states)) + 1.0, dt, n_samples=n_samples),
    }

    @pytest.mark.parametrize("engine", sorted(RUNS))
    @pytest.mark.parametrize("model", [CHAIN4, FRUSTRATED5], ids=["chain4", "frustrated5"])
    def test_diagnostics_match_per_sample_oracle(self, engine, model):
        trajectory = self.RUNS[engine](model, anneal.LinearBeta(0.0, 2.0, 2.0), 0.005, 40)
        assert trajectory.n_samples == 41
        for beta, state, ground, overlap in zip(trajectory.betas, trajectory.states,
                                                trajectory.ground_probability,
                                                trajectory.overlap):
            want_ground, want_overlap = oracles.anneal_sample(engine, model, beta, state)
            assert abs(ground - want_ground) <= 1e-14
            assert abs(overlap - want_overlap) <= 1e-14

    @pytest.mark.parametrize("engine", sorted(RUNS))
    @pytest.mark.parametrize("n_samples", [1, 7, 99, 100, 103])  # n_steps = 100
    def test_samples_start_every_stride_and_last(self, engine, n_samples):
        n_steps = 100
        trajectory = self.RUNS[engine](CHAIN4, anneal.LinearBeta(0.0, 1.0, 1.0),
                                       1.0 / n_steps, n_samples)
        stride = max(1, n_steps // n_samples)
        steps = sorted({0, n_steps} | set(range(0, n_steps + 1, stride)))
        assert trajectory.times.tolist() == [step * (1.0 / n_steps) for step in steps]

    @pytest.mark.parametrize("engine", sorted(RUNS))
    def test_samples_are_rows_of_the_every_step_run(self, engine):
        """A sparser run keeps the same states and log-norm decrements at its steps."""
        schedule = anneal.LinearBeta(0.0, 1.0, 1.0)
        every = self.RUNS[engine](CHAIN4, schedule, 0.01, 100)
        sparse = self.RUNS[engine](CHAIN4, schedule, 0.01, 7)
        rows = [0, *range(14, 100, 14), 100]
        for field in ("times", "betas", "states", "log_norm_decrement"):
            assert getattr(sparse, field).tobytes() == getattr(every, field)[rows].tobytes()
        assert (every.log_norm_decrement[1:] != 0.0).all() == (engine == "imaginary")

    @pytest.mark.parametrize("engine", sorted(RUNS))
    def test_tilts_per_run_do_not_grow_with_samples(self, engine, monkeypatch):
        tilt, calls = spins._tilt, []
        monkeypatch.setattr(spins, "_tilt", lambda energies, s: calls.append(s) or
                            tilt(energies, s))
        counts = []
        for n_samples in (2, 50):
            calls.clear()
            self.RUNS[engine](CHAIN4, anneal.LinearBeta(0.0, 1.0, 1.0), 0.01, n_samples)
            counts.append(len(calls))
        assert counts[0] == counts[1]


class TestScalarScheduleParity:
    """Runs on the array closed forms against the same runs on the scalar math forms,
    evaluated one stage time at a time: bit for bit for a linear schedule, whose two
    forms round alike, and within 1e-14 where np.exp and np.log differ from math by
    a few ulps."""

    SCHEDULES = {"linear": (anneal.LinearBeta(0.1, 2.0, 2.0), 0.0),
                 "exponential": (anneal.ExponentialBeta(0.1, 1.3, 2.0), 1e-14),
                 "geman": (anneal.GemanGeman(p=0.05, n_spins=5, t_final=2.0), 1e-14)}
    FIELDS = ("times", "betas", "states", "ground_probability", "overlap",
              "log_norm_decrement")

    RUNS = {  # every engine variant from the uniform state, heat-bath rates
        "master": lambda model, schedule, dt: anneal.evolve_master_timedep(
            model, markov.HEAT_BATH, schedule, np.full(model.n_states, 1.0 / model.n_states), dt,
            n_samples=50),
        "imaginary": lambda model, schedule, dt: anneal.evolve_imaginary_schrodinger(
            model, markov.HEAT_BATH, schedule, np.ones(model.n_states), dt, n_samples=50),
        "imaginary-no-beta-dot": lambda model, schedule, dt: anneal.evolve_imaginary_schrodinger(
            model, markov.HEAT_BATH, schedule, np.ones(model.n_states), dt, n_samples=50,
            include_beta_derivative=False),
        "real": lambda model, schedule, dt: anneal.evolve_real_schrodinger(
            model, markov.HEAT_BATH, schedule, np.ones(model.n_states, dtype=complex), dt,
            n_samples=50),
    }

    @pytest.mark.parametrize("model", [CHAIN4, FRUSTRATED5], ids=["chain4", "frustrated5"])
    @pytest.mark.parametrize("name", sorted(SCHEDULES))
    def test_engines_match_the_scalar_forms(self, name, model):
        schedule, tol = self.SCHEDULES[name]
        runs = {}
        for engine, run in self.RUNS.items():
            array = run(model, schedule, 0.002)
            scalar = run(model, oracles.ScalarSchedule(schedule), 0.002)
            for field in self.FIELDS:
                got, want = getattr(array, field), getattr(scalar, field)
                if tol == 0.0:
                    assert got.tobytes() == want.tobytes(), (engine, field)
                else:
                    assert np.abs(got - want).max() <= tol, (engine, field)
            runs[engine] = array, scalar
        for measure in (anneal.master_imaginary_deviation,
                        anneal.master_imaginary_state_difference):
            got, want = (measure(runs["master"][i], runs["imaginary"][i], model)
                         for i in (0, 1))
            assert abs(got - want) <= tol


class TestTrajectoryInvariants:
    def test_sampled_quantities_well_formed(self, geman_run):
        _, schedule, trajectory = geman_run
        assert trajectory.engine == "master"
        assert np.all(trajectory.ground_probability >= 0.0)
        assert np.all(trajectory.ground_probability <= 1.0)
        assert np.all(np.diff(trajectory.times) > 0)
        assert np.abs(trajectory.states.sum(axis=1) - 1.0).max() <= 1e-6
        expected_beta = [schedule.beta(t) for t in trajectory.times]
        assert np.abs(trajectory.betas - expected_beta).max() == 0.0
