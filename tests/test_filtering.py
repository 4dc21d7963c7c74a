import collections
import dataclasses
import itertools
import math
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odefilter import cli, filtering
from odefilter.filtering import (
    Belief,
    NonIntegerMesh,
    PerturbedInit,
    SingularInnovation,
    covariance_prefixes,
    gain,
    initial_covariance,
    initialize,
    solve,
)
from odefilter.noise import PowerLawNoise, parse_noise
from odefilter.priors import PriorSpec, TransitionModel, ibm_transition
from odefilter.problems import IVProblem, MissingDerivative, get_problem, logistic, riccati
from odefilter.steady_state import order_bound_prefixes
import oracles
from oracles import (
    DivergedEvaluation,
    covariance_pass,
    evaluate_data,
    full_pass_solve,
    ibm_covariance_pass_mp,
    predict,
    track_steps,
    update,
    validate_belief,
)

SQRT10 = math.sqrt(10.0)

GOLDEN_Q = np.array([[1 / 300, 1 / 20], [1 / 20, 1.0]])


def constant_field_problem(c=0.5, x0=2.0, T=8.0):
    cv = np.array([c])
    return IVProblem(
        name="constant",
        d=1,
        f=lambda x: cv.copy(),
        derivatives=(
            lambda x: np.asarray(x, dtype=float),
            lambda x: np.full(np.shape(x), c),
            lambda x: np.zeros(np.shape(x)),
            lambda x: np.zeros(np.shape(x)),
            lambda x: np.zeros(np.shape(x)),
        ),
        x0=np.array([x0]),
        T=T,
        exact=lambda ts: (x0 + c * ts)[:, None],
    )


class TestInitialize:
    def test_riccati_dirac(self):
        belief = initialize(riccati(), PriorSpec(1, sigma=SQRT10), 0.1)
        np.testing.assert_array_equal(belief.m.ravel(), [1.0, -0.5])
        assert np.all(belief.P == 0.0)

    def test_logistic_dirac(self):
        belief = initialize(logistic(), PriorSpec(1, sigma=50.0), 0.1)
        np.testing.assert_allclose(belief.m.ravel(), [0.1, 0.27], atol=1e-16)

    def test_perturbed_with_zero_k0_is_exact(self):
        prior = PriorSpec(2, sigma=1.0)
        exact = initialize(logistic(), prior, 0.1, PerturbedInit(0.0))
        perturbed = initialize(logistic(), prior, 0.1, PerturbedInit(k0=0.0, seed=3))
        np.testing.assert_array_equal(exact.m, perturbed.m)
        np.testing.assert_array_equal(exact.P, perturbed.P)

    @pytest.mark.parametrize("seed", range(10))
    def test_perturbed_envelope(self, seed):
        q, h, k0 = 2, 0.2, 0.7
        prior = PriorSpec(q, sigma=1.0)
        exact = initialize(logistic(), prior, h, PerturbedInit(0.0))
        belief = initialize(logistic(), prior, h, PerturbedInit(k0=k0, seed=seed))
        for i in range(q + 1):
            bound = k0 * h ** (q + 1 - i)
            assert np.all(np.abs(belief.m[i] - exact.m[i]) <= bound)
        for k in range(q + 1):
            for ell in range(q + 1):
                expected = k0 * h ** (2 * q + 1 - k - ell)
                assert belief.P[k, ell] == pytest.approx(expected, rel=1e-12)
        validate_belief(belief)

    def test_exact_start_is_a_zero_width_perturbed_start(self):
        # Maps that keep the sign of a zero (the packaged Horner maps turn
        # -0.0 into +0.0), so every start derivative is -0.0.
        problem = dataclasses.replace(
            logistic(),
            x0=np.array([-0.0]),
            derivatives=(
                lambda x: np.asarray(x, dtype=float),
                lambda x: 3.0 * x * (1.0 - x),
                lambda x: (3.0 - 6.0 * x) * 3.0 * x * (1.0 - x),
            ),
        )
        expected = np.stack([g(problem.x0) for g in problem.derivatives])
        assert np.signbit(expected).all()
        for seed in (0, 1, 7):
            belief = initialize(problem, PriorSpec(2), 0.1, PerturbedInit(0.0, seed=seed))
            assert belief.m.tobytes() == expected.tobytes()
            assert belief.P.tobytes() == np.zeros((3, 3)).tobytes()  # a Dirac, all +0.0

    @pytest.mark.parametrize("name, q", [("logistic", 2), ("linear", 3)])
    def test_zero_width_start_does_not_depend_on_the_seed(self, name, q):
        args = (get_problem(name), PriorSpec(q), 0.05, parse_noise("zero"))
        first, *rest = (solve(*args, PerturbedInit(0.0, seed=seed)) for seed in (0, 1, 7))
        for traj in rest:
            assert traj.initial.m.tobytes() == first.initial.m.tobytes()
            assert_same_bytes(traj, first)

    def test_missing_derivative(self):
        stub = IVProblem(
            name="stub",
            d=1,
            f=lambda x: -x,
            derivatives=(lambda x: np.asarray(x, dtype=float), lambda x: -x),
            x0=np.array([1.0]),
            T=1.0,
        )
        with pytest.raises(MissingDerivative):
            initialize(stub, PriorSpec(3), 0.1)


class TestPredict:
    def test_riccati_first_step_mean(self):
        belief = initialize(riccati(), PriorSpec(1, sigma=SQRT10), 0.1)
        pred = predict(belief, ibm_transition(1, SQRT10, 0.1))
        np.testing.assert_allclose(pred.m.ravel(), [19 / 20, -0.5], atol=1e-16)

    def test_riccati_first_step_covariance_is_q(self):
        belief = initialize(riccati(), PriorSpec(1, sigma=SQRT10), 0.1)
        pred = predict(belief, ibm_transition(1, SQRT10, 0.1))
        np.testing.assert_allclose(pred.P, GOLDEN_Q, atol=1e-15)

    def test_identity_transition_is_noop(self):
        belief = Belief(t=0.0, m=np.array([[1.0], [2.0]]), P=np.array([[0.5, 0.1], [0.1, 0.3]]))
        from odefilter.priors import TransitionModel

        tm = TransitionModel(h=1.0, A=np.eye(2), Q=np.zeros((2, 2)))
        pred = predict(belief, tm)
        np.testing.assert_array_equal(pred.m, belief.m)
        np.testing.assert_allclose(pred.P, belief.P, atol=1e-16)


class TestEvaluateData:
    def test_riccati_value(self):
        y = evaluate_data(riccati().f, np.array([[19 / 20], [-0.5]]))
        assert y[0] == pytest.approx(-6859 / 16000, abs=1e-16)

    def test_constant_field(self):
        problem = constant_field_problem(c=3.25)
        y = evaluate_data(problem.f, np.array([[123.0], [0.0]]))
        assert y[0] == 3.25

    def test_logistic_at_capacity(self):
        y = evaluate_data(logistic().f, np.array([[1.0], [0.0]]))
        assert y[0] == 0.0

    def test_non_finite_raises(self):
        with pytest.raises(DivergedEvaluation):
            evaluate_data(lambda x: np.array([math.nan]), np.array([[1.0], [0.0]]))


class TestGain:
    def test_golden_gain_values(self):
        np.testing.assert_allclose(gain(GOLDEN_Q, 0.0), [1 / 20, 1.0], atol=1e-16)

    def test_huge_noise_kills_gain(self):
        beta = gain(GOLDEN_Q, 1e18)
        assert np.abs(beta).max() < 1e-15

    def test_matched_noise_halves_velocity_gain(self):
        beta = gain(GOLDEN_Q, GOLDEN_Q[1, 1])
        assert beta[1] == pytest.approx(0.5, abs=1e-16)

    def test_singular_innovation(self):
        with pytest.raises(SingularInnovation):
            gain(np.zeros((2, 2)), 0.0)


class TestUpdate:
    def pred_belief(self):
        return Belief(
            t=0.1,
            m=np.array([[19 / 20], [-0.5]]),
            P=GOLDEN_Q.copy(),
        )

    def test_golden_residual_and_mean(self):
        posterior, record = update(self.pred_belief(), np.array([-6859 / 16000]), 0.0)
        assert record.r[0] == pytest.approx(1141 / 16000, abs=1e-18)
        np.testing.assert_allclose(
            posterior.m.ravel(), [305141 / 320000, -6859 / 16000], atol=1e-16
        )

    def test_zero_noise_pins_velocity_to_data(self):
        y = np.array([-0.404])
        posterior, record = update(self.pred_belief(), y, 0.0)
        assert record.beta[1] == 1.0
        assert posterior.m[1, 0] == y[0]

    def test_zero_residual_keeps_mean(self):
        posterior, record = update(self.pred_belief(), np.array([-0.5]), 0.123)
        assert record.r[0] == 0.0
        np.testing.assert_array_equal(posterior.m, record.m_pred)

    @pytest.mark.parametrize("R", [0.0, 1e-4, 0.3, 7.0])
    def test_gain_covariance_identities(self, R):
        posterior, record = update(self.pred_belief(), np.array([-0.42]), R)
        P = posterior.P
        beta = record.beta
        assert abs(P[0, 1] - R * beta[0]) <= 1e-12
        assert abs(P[1, 1] - R * beta[1]) <= 1e-12


class TestSolve:
    def test_riccati_golden_step(self):
        traj = solve(riccati(), PriorSpec(1, sigma=SQRT10), 0.1, parse_noise("zero"))
        m_pred, m_post, beta = traj.m_pred[0], traj.m_post[0], traj.beta[0]
        assert abs(m_pred[0, 0] - 19 / 20) <= 1e-14
        assert abs(m_pred[1, 0] + 0.5) <= 1e-14
        assert np.abs(traj.P_pred[0] - GOLDEN_Q).max() <= 1e-14
        assert abs(traj.y[0, 0] + 6859 / 16000) <= 1e-14
        assert abs(beta[0] - 1 / 20) <= 1e-14
        assert abs(beta[1] - 1.0) <= 1e-14
        assert abs(traj.y[0, 0] - m_pred[1, 0] - 1141 / 16000) <= 1e-14
        assert abs(m_post[0, 0] - 305141 / 320000) <= 1e-14
        assert abs(m_post[1, 0] + 6859 / 16000) <= 1e-14

    def test_constant_field_reproduced_exactly(self):
        # Dyadic parameters so the float accumulation is itself exact.
        problem = constant_field_problem(c=0.5, x0=2.0, T=8.0)
        traj = solve(problem, PriorSpec(1, sigma=1.0), 0.25, parse_noise("zero"))
        assert np.all(traj.residual_norms() == 0.0)
        for n, m in enumerate(traj.m_post, start=1):
            assert m[0, 0] == 2.0 + 0.5 * (n * 0.25)

    def test_constant_field_generic_params(self):
        problem = constant_field_problem(c=0.37, x0=1.1, T=1.0)
        traj = solve(problem, PriorSpec(1, sigma=2.0), 0.1, parse_noise("zero"))
        assert np.all(traj.residual_norms() <= 1e-15)
        eps = np.abs(traj.m_post[:, 0, 0] - (1.1 + 0.37 * traj.times()[1:]))
        assert eps.max() <= 1e-14

    def test_error_drops_with_h(self):
        problem = logistic()
        prior = PriorSpec(1, sigma=1.0)
        errors = {}
        for h in (0.1, 0.01):
            traj = solve(problem, prior, h, parse_noise("zero"))
            errors[h] = abs(traj.m_post[-1, 0, 0] - problem.exact(np.array([problem.T]))[0, 0])
        assert errors[0.01] * 50.0 < errors[0.1]

    def test_non_integer_mesh(self):
        with pytest.raises(NonIntegerMesh):
            solve(logistic(), PriorSpec(1), 0.4, parse_noise("zero"))

    def test_q0_rejected(self):
        with pytest.raises(ValueError, match="q >= 1"):
            solve(logistic(), PriorSpec(0), 0.1, parse_noise("zero"))

    def test_mesh_times(self):
        traj = solve(logistic(), PriorSpec(1), 0.01, parse_noise("zero"))
        times = traj.times()
        assert len(traj.y) == 150
        spacings = np.diff(times)
        assert np.all(spacings > 0.0)
        np.testing.assert_allclose(spacings, 0.01, rtol=1e-12)

    def test_one_evaluation_per_step(self):
        problem = logistic()
        calls = []
        counted = IVProblem(
            name=problem.name,
            d=problem.d,
            f=lambda x: (calls.append(1), problem.f(x))[1],
            derivatives=problem.derivatives,
            x0=problem.x0,
            T=problem.T,
            exact=problem.exact,
        )
        solve(counted, PriorSpec(1), 0.1, parse_noise("zero"))
        assert len(calls) == 15

    def test_divergence_flags_partial_trajectory(self):
        blowup = IVProblem(
            name="blowup",
            d=1,
            f=lambda x: np.asarray(x, dtype=float) ** 2,
            derivatives=(
                lambda x: np.asarray(x, dtype=float),
                lambda x: np.asarray(x, dtype=float) ** 2,
            ),
            x0=np.array([30.0]),
            T=50.0,
            exact=None,
        )
        traj = solve(blowup, PriorSpec(1, sigma=1.0), 0.5, parse_noise("zero"))
        assert traj.diverged
        reached = len(traj.y)
        assert reached < 100
        arrays = (traj.m_pred, traj.y, traj.P_pred, traj.P_post, traj.beta, traj.m_post)
        assert [len(a) for a in arrays] == [reached] * 6
        assert len(traj.residual_norms()) == reached
        assert len(traj.times()) == len(traj.means()) == len(traj.covariances()) == reached + 1
        assert np.all(np.isfinite(traj.m_post))

    def test_arrays_are_read_only(self):
        traj = solve(get_problem("linear"), PriorSpec(2, sigma=1.0), 0.1, parse_noise("const:0.3"))
        for a in (traj.m_pred, traj.y, traj.P_pred, traj.P_post, traj.beta, traj.m_post):
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 1.0


class TestTrajectoryInvariants:
    @pytest.mark.parametrize(
        "name,q,sigma,noise",
        [
            ("logistic", 1, 50.0, parse_noise("zero")),
            ("logistic", 2, 50.0, PowerLawNoise(K_R=1.0, p=2.0)),
            ("riccati", 1, SQRT10, parse_noise("const:0.5")),
            ("linear", 1, 1.0, PowerLawNoise(K_R=1.0, p=1.0)),
            ("linear", 3, 1.0, parse_noise("zero")),
        ],
    )
    def test_psd_and_gain_bounds(self, name, q, sigma, noise):
        problem = get_problem(name)
        traj = solve(problem, PriorSpec(q, sigma=sigma), 0.1, noise)
        assert not traj.diverged
        h = traj.h
        R = noise.evaluate(h)
        for P_pred, P_post, beta in zip(traj.P_pred, traj.P_post, traj.beta):
            for P in (P_pred, P_post):
                assert np.abs(P - P.T).max() <= 1e-12
                floor = -1e-10 * max(np.trace(P), 0.0)
                assert np.linalg.eigvalsh(P).min() >= floor
            assert 0.0 <= beta[1] <= 1.0
            if q == 1:
                assert P_pred[1, 1] >= sigma**2 * h * (1 - 1e-12)
                assert abs(P_post[0, 1] - R * beta[0]) <= 1e-12
                assert abs(P_post[1, 1] - R * beta[1]) <= 1e-12

    @given(
        seed=st.integers(0, 10_000),
        q=st.integers(1, 3),
        log_sigma=st.floats(-1.0, 1.5),
        R=st.floats(0.0, 10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_update_preserves_psd(self, seed, q, log_sigma, R):
        rng = np.random.default_rng(seed)
        n = q + 1
        raw = rng.normal(size=(n, n))
        P0 = raw @ raw.T
        tm = ibm_transition(q, 10.0**log_sigma, 0.1)
        belief = Belief(t=0.0, m=np.zeros((n, 1)), P=P0)
        pred = predict(belief, tm)
        posterior, _ = update(pred, np.array([0.3]), R)
        w = np.linalg.eigvalsh(posterior.P)
        assert w.min() >= -1e-10 * max(np.trace(posterior.P), 1.0)
        assert np.abs(posterior.P - posterior.P.T).max() <= 1e-12


class TestCovariancePassAgainstMpmath:
    """float64 covariance recursion against the same recursion at 40 digits.

    The first min(1/h, 200) steps from P = 0, sigma = 1: every gain entry
    within 1e-12 relative, and every P_pred entry within 1e-12 of
    sqrt(P_ii P_jj).  An 80-digit reference gives the same float64 values.
    """

    @pytest.mark.parametrize("noise_spec", ["zero", "power:{q}:1"])
    @pytest.mark.parametrize("h", [1e-1, 1e-2, 1e-3, 1e-4])
    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
    def test_gains_and_predictive_covariances(self, q, h, noise_spec):
        R = parse_noise(noise_spec.format(q=q)).evaluate(h)
        n_steps = min(round(1.0 / h), 200)
        with mpmath.workdps(40):
            reference = ibm_covariance_pass_mp(q, 1.0, h, R, n_steps)
        steps = covariance_pass(ibm_transition(q, 1.0, h), R, np.zeros((q + 1, q + 1)))
        beta_err = P_err = 0.0
        for (P_pred, _, beta), (P_ref, beta_ref) in zip(steps, reference):
            scale = np.sqrt(np.diag(P_ref))
            beta_err = max(beta_err, np.max(np.abs(beta / beta_ref - 1.0)))
            P_err = max(P_err, np.max(np.abs(P_pred - P_ref) / np.outer(scale, scale)))
        assert beta_err <= 1e-12
        assert P_err <= 1e-12


class TestHighOrderRegression:
    """q = 5 runs finish on meshes down to h = 4.9e-5, the zero-noise ones to 1e-12."""

    @pytest.mark.parametrize("k", range(6, 12))
    @pytest.mark.parametrize("noise_spec", ["zero", "power:5:1"])
    @pytest.mark.parametrize("sigma", [1.0, 50.0])
    def test_logistic_q5(self, sigma, noise_spec, k):
        problem = get_problem("logistic")
        traj = solve(problem, PriorSpec(5, sigma=sigma), 0.1 * 2.0**-k, parse_noise(noise_spec))
        assert not traj.diverged
        final_error = np.abs(traj.m_post[-1, 0] - problem.exact(np.array([problem.T]))[0]).max()
        assert np.isfinite(final_error)
        if noise_spec == "zero":
            assert final_error <= 1e-12


def replay(problem, prior, h, noise):
    """The step kernel driven by hand: initialize, then predict / evaluate / update."""
    tm = prior.transition(h)
    R = noise.evaluate(h)
    belief = initialize(problem, prior, h)
    records = []
    for _ in range(round(problem.T / h)):
        pred = predict(belief, tm)
        y = evaluate_data(problem.f, pred.m)
        belief, record = update(pred, y, R)
        records.append(record)
    return records


class TestOneKernelReplay:
    @pytest.mark.parametrize(
        "name,q", [("logistic", 1), ("logistic", 2), ("logistic", 3), ("logistic", 4), ("linear", 2)]
    )
    @pytest.mark.parametrize("noise_spec", ["zero", "power:{q}:1"])
    def test_solve_arrays_equal_replay(self, name, q, noise_spec):
        problem = get_problem(name)
        prior = PriorSpec(q, sigma=1.0)
        noise = parse_noise(noise_spec.format(q=q))
        h = 0.1
        traj = solve(problem, prior, h, noise)
        records = replay(problem, prior, h, noise)
        assert not traj.diverged
        assert len(traj.y) == len(records)
        stacked = {
            field: np.stack([getattr(rec, field) for rec in records])
            for field in ("m_pred", "y", "P_pred", "P_post", "beta", "m_post")
        }
        np.testing.assert_array_equal(traj.m_pred, stacked["m_pred"])
        np.testing.assert_array_equal(traj.y, stacked["y"])
        np.testing.assert_array_equal(traj.m_post, stacked["m_post"])
        np.testing.assert_array_equal(traj.P_pred, stacked["P_pred"])
        np.testing.assert_array_equal(traj.P_post, stacked["P_post"])
        np.testing.assert_array_equal(traj.beta, stacked["beta"])


TRAJECTORY_ARRAYS = ("m_pred", "y", "P_pred", "P_post", "beta", "m_post")

#: The arrays a solve's trajectory builds on first read.
BUILT_ON_READ = ("m_pred", "y", "P_pred", "P_post", "beta")


def assert_same_bytes(traj, expected):
    """Every Trajectory array equal as bytes (so -0.0 and 0.0 differ, and NaNs compare)."""
    for field in TRAJECTORY_ARRAYS:
        assert getattr(traj, field).tobytes() == getattr(expected, field).tobytes(), field
    assert traj.diverged == expected.diverged


class TestGainSchedule:
    """solve copies the periodic covariance track; it must equal the full pass bit for bit."""

    #: The sigma each problem has in its presets (fig1, figC).
    SIGMA = {"logistic": 50.0, "linear": 1.0, "riccati": SQRT10}

    # Every cell at h = 0.1 and 0.025 except linear at 0.025 (the slowest),
    # plus logistic q = 4 at h = 0.003125: a short cell in which P_00 taken
    # from the row-0 product A[:1] P A[:1]^T, not the full A P A^T, differs.
    @pytest.mark.parametrize(
        "name, h, q",
        [(name, h, q) for name in ("logistic", "riccati") for h in (0.1, 0.025) for q in range(1, 6)]
        + [("linear", 0.1, q) for q in range(1, 6)]
        + [("logistic", 0.003125, 4)],
    )
    def test_arrays_equal_the_full_pass(self, name, h, q):
        problem = get_problem(name)
        for kind, theta in (("ibm", 0.0), ("ioup", 1.0)):
            prior = PriorSpec(q, kind, theta=theta, sigma=self.SIGMA[name])
            for noise_spec in ("zero", f"power:{q}:1", "const:0.25", "power:1:5000"):
                noise = parse_noise(noise_spec)
                for mode in (PerturbedInit(0.0), PerturbedInit(1.0, seed=3)):
                    traj = solve(problem, prior, h, noise, mode)
                    assert_same_bytes(traj, full_pass_solve(problem, prior, h, noise, mode))

    @pytest.mark.parametrize("name, q", [("logistic", 1), ("linear", 3)])
    def test_diverging_start_equals_the_full_pass(self, name, q):
        args = (get_problem(name), PriorSpec(q), 0.0125, parse_noise("zero"), PerturbedInit(1e300))
        traj = solve(*args)
        assert traj.diverged
        assert_same_bytes(traj, full_pass_solve(*args))

    def test_ends_at_the_last_finite_P00(self, monkeypatch):
        # The closed block (P_01, P_11) starts at a fixed point: P_11 is so far
        # below R, and P_01 so far above P_11 and Q, that neither moves.  It
        # repeats at step 1, while P_00 falls by P_01^2 / R = 1e306 per step
        # and overflows to -inf some 90 steps later.  The next full step would
        # be NaN (0 * inf), so the track, and the run, ends at the -inf step;
        # with a constant field every residual is 0 and the mean stays finite.
        problem = constant_field_problem(T=20.0)
        start = np.array([[0.0, 1e153], [1e153, 1e-17]])

        def crafted(problem, prior, h, mode):
            return Belief(t=0.0, m=np.array([[2.0], [0.5]]), P=start)

        monkeypatch.setattr(filtering, "initialize", crafted)
        monkeypatch.setattr(oracles, "initialize", crafted)
        args = (problem, PriorSpec(1, sigma=1e-17), 0.1, parse_noise("const:1.0"))
        traj, full = solve(*args), full_pass_solve(*args)
        n = len(traj.y)
        assert traj.diverged and 50 < n < 200 and len(full.y) == n + 1
        for field in TRAJECTORY_ARRAYS:
            assert getattr(traj, field).tobytes() == getattr(full, field)[:n].tobytes(), field
        assert traj.P_post[1, :, 1:].tobytes() == traj.P_post[0, :, 1:].tobytes()
        P00 = traj.P_post[:, 0, 0]
        assert np.isneginf(P00[-1]) and np.isfinite(P00[:-1]).all()
        assert not np.isnan(traj.P_pred).any()


def counted_field(problem, calls):
    """``problem`` with an ``f`` that appends a copy of each state it is called at to ``calls``."""

    def f(x):
        calls.append(np.array(x))
        return problem.f(x)

    return dataclasses.replace(problem, f=f)


class TestCovarianceTrack:
    """solve fills the covariance track before its mean loop; it must act as the lazy pass did."""

    @pytest.mark.parametrize("m0, raises", [(0.5, True), (math.inf, False)])
    def test_singular_innovation_is_raised_only_when_the_mean_loop_reaches_it(
        self, monkeypatch, m0, raises
    ):
        # Q underflows to 0 and R = 0, so step 0 leaves P_11 = 0 and step 1's
        # innovation P_pred_11 + R is 0.  A finite start reaches step 1 and
        # raises; an infinite one diverges at step 0, before step 1 is asked for.
        def crafted(problem, prior, h, mode):
            return Belief(t=0.0, m=np.array([[m0], [0.1]]), P=np.array([[0.0, 0.0], [0.0, 1.0]]))

        monkeypatch.setattr(filtering, "initialize", crafted)
        monkeypatch.setattr(oracles, "initialize", crafted)
        args = (get_problem("logistic"), PriorSpec(1, sigma=1e-170), 0.1, parse_noise("zero"))
        assert not PriorSpec(1, sigma=1e-170).transition(0.1).Q.any()
        if raises:
            with pytest.raises(SingularInnovation):
                full_pass_solve(*args)
            with pytest.raises(SingularInnovation):
                solve(*args)
        else:
            traj = solve(*args)
            assert traj.diverged and len(traj.y) == 0
            assert_same_bytes(traj, full_pass_solve(*args))

    @pytest.mark.parametrize("name, q, expected", [("logistic", 1, 1), ("linear", 3, 2)])
    def test_f_is_called_as_in_the_full_pass(self, name, q, expected):
        args = (PriorSpec(q), 0.0125, parse_noise("zero"), PerturbedInit(1e300))
        calls, oracle_calls = [], []
        solve(counted_field(get_problem(name), calls), *args)
        full_pass_solve(counted_field(get_problem(name), oracle_calls), *args)
        assert len(calls) == len(oracle_calls) == expected
        assert all(np.isfinite(x).all() for x in calls)
        assert [x.tobytes() for x in calls] == [x.tobytes() for x in oracle_calls]

    def test_predict_covariance_is_looked_up_at_call_time(self, monkeypatch):
        # The benchmark's tracer counts covariance kernel calls by wrapping the
        # module attribute, so solve must call it through the module.
        calls = []
        original = filtering.predict_covariance

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(filtering, "predict_covariance", counted)
        noise = parse_noise("power:1:5000")
        traj = solve(get_problem("linear"), PriorSpec(1), 0.1 / 128, noise)
        assert len(traj.y) == 12_800
        assert len(calls) == 2_369


def per_cell_prefix(tm, R, P, bound):
    """One cell's prefix from the 2-D kernel: ``covariance_pass`` up to its first
    finite repeated closed block, its first non-finite step equal in full to
    the step before it, its bound or its singular innovation.

    Returns (steps, first, singular).
    """
    steps, seen = [], {}
    closed = not tm.A[1:, 0].any()
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for n, step in zip(range(bound), covariance_pass(tm, R, P)):
                steps.append(step)
                first = seen.setdefault(step[1][:, 1:].tobytes(), n)
                if closed and first < n and np.isfinite(step[1][:, 1:]).all():
                    return steps, first, False
                fixed = n > 0 and step[1].tobytes() == steps[-2][1].tobytes()
                if fixed and not np.isfinite(step[1][:, 1:]).all():
                    return steps, n - 1, False
        except SingularInnovation:
            return steps, None, True
    return steps, None, False


def assert_prefix_equals(prefix, steps, first, singular):
    """The prefix holds ``steps`` (from ``per_cell_prefix``) as bytes, and ends as it did."""
    assert len(prefix.beta) == len(steps)
    for got, expected in zip((prefix.P_pred, prefix.P_post, prefix.beta), zip(*steps)):
        assert got.tobytes() == np.array(expected).tobytes()
    assert prefix.first == first
    assert prefix.singular == singular


def crafted_singular_cell(q):
    """Q underflows to 0, R = 0 and P0 = e_1 e_1^T: the first update leaves P = 0,
    so the innovation of step 1 is singular."""
    P0 = np.zeros((q + 1, q + 1))
    P0[1, 1] = 1.0
    return PriorSpec(q, sigma=1e-170).transition(0.1), 0.0, P0, 50


class TestStackedPass:
    """covariance_prefixes runs its cells side by side; each must equal its own 2-D pass."""

    @pytest.mark.parametrize("seed", range(8))
    def test_each_cell_equals_the_per_cell_kernel(self, seed):
        rng = np.random.default_rng(seed)
        q = 1 + seed % 4
        cells = []
        for _ in range(12):
            h = 0.1 * 2.0 ** -int(rng.integers(0, 6))
            kind, theta = [("ibm", 0.0), ("ioup", 1.0)][rng.integers(0, 2)]
            prior = PriorSpec(q, kind, theta=theta, sigma=float(rng.choice([1.0, 50.0])))
            R = float(rng.choice([0.0, h**q, 5000.0 * h]))
            mode = [PerturbedInit(0.0), PerturbedInit(1.0, seed=seed)][rng.integers(0, 2)]
            bound = int(rng.integers(1, 1000))
            cells.append((prior.transition(h), R, initial_covariance(q, h, mode), bound))
        cells.append(crafted_singular_cell(q))
        # P_00 overflows at step 0, and every later closed block is NaN.
        start = initial_covariance(q, 0.0125, PerturbedInit(1e300))
        cells.append((PriorSpec(q).transition(0.0125), 0.0, start, 300))
        order = list(rng.permutation(len(cells)))
        cells = [cells[i] for i in order]
        prefixes = covariance_prefixes(*zip(*cells))
        outcomes = [per_cell_prefix(*cell) for cell in cells]
        assert sum(singular for _, _, singular in outcomes) == 1
        assert sum(first is not None for _, first, _ in outcomes) >= 2
        # It stops at its first NaN fixed point, not at its bound.
        overflowing = prefixes[order.index(len(cells) - 1)]
        assert 2 <= len(overflowing.beta) < 10 and overflowing.first is not None
        assert not np.isfinite(overflowing.P_post[:, 0, 0]).any()
        for cell, prefix, outcome in zip(cells, prefixes, outcomes):
            assert_prefix_equals(prefix, *outcome)
            # A cell's prefix does not depend on the other cells of its stack.
            (alone,) = covariance_prefixes(*zip(cell))
            assert_prefix_equals(alone, *outcome)

    def test_a_bound_of_zero_runs_no_step(self):
        tm = ibm_transition(1, 1.0, 0.1)
        zero, one = covariance_prefixes([tm, tm], [0.0, 0.0], [np.zeros((2, 2))] * 2, [0, 1])
        assert len(zero.beta) == 0 and not zero.singular and zero.first is None
        assert len(one.beta) == 1

    def test_q0_is_rejected_as_solve_rejects_it(self):
        with pytest.raises(ValueError, match="q >= 1"):
            covariance_prefixes([PriorSpec(0).transition(0.1)], [0.0], [np.zeros((1, 1))], [5])


def preset_specs(preset, grid):
    """Every (problem, prior, noise, h) cell of a preset on an h grid, as the CLI builds them."""
    return [
        cli.RunSpec(problem, PriorSpec(q, sigma=sigma), parse_noise(noise), h)
        for problem, q, sigma, noise in cli._preset_cells(preset)
        for h in cli._h_values(grid)
    ]


class TestSolveWithPrefix:
    """solve_cells over a whole sweep, its passes shared, equals solve of each cell alone."""

    @pytest.mark.parametrize(
        "preset, grid, mode, diverged",
        [
            # fig1's two smallest step sizes hold three quarters of its steps.
            ("fig1", (0.1, 2.0, 6), PerturbedInit(0.0), False),
            ("fig1", (0.1, 2.0, 8), PerturbedInit(1e300), True),
            ("fig2", (0.1, 2.0, 8), PerturbedInit(0.0), False),
            ("fig2", (0.1, 2.0, 8), PerturbedInit(1.0, seed=3), False),
            ("fig2", (0.1, 2.0, 8), PerturbedInit(1e300), True),
        ],
    )
    def test_every_preset_cell(self, preset, grid, mode, diverged):
        cells = preset_cells(preset, grid, mode)
        for cell, traj in zip(cells, filtering.solve_cells(cells)):
            assert_same_bytes(traj, solve(*cell))
            assert traj.diverged == diverged

    @pytest.mark.parametrize("m0, raises", [(0.5, True), (math.inf, False)])
    def test_singular_innovation(self, monkeypatch, m0, raises):
        tm, R, P0, _ = crafted_singular_cell(1)

        def crafted(problem, prior, h, mode):
            return Belief(t=0.0, m=np.array([[m0], [0.1]]), P=P0)

        monkeypatch.setattr(filtering, "initialize", crafted)
        problem = get_problem("logistic")
        cell = (PriorSpec(1, sigma=1e-170), 0.1, parse_noise("zero"))
        (prefix,) = covariance_prefixes([tm], [R], [P0], [15])
        assert prefix.singular and len(prefix.beta) == 1
        trajs = filtering.solve_cells([(problem, *cell, PerturbedInit(0.0))])
        if raises:
            with pytest.raises(SingularInnovation):
                next(trajs)
            with pytest.raises(SingularInnovation):
                solve(problem, *cell)
        else:
            traj = next(trajs)
            assert traj.diverged and len(traj.y) == 0
            assert_same_bytes(traj, solve(problem, *cell))


def preset_cells(preset, grid, mode):
    """The CLI's sweep for a preset: its (problem, prior, h, noise, mode) cells in CSV order."""
    specs = sorted(preset_specs(preset, grid), key=cli.RunSpec.sort_key)
    return [(get_problem(s.problem), s.prior, s.h, s.noise, mode) for s in specs]


def filled_pass(prior, h, R, k0, n):
    """A pass (transition, R, start, mesh) whose prefix ends on a repeat before its mesh."""
    return lambda: (prior.transition(h), R, initial_covariance(prior.q, h, PerturbedInit(k0)), n)


def overflowing_pass():
    """q = 1, h = 1e154 and sigma^2 = 1e-156, from P = 0: the closed block repeats with
    period 2 at step 2, and P_00 grows by about 8e304 a step until it overflows."""
    h, s = 1e154, 0.01  # s = sigma^2 h; h^3 itself overflows
    A, Q = np.array([[1.0, h], [0.0, 1.0]]), np.array([[s * h * h / 3, s * h / 2], [s * h / 2, s]])
    return TransitionModel(h, A, Q), 0.0, np.zeros((2, 2)), 20_000


#: Passes whose prefix ends on a repeat: from a perturbed start, q = 1..5;
#: fig2's R = 5000 h (a 2,369-step prefix of period 1 at every power-of-two
#: h), and the exact start (period 2 at R = 0), over 12,800 steps, where the
#: fill's blocks grow and P_00 crosses 25 and 15 binades; a start of
#: ``perturbed:1e300``, whose prefix ends at a NaN fixed point and is not
#: filled; and a pass whose P_00 overflows in the fill, after 33 blocks.
FILLED = {
    **{
        f"q{q}-{kind}": filled_pass(prior, 0.0125, R, 1.0, 800)
        for q in (1, 2, 3, 4)
        for kind, prior, R in (
            ("ibm", PriorSpec(q), 0.0),
            ("ioup", PriorSpec(q, "ioup", theta=1.0), 0.0125**q),
        )
    },
    "q5-fig2-R": filled_pass(PriorSpec(5), 0.1, 5000.0 * 0.1, 0.0, 12_800),
    "fig2-R": filled_pass(PriorSpec(1), 0.1 / 128, 5000.0 * (0.1 / 128), 0.0, 12_800),
    "exact-start": filled_pass(PriorSpec(1), 0.1 / 128, 0.0, 0.0, 12_800),
    "perturbed-1e300": filled_pass(PriorSpec(1), 0.1 / 128, 0.0, 1e300, 12_800),
    "overflow": overflowing_pass,
}


class TestSharedTracks:
    """A sweep fills each shared covariance pass once; each cell takes a cut of it."""

    def test_fig2_fills_each_shared_pass_once(self, monkeypatch, tmp_path):
        # Each logistic cell shares its pass with the linear cell of its h and
        # noise, whose mesh is longer; filling each cell's own track took 19.
        calls = []
        original = filtering._fill_period
        monkeypatch.setattr(filtering, "_fill_period", lambda *a: calls.append(1) or original(*a))
        assert cli.main(["wpd", "--preset", "fig2", "--out", str(tmp_path / "fig2.csv")]) == 0
        assert 0 < len(calls) <= 11

    def test_each_logistic_cell_equals_the_track_of_its_own_prefix(self, monkeypatch):
        mode = PerturbedInit(0.0)
        tracks, _ = sweep_tracks(preset_specs("fig2", (0.1, 2.0, 8)), mode, monkeypatch)
        longer = 0
        for spec, track in tracks:
            if spec.problem != "logistic":
                continue
            n = round(1.5 / spec.h)
            tm, R = spec.prior.transition(spec.h), spec.noise.evaluate(spec.h)
            (prefix,) = covariance_prefixes([tm], [R], [initial_covariance(1, spec.h, mode)], [n])
            own = track_steps(filtering.covariance_track(prefix, n), n)
            longer += len(track.rows) == round(10.0 / spec.h)
            cut = filtering.covariance_track(track, n)
            for got in (track_steps(track, n), track_steps(cut, n)):
                for a, b in zip(got, own):
                    assert a.tobytes() == b.tobytes()
        assert longer == 16  # every logistic cell's track is its linear twin's

    @pytest.mark.parametrize("case", list(FILLED), ids=list(FILLED))
    def test_a_filled_track_and_its_cuts_give_the_full_pass_steps(self, case):
        # A prefix that ends on a repeat is filled once, to the mesh or to the
        # first step whose previous P_00 is not finite; each cut of the filled
        # track must give the full pass's first steps.
        tm, R, start, n = FILLED[case]()
        (prefix,) = covariance_prefixes([tm], [R], [start], [n])
        assert prefix.first is not None and len(prefix.rows) < n
        full = filtering.covariance_track(prefix, n)
        filled = len(full.rows)
        assert not full.singular
        # Only a non-finite previous P_00 ends a fill before the mesh.
        assert (filled < n) == (case in ("perturbed-1e300", "overflow"))
        if filled < n:
            assert not np.isfinite(full.P00[-1])
        if case == "overflow":
            # More than one block in, at the first non-finite P_00.
            assert filled > len(prefix.rows) + 16 and np.isfinite(full.P00[:-1]).all()
        with np.errstate(over="ignore", invalid="ignore"):
            expected = list(itertools.islice(covariance_pass(tm, R, start), filled))
        for bound in [bound for bound in (1, 2, 7, 300) if bound < filled] + [filled]:
            cut = filtering.covariance_track(full, bound)
            assert len(cut.rows) == bound
            for got, column in zip(track_steps(cut, bound), zip(*expected[:bound])):
                assert got.tobytes() == np.array(column).tobytes()

    def test_a_cut_that_ends_before_a_singular_step_does_not_raise(self):
        tm, R, P0, _ = crafted_singular_cell(1)
        (prefix,) = covariance_prefixes([tm], [R], [P0], [15])
        assert prefix.singular and len(prefix.rows) == 1
        assert not filtering.covariance_track(prefix, 1).singular
        assert filtering.covariance_track(prefix, 5).singular


def sweep_tracks(specs, mode, monkeypatch):
    """Each cell's shared track in a sweep's ``solve_cells`` run, and the cells of each
    covariance pass run; the mean loops are left out."""
    passes, tracks, original = [], [], filtering.covariance_prefixes

    def counted(tms, *args):
        passes.append(len(tms))
        return original(tms, *args)

    def tracks_alone(f, runs, shared):
        tracks.extend(shared)
        return iter(())

    monkeypatch.setattr(filtering, "covariance_prefixes", counted)
    monkeypatch.setattr(filtering, "_mean_pass", tracks_alone)
    specs = sorted(specs, key=cli.RunSpec.sort_key)
    cells = [(get_problem(s.problem), s.prior, s.h, s.noise, mode) for s in specs]
    assert list(filtering.solve_cells(cells)) == []
    monkeypatch.undo()
    return list(zip(specs, tracks, strict=True)), passes


def assert_own_passes(tracks, mode):
    """Every cell's track holds its own pass's steps over its mesh, bit for bit; returns the passes."""
    meshes = {}
    for spec, _ in tracks:
        key = (spec.prior, spec.h, spec.noise.evaluate(spec.h))
        meshes[key] = max(meshes.get(key, 0), round(get_problem(spec.problem).T / spec.h))
    own = {}
    for (prior, h, R), n in meshes.items():
        tm, start = prior.transition(h), initial_covariance(prior.q, h, mode)
        (prefix,) = covariance_prefixes([tm], [R], [start], [n])
        own[prior, h, R] = filtering.covariance_track(prefix, n)
    for spec, track in tracks:
        expected = own[spec.prior, spec.h, spec.noise.evaluate(spec.h)]
        n = round(get_problem(spec.problem).T / spec.h)
        assert track.singular == expected.singular
        for got, column in zip(track_steps(track, n), track_steps(expected, n)):
            assert got.tobytes() == column.tobytes()
    return len(own)


def grid_specs(problem, priors, noises, grid):
    """(problem, prior, noise, h) cells of a sweep: every prior and noise spec on the grid."""
    return [
        cli.RunSpec(problem, prior, parse_noise(noise), h)
        for prior in priors
        for noise in noises
        for h in cli._h_values(grid)
    ]


class TestSweepPasses:
    """A sweep runs each distinct covariance pass once; every track must equal its own pass."""

    EXACT, PERTURBED = PerturbedInit(0.0), PerturbedInit(1.0, seed=3)

    # Each distinct pass runs in one stacked pass per q: fig2, 8 step sizes
    # by 2 noises; fig1, per q, 8 step sizes by 2 noises by 2 sigmas (its
    # logistic and linear cells); figC, 8 per q.
    @pytest.mark.parametrize(
        "preset, grid, mode, passes",
        [
            ("fig2", (0.1, 2.0, 8), EXACT, [16]),
            ("fig2", (0.1, 2.0, 8), PERTURBED, [16]),
            ("fig1", (0.1, 2.0, 8), EXACT, [32, 32, 32, 32]),
            ("figC", (0.1, 2.0, 8), EXACT, [8, 8, 8, 8]),
        ],
    )
    def test_every_preset_track_is_its_own_pass(self, monkeypatch, preset, grid, mode, passes):
        tracks, run = sweep_tracks(preset_specs(preset, grid), mode, monkeypatch)
        assert run == passes and assert_own_passes(tracks, mode) == sum(passes)

    @pytest.mark.parametrize("mode", [EXACT, PERTURBED], ids=["exact", "perturbed"])
    @pytest.mark.parametrize("preset", ["fig1", "fig2", "figC"])
    def test_every_preset_tracks_rows_are_the_prefix_then_its_period(
        self, monkeypatch, preset, mode
    ):
        # A track stores no rows: each slice read is derived from the prefix's
        # last step n and its repeat ``first``.  It must equal the row array
        # a fill once stored, ``concatenate((arange(n + 1), period))``.
        tracks, _ = sweep_tracks(preset_specs(preset, (0.1, 2.0, 8)), mode, monkeypatch)
        filled = 0
        for spec, shared in tracks:
            cut = filtering.covariance_track(shared, round(get_problem(spec.problem).T / spec.h))
            for track in (shared, cut):
                n, i, steps = len(track.beta) - 1, track.first, len(track.P00)
                stored = np.arange(n + 1)
                if steps > n + 1:
                    period = i + 1 + np.arange(steps - n - 1) % (n - i)
                    stored = np.concatenate((stored, period))
                    filled += 1
                stored = stored[:steps]
                assert len(track.rows) == steps
                assert track.rows[:].tobytes() == stored.tobytes()
                for start in range(0, steps, 1000):
                    assert (track.rows[start : start + 256] == stored[start : start + 256]).all()
        assert filled > 0

    @pytest.mark.parametrize("mode", [EXACT, PERTURBED], ids=["exact", "perturbed"])
    def test_zero_noise_and_R_of_degree_2q_minus_1_run_each_pass_once(self, monkeypatch, mode):
        for q in (1, 2, 3, 4):
            noise = f"power:{2 * q - 1}:1"
            specs = grid_specs("linear", [PriorSpec(q)], ["zero", noise], (0.1, 2.0, 8))
            tracks, passes = sweep_tracks(specs, mode, monkeypatch)
            assert passes == [16]
            assert assert_own_passes(tracks, mode) == 16

    LOGISTIC, FIG2 = ("logistic",), ("logistic", "linear")

    # Sweeps whose passes earlier rules ran one by one.  The fig2 cases'
    # logistic passes equal their linear twins' and share their tracks.
    OWN = {
        "ioup": ([PriorSpec(2, "ioup", theta=1.0)], ["zero"], (0.1, 2.0, 4), EXACT, LOGISTIC),
        "power-q-1": ([PriorSpec(2)], ["power:2:1"], (0.1, 2.0, 4), EXACT, LOGISTIC),
        "factor-3": ([PriorSpec(1)], ["zero"], (0.1, 3.0, 4), EXACT, LOGISTIC),
        "singular": ([PriorSpec(1, sigma=1e-170)], ["zero"], (0.1, 2.0, 4), EXACT, LOGISTIC),
        "perturbed-1e300": (
            [PriorSpec(1)], ["zero"], (0.1, 2.0, 4), PerturbedInit(1e300), LOGISTIC
        ),
        "fig2-singular": ([PriorSpec(1, sigma=1e-170)], ["zero"], (0.1, 2.0, 8), EXACT, FIG2),
        "fig2-perturbed-1e300": (
            [PriorSpec(1)], ["zero"], (0.1, 2.0, 8), PerturbedInit(1e300), FIG2
        ),
    }

    @pytest.mark.parametrize("case", list(OWN), ids=list(OWN))
    def test_each_distinct_pass_runs_in_one_stacked_pass(self, monkeypatch, case):
        priors, noises, grid, mode, problems = self.OWN[case]
        specs = [spec for name in problems for spec in grid_specs(name, priors, noises, grid)]
        tracks, passes = sweep_tracks(specs, mode, monkeypatch)
        count = grid[2]
        assert passes == [count]
        assert assert_own_passes(tracks, mode) == count

    #: (noise, sigma) of steady grids, R = 0 and R = K h among them; at sigma = 1e-170 Q underflows to 0, so P stays 0 for R > 0 and every
    #: zero-noise orbit is singular.
    STEADY_PASSES = [
        ("power:1:1", 1.0),
        ("zero", 1.0),
        ("power:2:1", 1.0),
        ("const:0.25", 1.0),
        ("power:1:1", 1e-170),
        ("zero", 1e-170),
        ("power:2:1", 1e-170),
    ]

    @pytest.mark.parametrize("noise_spec, sigma", STEADY_PASSES)
    def test_steady_runs_its_grid_as_one_stacked_pass(self, monkeypatch, noise_spec, sigma):
        noise, grid = parse_noise(noise_spec), [0.1 * 2.0**-k for k in range(12)]
        passes, original = [], filtering.covariance_prefixes

        def counted(tms, *args):
            passes.append(len(tms))
            return original(tms, *args)

        monkeypatch.setattr(filtering, "covariance_prefixes", counted)
        orbits = order_bound_prefixes(grid, sigma, noise.p, noise.K_R)
        monkeypatch.undo()
        assert passes == [12]
        for h, orbit in zip(grid, orbits):
            tm, R = ibm_transition(1, sigma, h), noise.evaluate(h)
            (own,) = covariance_prefixes([tm], [R], [np.zeros((2, 2))], [round(1.0 / grid[-1])])
            assert (orbit.first, orbit.singular) == (own.first, own.singular)
            for name in ("P_pred", "P_post", "beta", "P00"):
                assert getattr(orbit, name).tobytes() == getattr(own, name).tobytes()

    def test_fig2_and_steady_work_at_seed_0(self, monkeypatch, tmp_path):
        # fig2 runs its 16 distinct passes in one stacked pass, each once to
        # its longest mesh, fills 40,769 P_00 steps in 341 blocks (the pin
        # allows 10% more) and evaluates exact once per cell, on the cell's
        # own mesh: 58,682 points.
        # Steady runs each grid as one stacked pass over its longest mesh:
        # 68 kernel calls, where bounding each orbit by its own mesh took 137.
        work, passes = collections.Counter(), []
        original = {
            name: getattr(filtering, name)
            for name in ("_fill_period", "_p00_steps", "covariance_prefixes", "predict_covariance")
        }

        def fill(*args):
            filled = original["_fill_period"](*args)
            work["fill"] += filled
            return filled

        def block(*args):
            work["blocks"] += 1
            return original["_p00_steps"](*args)

        def prefixes(tms, *args):
            passes.append(len(tms))
            return original["covariance_prefixes"](tms, *args)

        def predict(*args):
            work["predict"] += 1
            return original["predict_covariance"](*args)

        get = cli.get_problem

        def counted_problem(name):
            problem = get(name)

            def exact(ts):
                work["exact"] += len(ts)
                return problem.exact(ts)

            return dataclasses.replace(problem, exact=exact)

        monkeypatch.setattr(cli, "get_problem", counted_problem)
        monkeypatch.setattr(filtering, "_fill_period", fill)
        monkeypatch.setattr(filtering, "_p00_steps", block)
        monkeypatch.setattr(filtering, "covariance_prefixes", prefixes)
        monkeypatch.setattr(filtering, "predict_covariance", predict)
        assert cli.main(["wpd", "--preset", "fig2", "--out", str(tmp_path / "fig2.csv")]) == 0
        assert work["fill"] == 40_769 and work["blocks"] <= 375 and passes == [16]
        assert work["exact"] == 58_682
        work.clear()
        for noise in ("power:1:1", "power:2:1", "power:3:1", "zero"):
            argv = ["steady", "--sigma", "1", "--noise", noise, "--h-grid", "0.1:2:12"]
            assert cli.main(argv + ["--out", str(tmp_path / "steady.csv")]) == 0
        assert work["predict"] == 68


def blowup_lite():
    """x' = x^2 from x(0) = 0.5 on [0, 1] (the solution 1 / (2 - t) stays finite);
    a start far from x0 overflows f within a few steps."""
    return IVProblem(
        name="blowup",
        d=1,
        f=lambda x: np.asarray(x, dtype=float) ** 2,
        derivatives=(
            lambda x: np.asarray(x, dtype=float),
            lambda x: np.asarray(x, dtype=float) ** 2,
            lambda x: 2.0 * np.asarray(x, dtype=float) ** 3,
        ),
        x0=np.array([0.5]),
        T=1.0,
    )


class TestStackedMeanPass:
    """solve_cells steps a stack of cells side by side; each must equal its own full pass."""

    @pytest.mark.parametrize(
        "mode", [PerturbedInit(0.0), PerturbedInit(1.0, seed=3)], ids=["exact", "perturbed"]
    )
    @pytest.mark.parametrize("preset", ["fig1", "fig2", "fig3", "figC"])
    def test_every_preset_cell_equals_the_full_pass(self, preset, mode):
        cells = preset_cells(preset, (0.1, 2.0, 4), mode)
        trajs = list(filtering.solve_cells(cells))
        assert len(trajs) == len(cells)
        for traj, cell in zip(trajs, cells):
            assert_same_bytes(traj, full_pass_solve(*cell))

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
    def test_mixed_stack_equals_the_full_pass(self, q):
        # Different priors, h, R and starts in one stack, in no order of track
        # length: a regular start, a finite perturbed one, and a start whose
        # covariance overflows (NaN gains from step 1 on).
        rng = np.random.default_rng(q)
        problem = get_problem("logistic")
        cells = []
        for kind, theta in (("ibm", 0.0), ("ioup", 1.0)):
            for sigma in (1.0, 50.0):
                h = 0.1 * 2.0 ** -int(rng.integers(0, 4))
                noise = parse_noise(["zero", f"power:{q}:1", "const:0.25"][rng.integers(0, 3)])
                for mode in (PerturbedInit(0.0), PerturbedInit(1.0, seed=q), PerturbedInit(1e300)):
                    cells.append((PriorSpec(q, kind, theta=theta, sigma=sigma), h, noise, mode))
        cells = [cells[i] for i in rng.permutation(len(cells))]
        trajs = list(filtering.solve_cells([(problem, *cell) for cell in cells]))
        for traj, (prior, h, noise, mode) in zip(trajs, cells):
            assert_same_bytes(traj, full_pass_solve(problem, prior, h, noise, mode))
            assert traj.diverged == (mode == PerturbedInit(1e300))

    def test_cells_that_diverge_leave_the_stack(self):
        # The blow-up cells overflow f at different steps; the others run on.
        problem = blowup_lite()
        cells = [
            (PriorSpec(1), h, noise, mode)
            for h in (0.1, 0.05, 0.0125)
            for noise in (parse_noise("zero"), parse_noise("const:0.5"))
            for mode in (PerturbedInit(0.0), *(PerturbedInit(k0) for k0 in (1e10, 1e60, 1e300)))
        ]
        trajs = list(filtering.solve_cells([(problem, *cell) for cell in cells]))
        overflowed = set()
        for traj, (prior, h, noise, mode) in zip(trajs, cells):
            assert_same_bytes(traj, full_pass_solve(problem, prior, h, noise, mode))
            assert traj.diverged == (mode.k0 > 0)
            assert np.isfinite(traj.y).all()
            if traj.diverged and mode.k0 < 1e300:
                overflowed.add(len(traj.y))
        assert len(overflowed) > 2 and min(overflowed) > 0

    @pytest.mark.parametrize("m0, raises", [(0.5, True), (math.inf, False)])
    def test_a_singular_cell_raises_in_its_turn(self, monkeypatch, m0, raises):
        # The crafted cell (sigma = 1e-170) has a singular innovation at step 1.
        # The cells before it are yielded, and it raises only if its own mean
        # reaches that step.
        def crafted(problem, prior, h, mode):
            if prior.sigma != 1e-170:
                return initialize(problem, prior, h, mode)
            return Belief(t=0.0, m=np.array([[m0], [0.1]]), P=np.array([[0.0, 0.0], [0.0, 1.0]]))

        monkeypatch.setattr(filtering, "initialize", crafted)
        monkeypatch.setattr(oracles, "initialize", crafted)
        problem = get_problem("logistic")
        zero, exact = parse_noise("zero"), PerturbedInit(0.0)
        regular = [(PriorSpec(1), h, zero, exact) for h in (0.1, 0.05, 0.025)]
        cells = regular[:2] + [(PriorSpec(1, sigma=1e-170), 0.1, zero, exact)]
        cells += regular[2:]
        trajs = filtering.solve_cells([(problem, *cell) for cell in cells])
        for cell, traj in zip(cells[:2], trajs):  # cells first: zip stops before a third
            assert_same_bytes(traj, full_pass_solve(problem, *cell))
        if raises:
            with pytest.raises(SingularInnovation):
                next(trajs)
        else:
            rest = list(trajs)
            assert rest[0].diverged and len(rest[0].y) == 0
            for traj, cell in zip(rest, cells[2:]):
                assert_same_bytes(traj, full_pass_solve(problem, *cell))

    def test_a_sweep_of_any_problems_and_q_runs_one_pass_per_matrix_size(self, monkeypatch):
        # Logistic and linear cells at q = 1 and 2, interleaved, so that one
        # problem and q comes back after other cells.  The first two cells'
        # passes are identical (the same prior, h, R and start), and so are
        # the fifth and the seventh cell's.
        logistic, linear = get_problem("logistic"), get_problem("linear")
        exact = PerturbedInit(0.0)
        cells = [
            (logistic, PriorSpec(1), 0.1, parse_noise("zero"), exact),
            (linear, PriorSpec(1), 0.1, parse_noise("zero"), exact),
            (logistic, PriorSpec(2), 0.05, parse_noise("power:2:1"), PerturbedInit(1.0, seed=3)),
            (logistic, PriorSpec(1), 0.05, parse_noise("power:1:1"), exact),
            (linear, PriorSpec(2), 0.1, parse_noise("zero"), exact),
            (linear, PriorSpec(1), 0.025, parse_noise("const:0.5"), exact),
            (logistic, PriorSpec(2), 0.1, parse_noise("zero"), exact),
        ]
        passes, original = [], filtering.covariance_prefixes

        def counted(tms, Rs, Ps, bounds):
            passes.append((len(Ps[0]), len(tms)))
            return original(tms, Rs, Ps, bounds)

        monkeypatch.setattr(filtering, "covariance_prefixes", counted)
        trajs = list(filtering.solve_cells(cells))
        monkeypatch.undo()
        # q = 1: three distinct passes of four cells; q = 2: two of three.
        assert sorted(passes) == [(2, 3), (3, 2)]
        assert len(trajs) == len(cells)
        for traj, cell in zip(trajs, cells):
            assert_same_bytes(traj, solve(*cell))

    def test_fig2_calls_f_once_per_step_of_each_stack(self, monkeypatch, tmp_path):
        # The stacks are (logistic, 1) and (linear, 1): their longest meshes
        # have 15 * 128 and 100 * 128 steps.
        calls = []
        original = cli.get_problem

        def counted(name):
            problem = original(name)

            def f(x):
                calls.append(len(x))
                return problem.f(x)

            return dataclasses.replace(problem, f=f)

        monkeypatch.setattr(cli, "get_problem", counted)
        handed = []
        monkeypatch.setattr(cli, "solve", lambda *a, **k: handed.append(a[2]) or solve(*a, **k))
        assert cli.main(["wpd", "--preset", "fig2", "--out", str(tmp_path / "fig2.csv")]) == 0
        assert len(calls) == 14_720
        assert sum(calls) == 58_650  # one row per cell step
        assert len(handed) == 32  # each cell's trajectory is handed out by solve

    def test_a_sweep_row_builds_no_array_it_does_not_read(self, monkeypatch, tmp_path):
        # A row reads m_post and P00_post alone; the other arrays are built
        # on first read.
        handed = []

        def solve_and_keep(*args, **kwargs):
            handed.append(solve(*args, **kwargs))
            return handed[-1]

        monkeypatch.setattr(cli, "solve", solve_and_keep)
        assert cli.main(["wpd", "--preset", "fig2", "--out", str(tmp_path / "fig2.csv")]) == 0
        assert len(handed) == 32
        assert not [name for traj in handed for name in BUILT_ON_READ if name in vars(traj)]

    def test_arrays_built_on_read_equal_the_full_pass(self):
        # A converging cell and a perturbed:1e300 cell, which diverges after a
        # few steps, of one stack.
        problem, noise = get_problem("linear"), parse_noise("power:1:5000.0")
        cells = [(PriorSpec(1), 0.1 / 8, noise, PerturbedInit(k0)) for k0 in (0.0, 1e300)]
        trajs = list(filtering.solve_cells([(problem, *cell) for cell in cells]))
        assert not [name for traj in trajs for name in BUILT_ON_READ if name in vars(traj)]
        assert not trajs[0].diverged and trajs[1].diverged and len(trajs[1].m_post) > 0
        for traj, cell in zip(trajs, cells):
            assert_same_bytes(traj, full_pass_solve(problem, *cell))
            assert set(BUILT_ON_READ) <= set(vars(traj))

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_arrays_built_on_read_past_a_filled_prefix_equal_the_full_pass(self, q):
        # A perturbed start at R = 0: the prefix ends on a repeat long before
        # the 800-step mesh, so the track stores 8 bytes a step past it, and
        # P_pred's P_00 there is rebuilt on read from the previous posterior.
        problem, cell = get_problem("linear"), (PriorSpec(q), 0.0125, parse_noise("zero"))
        cell += (PerturbedInit(1.0),)
        (traj,) = filtering.solve_cells([(problem, *cell)])
        track = traj.source[2]
        assert len(track.beta) < len(traj.m_post) == len(track.P00) == 800
        assert track.P00.shape == (800,) and not traj.diverged
        assert_same_bytes(traj, full_pass_solve(problem, *cell))

    def test_solve_hands_out_the_next_cell_of_a_stack(self):
        problem = get_problem("logistic")
        cells = [(PriorSpec(1), h, parse_noise("zero"), PerturbedInit(0.0)) for h in (0.1, 0.05)]
        stack = filtering.solve_cells([(problem, *cell) for cell in cells])
        assert_same_bytes(solve(problem, *cells[0], stack=stack), solve(problem, *cells[0]))
        with pytest.raises(ValueError, match="not this one"):
            solve(problem, *cells[0], stack=stack)

    def test_each_stack_runs_when_its_first_cell_is_asked_for(self, monkeypatch):
        # Three stacks: (logistic, 1) of two cells, (linear, 1), and
        # (logistic, 1) again, since a stack is a run of consecutive cells.
        logistic, linear = get_problem("logistic"), get_problem("linear")
        zero, exact = parse_noise("zero"), PerturbedInit(0.0)
        cells = [
            (logistic, PriorSpec(1), 0.1, zero, exact),
            (logistic, PriorSpec(1), 0.05, zero, exact),
            (linear, PriorSpec(1), 0.1, zero, exact),
            (logistic, PriorSpec(1), 0.025, zero, exact),
        ]
        own = [solve(*cell) for cell in cells]
        loops, original = [], filtering._mean_loop

        def counted(f, A, *args):
            loops.append(len(A))
            return original(f, A, *args)

        monkeypatch.setattr(filtering, "_mean_loop", counted)
        trajs = filtering.solve_cells(cells)
        assert loops == []
        seen = []
        for traj in own:
            assert_same_bytes(next(trajs), traj)
            seen.append(list(loops))
        assert seen == [[2], [2], [2, 1], [2, 1, 1]]
        assert next(trajs, None) is None

    def test_a_shared_track_is_let_go_after_its_last_cell(self):
        # The first two cells, of two stacks, share a pass that no later cell
        # uses: once their trajectories are dropped and the next stack has
        # started, no one holds that track's arrays.
        logistic, linear = get_problem("logistic"), get_problem("linear")
        zero, exact = parse_noise("zero"), PerturbedInit(0.0)
        cells = [
            (logistic, PriorSpec(1), 0.1, zero, exact),
            (linear, PriorSpec(1), 0.1, zero, exact),
            (linear, PriorSpec(2), 0.1, zero, exact),
        ]
        trajs = filtering.solve_cells(cells)
        first, second = next(trajs), next(trajs)
        assert first.source[2].P_pred is second.source[2].P_pred
        gone = weakref.ref(second.source[2].P_pred)
        del first, second
        assert_same_bytes(next(trajs), solve(*cells[2]))
        assert gone() is None


class TestOneCheckMeanLoop:
    """_mean_loop checks one finiteness per step; it must act as the loop that checks two."""

    #: Each case: track lengths, and what goes wrong: gains that turn NaN
    #: (slot, from step), a field f = x^2 from start means scaled per slot so
    #: that it overflows, data made infinite at (step, slot), and f(0) = inf,
    #: which a slot zeroed after its cell left gives.  f = -x otherwise.
    #: "lone-cell" is a stack of one, which writes into its own array;
    #: "blocks" runs stretches of more than one block (``_BLOCK`` steps), with
    #: data found bad in the block after its step.
    CASES = {
        "nan-gains": dict(lengths=[40, 40, 30, 12], nan_gains=[(1, 5)]),
        "f-overflows": dict(lengths=[40, 30, 30, 12], square={2: 1e60, 3: 1e150}),
        "data-at-a-track-end": dict(lengths=[40, 30, 12], bad_data=[(11, 2), (29, 1)]),
        "data-at-the-last-step": dict(lengths=[40, 30, 12], bad_data=[(39, 0)]),
        "every-cell-at-once": dict(lengths=[20, 20, 20], bad_data=[(7, 0), (7, 1), (7, 2)]),
        "f-of-zero": dict(lengths=[40, 30, 30], nan_gains=[(0, 3)], zero_is_bad=True),
        "nan-gains-at-the-last-step": dict(lengths=[40, 30], nan_gains=[(1, 29)]),
        "lone-cell": dict(lengths=[30], bad_data=[(17, 0)]),
        "blocks": dict(lengths=[600, 520, 300], bad_data=[(255, 1)], nan_gains=[(0, 511)]),
    }

    #: Each case's steps completed per cell.
    REACHED = {
        "nan-gains": [40, 6, 30, 12],
        "f-overflows": [11, 13, 2, 1],
        "data-at-a-track-end": [40, 29, 11],
        "data-at-the-last-step": [39, 30, 12],
        "every-cell-at-once": [7, 7, 7],
        "f-of-zero": [4, 30, 30],
        "nan-gains-at-the-last-step": [40, 30],
        "lone-cell": [17],
        "blocks": [512, 255, 300],
    }

    @staticmethod
    def run(loop, lengths, nan_gains=(), square=None, bad_data=(), zero_is_bad=False):
        """One mean loop on a crafted stack of q = 1 cells: (reached, means, f's inputs)."""
        rng = np.random.default_rng(len(lengths))
        lengths = np.array(lengths)
        A = np.array([ibm_transition(1, 1.0, 0.1 * 2.0**-j).A for j in range(len(lengths))])
        m = rng.uniform(0.5, 1.0, size=(len(lengths), 2, 1))
        for j, scale in (square or {}).items():
            m[j] *= scale
        # The gains are drawn step-major: step n's rows are the cells whose track is longer.
        running = len(lengths) - np.searchsorted(lengths[::-1], np.arange(lengths[0]), "right")
        stacked = rng.uniform(0.1, 0.9, size=(running.sum(), 2))
        starts = np.concatenate(([0], np.cumsum(running)))
        gains = [stacked[starts[:n] + j] for j, n in enumerate(lengths)]
        for j, n in nan_gains:
            gains[j][n:] = math.nan
        means = [np.full((n, 2, 1), math.nan) for n in lengths]
        seen = []

        def f(x):
            seen.append(np.array(x))
            data = x * x if square else -x
            for n, j in bad_data:
                if n == len(seen) - 1:
                    data[j] = math.inf
            if zero_is_bad:
                data[x == 0.0] = math.inf
            return data

        with np.errstate(over="ignore", invalid="ignore"):
            reached = loop(f, A, m, [(g, np.arange(len(g))) for g in gains], means)
        return reached, means, seen

    @pytest.mark.parametrize("case", list(CASES), ids=list(CASES))
    def test_equals_the_two_check_loop(self, case):
        got = self.run(filtering._mean_loop, **self.CASES[case])
        expected = self.run(oracles.two_check_mean_loop, **self.CASES[case])
        assert got[0] == expected[0] == self.REACHED[case]
        # Every row of every cell, its steps past the one it reached too: a
        # gain not zeroed when its cell left would leave NaN there.
        assert [a.tobytes() for a in got[1]] == [a.tobytes() for a in expected[1]]
        # f sees the same stacks, all finite.
        assert [x.tobytes() for x in got[2]] == [x.tobytes() for x in expected[2]]
        assert all(np.isfinite(x).all() for x in got[2])

    def test_a_one_cell_stretch_writes_into_its_cells_array(self):
        # Past step 12 the first cell runs alone: each of its means is in its
        # array by the next call of f, not in a block buffer copied later.
        A = np.array([ibm_transition(1, 1.0, 0.1).A, ibm_transition(1, 1.0, 0.05).A])
        means = [np.full((40, 2, 1), math.nan), np.full((12, 2, 1), math.nan)]
        gains = [(np.full((n, 2), 0.5), np.arange(n)) for n in (40, 12)]
        written = []

        def f(x):
            if len(x) == 1:
                written.append(np.count_nonzero(np.isfinite(means[0][:, 0, 0])))
            return -x

        assert filtering._mean_loop(f, A, np.ones((2, 2, 1)), gains, means) == [40, 12]
        assert written == list(range(12, 40))


class TestNonFiniteFixedPoint:
    """A NaN covariance pass stops at its first fixed point, and its track ends there."""

    def test_an_overflowing_cell_runs_few_kernel_steps(self, monkeypatch):
        calls = []
        original = filtering.predict_covariance

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(filtering, "predict_covariance", counted)
        h, prior = 0.1 / 128, PriorSpec(1)
        start = initial_covariance(1, h, PerturbedInit(1e300))
        (prefix,) = covariance_prefixes([prior.transition(h)], [0.0], [start], [12_800])
        assert len(calls) == len(prefix.beta) < 10 and prefix.first is not None
        calls.clear()
        args = (get_problem("linear"), prior, h, parse_noise("zero"), PerturbedInit(1e300))
        traj = solve(*args)
        assert len(calls) < 10
        assert traj.diverged
        assert_same_bytes(traj, full_pass_solve(*args))

    def test_a_nan_fixed_point_prefix_is_not_filled_past_itself(self):
        h, prior = 0.0125, PriorSpec(3)
        tm = prior.transition(h)
        start = initial_covariance(3, h, PerturbedInit(1e300))
        (prefix,) = covariance_prefixes([tm], [0.0], [start], [800])
        n = len(prefix.rows)
        assert prefix.first == n - 2 and np.isnan(prefix.P_post[-1]).all()
        track = filtering.covariance_track(prefix, 800)
        assert len(track.rows) == n and not track.singular
        with np.errstate(over="ignore", invalid="ignore"):
            expected = list(itertools.islice(covariance_pass(tm, 0.0, start), n))
        for got, column in zip(track_steps(track, n), zip(*expected)):
            assert got.tobytes() == np.array(column).tobytes()
