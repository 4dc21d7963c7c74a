import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odefilter.filtering import (
    Belief,
    ExactInit,
    NonIntegerMesh,
    PerturbedInit,
    SingularInnovation,
    DivergedEvaluation,
    evaluate_data,
    gain,
    initialize,
    predict,
    solve,
    update,
)
from odefilter.noise import ConstantNoise, PowerLawNoise, ZeroNoise
from odefilter.priors import PriorSpec, ibm_transition
from odefilter.problems import IVProblem, MissingDerivative, get_problem, logistic, riccati

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
            lambda x: cv.copy(),
            lambda x: np.zeros(1),
            lambda x: np.zeros(1),
            lambda x: np.zeros(1),
        ),
        x0=np.array([x0]),
        T=T,
        exact=lambda t: np.array([x0 + c * t]),
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
        exact = initialize(logistic(), prior, 0.1, ExactInit())
        perturbed = initialize(logistic(), prior, 0.1, PerturbedInit(k0=0.0, seed=3))
        np.testing.assert_array_equal(exact.m, perturbed.m)
        np.testing.assert_array_equal(exact.P, perturbed.P)

    @pytest.mark.parametrize("seed", range(10))
    def test_perturbed_envelope(self, seed):
        q, h, k0 = 2, 0.2, 0.7
        prior = PriorSpec(q, sigma=1.0)
        exact = initialize(logistic(), prior, h, ExactInit())
        belief = initialize(logistic(), prior, h, PerturbedInit(k0=k0, seed=seed))
        for i in range(q + 1):
            bound = k0 * h ** (q + 1 - i)
            assert np.all(np.abs(belief.m[i] - exact.m[i]) <= bound)
        for k in range(q + 1):
            for ell in range(q + 1):
                expected = k0 * h ** (2 * q + 1 - k - ell)
                assert belief.P[0, k, ell] == pytest.approx(expected, rel=1e-12)
        belief.validate()

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
        np.testing.assert_allclose(pred.P[0], GOLDEN_Q, atol=1e-15)

    def test_identity_transition_is_noop(self):
        belief = Belief(
            t=0.0, m=np.array([[1.0], [2.0]]), P=np.array([[[0.5, 0.1], [0.1, 0.3]]])
        )
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
            P=GOLDEN_Q[None, :, :].copy(),
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
        assert record.beta[1, 0] == 1.0
        assert posterior.m[1, 0] == y[0]

    def test_zero_residual_keeps_mean(self):
        posterior, record = update(self.pred_belief(), np.array([-0.5]), 0.123)
        assert record.r[0] == 0.0
        np.testing.assert_array_equal(posterior.m, record.m_pred)

    @pytest.mark.parametrize("R", [0.0, 1e-4, 0.3, 7.0])
    def test_gain_covariance_identities(self, R):
        posterior, record = update(self.pred_belief(), np.array([-0.42]), R)
        P = posterior.P[0]
        beta = record.beta[:, 0]
        assert abs(P[0, 1] - R * beta[0]) <= 1e-12
        assert abs(P[1, 1] - R * beta[1]) <= 1e-12


class TestSolve:
    def test_riccati_golden_step(self):
        traj = solve(riccati(), PriorSpec(1, sigma=SQRT10), 0.1, ZeroNoise())
        rec = traj.records[0]
        assert abs(rec.m_pred[0, 0] - 19 / 20) <= 1e-14
        assert abs(rec.m_pred[1, 0] + 0.5) <= 1e-14
        assert np.abs(rec.P_pred[0] - GOLDEN_Q).max() <= 1e-14
        assert abs(rec.y[0] + 6859 / 16000) <= 1e-14
        assert abs(rec.beta[0, 0] - 1 / 20) <= 1e-14
        assert abs(rec.beta[1, 0] - 1.0) <= 1e-14
        assert abs(rec.r[0] - 1141 / 16000) <= 1e-14
        assert abs(rec.m_post[0, 0] - 305141 / 320000) <= 1e-14
        assert abs(rec.m_post[1, 0] + 6859 / 16000) <= 1e-14

    def test_constant_field_reproduced_exactly(self):
        # Dyadic parameters so the float accumulation is itself exact.
        problem = constant_field_problem(c=0.5, x0=2.0, T=8.0)
        traj = solve(problem, PriorSpec(1, sigma=1.0), 0.25, ZeroNoise())
        assert np.all(traj.residual_norms() == 0.0)
        for n, rec in enumerate(traj.records, start=1):
            assert rec.m_post[0, 0] == 2.0 + 0.5 * (n * 0.25)

    def test_constant_field_generic_params(self):
        problem = constant_field_problem(c=0.37, x0=1.1, T=1.0)
        traj = solve(problem, PriorSpec(1, sigma=2.0), 0.1, ZeroNoise())
        assert np.all(traj.residual_norms() <= 1e-15)
        eps = [abs(rec.m_post[0, 0] - (1.1 + 0.37 * rec.t_next)) for rec in traj.records]
        assert max(eps) <= 1e-14

    def test_error_drops_with_h(self):
        problem = logistic()
        prior = PriorSpec(1, sigma=1.0)
        errors = {}
        for h in (0.1, 0.01):
            traj = solve(problem, prior, h, ZeroNoise())
            errors[h] = abs(traj.records[-1].m_post[0, 0] - problem.exact(problem.T)[0])
        assert errors[0.01] * 50.0 < errors[0.1]

    def test_non_integer_mesh(self):
        with pytest.raises(NonIntegerMesh):
            solve(logistic(), PriorSpec(1), 0.4, ZeroNoise())

    def test_q0_rejected(self):
        with pytest.raises(ValueError, match="q >= 1"):
            solve(logistic(), PriorSpec(0), 0.1, ZeroNoise())

    def test_mesh_times(self):
        traj = solve(logistic(), PriorSpec(1), 0.01, ZeroNoise())
        times = traj.times()
        assert len(traj.records) == 150
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
        solve(counted, PriorSpec(1), 0.1, ZeroNoise())
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
        traj = solve(blowup, PriorSpec(1, sigma=1.0), 0.5, ZeroNoise())
        assert traj.diverged
        assert len(traj.records) < 100

    def test_covariances_identical_across_dims(self):
        traj = solve(get_problem("linear"), PriorSpec(1, sigma=1.0), 0.1, ZeroNoise())
        for rec in traj.records:
            np.testing.assert_array_equal(rec.P_post[0], rec.P_post[1])
            np.testing.assert_array_equal(rec.P_pred[0], rec.P_pred[1])


class TestTrajectoryInvariants:
    @pytest.mark.parametrize(
        "name,q,sigma,noise",
        [
            ("logistic", 1, 50.0, ZeroNoise()),
            ("logistic", 2, 50.0, PowerLawNoise(K_R=1.0, p=2.0)),
            ("riccati", 1, SQRT10, ConstantNoise(R=0.5)),
            ("linear", 1, 1.0, PowerLawNoise(K_R=1.0, p=1.0)),
            ("linear", 3, 1.0, ZeroNoise()),
        ],
    )
    def test_psd_and_gain_bounds(self, name, q, sigma, noise):
        problem = get_problem(name)
        traj = solve(problem, PriorSpec(q, sigma=sigma), 0.1, noise)
        assert not traj.diverged
        h = traj.h
        R = noise.evaluate(h)
        for rec in traj.records:
            for j in range(problem.d):
                for P in (rec.P_pred[j], rec.P_post[j]):
                    assert np.abs(P - P.T).max() <= 1e-12
                    floor = -1e-10 * max(np.trace(P), 0.0)
                    assert np.linalg.eigvalsh(P).min() >= floor
                assert 0.0 <= rec.beta[1, j] <= 1.0
                if q == 1:
                    assert rec.P_pred[j][1, 1] >= sigma**2 * h * (1 - 1e-12)
                    assert abs(rec.P_post[j][0, 1] - R * rec.beta[0, j]) <= 1e-12
                    assert abs(rec.P_post[j][1, 1] - R * rec.beta[1, j]) <= 1e-12

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
        belief = Belief(t=0.0, m=np.zeros((n, 1)), P=P0[None])
        pred = predict(belief, tm)
        posterior, _ = update(pred, np.array([0.3]), R)
        w = np.linalg.eigvalsh(posterior.P[0])
        assert w.min() >= -1e-10 * max(np.trace(posterior.P[0]), 1.0)
        assert np.abs(posterior.P[0] - posterior.P[0].T).max() <= 1e-12
