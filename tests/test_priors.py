import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odefilter.priors import IBM, IOUP, PriorSpec, ibm_transition
from odefilter.priors import _expm
from oracles import DimensionMismatch, kron_extend, transition_oracle


def drift_and_diffusion(q, theta=0.0):
    prior = PriorSpec(q=q, kind=IOUP if theta > 0 else IBM, theta=theta)
    return prior.drift_matrix(), prior.diffusion_vector()


class TestDriftMatrix:
    def test_ibm_q1(self):
        np.testing.assert_array_equal(PriorSpec(1).drift_matrix(), [[0, 1], [0, 0]])

    def test_ioup_q1(self):
        theta = 1.7
        np.testing.assert_array_equal(
            PriorSpec(1, IOUP, theta).drift_matrix(), [[0, 1], [0, -theta]]
        )

    def test_q2_nilpotent_shift(self):
        F = PriorSpec(2).drift_matrix()
        np.testing.assert_array_equal(F, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        assert np.all(np.linalg.matrix_power(F, 3) == 0)


class TestIbmTransition:
    def test_golden_values_q1(self):
        tm = ibm_transition(1, math.sqrt(10.0), 0.1)
        np.testing.assert_allclose(tm.A, [[1, 0.1], [0, 1]], rtol=0, atol=1e-15)
        np.testing.assert_allclose(
            tm.Q, [[1 / 300, 1 / 20], [1 / 20, 1.0]], rtol=0, atol=1e-15
        )

    def test_taylor_form_q2(self):
        h = 0.37
        tm = ibm_transition(2, 1.0, h)
        expected = [[1, h, h * h / 2], [0, 1, h], [0, 0, 1]]
        np.testing.assert_allclose(tm.A, expected, rtol=0, atol=1e-15)

    def test_upper_triangular_unit_diagonal(self):
        tm = ibm_transition(4, 2.0, 0.3)
        assert np.allclose(np.tril(tm.A, -1), 0.0)
        assert np.allclose(np.diag(tm.A), 1.0)

    def test_semigroup_direct(self):
        a, b = ibm_transition(1, 1.0, 0.1), ibm_transition(1, 1.0, 0.2)
        np.testing.assert_allclose(b.A, a.A @ a.A, rtol=1e-12)
        np.testing.assert_allclose(b.Q, a.A @ a.Q @ a.A.T + a.Q, rtol=1e-12)

    @given(
        q=st.integers(0, 4),
        h1=st.floats(1e-4, 1.0),
        h2=st.floats(1e-4, 1.0),
        sigma=st.sampled_from([0.1, 1.0, 50.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_semigroup_property(self, q, h1, h2, sigma):
        t1 = ibm_transition(q, sigma, h1)
        t2 = ibm_transition(q, sigma, h2)
        t12 = ibm_transition(q, sigma, h1 + h2)
        scale_a = np.linalg.norm(t12.A)
        scale_q = np.linalg.norm(t12.Q)
        assert np.linalg.norm(t12.A - t2.A @ t1.A) <= 1e-10 * scale_a
        assert np.linalg.norm(t12.Q - (t2.A @ t1.Q @ t2.A.T + t2.Q)) <= 1e-10 * scale_q


class TestIoupTransition:
    def test_last_column_q1(self):
        # Matrix exponential of [[0, 1], [0, -2]] * 0.5 in closed form.
        tm = PriorSpec(1, IOUP, 2.0, 1.0).transition(0.5)
        assert abs(tm.A[0, 1] - (1 - math.exp(-1)) / 2) < 1e-15
        assert abs(tm.A[1, 1] - math.exp(-1)) < 1e-15
        oracle = transition_oracle(*drift_and_diffusion(1, 2.0), 1.0, 0.5)
        np.testing.assert_allclose(tm.A, oracle.A, rtol=0, atol=1e-12)

    def test_theta_to_zero_limit(self):
        ibm = ibm_transition(1, 1.0, 0.1)
        ioup = PriorSpec(1, IOUP, 1e-8, 1.0).transition(0.1)
        assert np.abs(ioup.A - ibm.A).max() < 1e-7

    def test_theta_to_zero_monotone(self):
        ibm = ibm_transition(2, 1.0, 0.1)
        gaps = []
        for theta in (1e-2, 1e-4, 1e-6):
            t = PriorSpec(2, IOUP, theta, 1.0).transition(0.1)
            gaps.append(np.linalg.norm(t.A - ibm.A) + np.linalg.norm(t.Q - ibm.Q))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_covariance_matches_oracle(self):
        tm = PriorSpec(2, IOUP, 1.0, 1.0).transition(0.1)
        oracle = transition_oracle(*drift_and_diffusion(2, 1.0), 1.0, 0.1)
        assert np.linalg.norm(tm.Q - oracle.Q) <= 1e-10 * np.linalg.norm(oracle.Q)

    def test_semigroup(self):
        t1 = PriorSpec(1, IOUP, 2.0, 1.0).transition(0.1)
        t2 = PriorSpec(1, IOUP, 2.0, 1.0).transition(0.25)
        t12 = PriorSpec(1, IOUP, 2.0, 1.0).transition(0.35)
        np.testing.assert_allclose(t12.A, t2.A @ t1.A, rtol=1e-10)
        np.testing.assert_allclose(t12.Q, t2.A @ t1.Q @ t2.A.T + t2.Q, rtol=1e-10)

    def test_non_finite_result_raises(self):
        with pytest.raises(ValueError):
            PriorSpec(3, IOUP, 1.0, 1.0).transition(1e200)  # Q ~ h^7 overflows
        with pytest.raises(ValueError):
            PriorSpec(1, IOUP, 1e10, 1.0).transition(1e300)  # the step norm overflows


def vanloan_reference(q, theta, h):
    """(A, Q) of the unit-sigma IOUP from the full-step Van Loan block in mpmath.

    Over a whole step the block's -F^T part grows like exp(theta h) and Q
    loses digits to cancellation: at 120 digits the worst case here,
    q = 5 and theta h = 100, still agrees with a 200-digit run to 1e-71.
    """
    n = q + 1
    with mpmath.workdps(120):
        B = mpmath.zeros(2 * n, 2 * n)
        for i in range(q):
            B[i, i + 1] = 1
            B[n + i + 1, n + i] = -1
        B[q, q] = -mpmath.mpf(theta)
        B[2 * n - 1, 2 * n - 1] = mpmath.mpf(theta)
        B[q, n + q] = 1
        E = mpmath.expm(B * mpmath.mpf(h))
        A = E[:n, :n]
        Q = E[:n, n:] * A.T
        return (
            np.array(A.tolist(), dtype=float),
            np.array(Q.tolist(), dtype=float),
        )


class TestIoupAgainstMpmath:
    """Entrywise float64 accuracy of the IOUP (A, Q) up to theta h = 100."""

    @pytest.mark.parametrize("theta_h", [1e-8, 0.01, 0.5, 2.0, 10.0, 20.0, 100.0])
    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("h", [0.1, None], ids=["h=0.1", "theta=1"])
    def test_entrywise_relative_error(self, q, theta_h, h):
        theta, h = (theta_h / h, h) if h else (1.0, theta_h)
        A_ref, Q_ref = vanloan_reference(q, theta, h)
        tm = PriorSpec(q, IOUP, theta, 1.0).transition(h)
        bound = 1e-13 if theta_h <= 20.0 else 1e-12
        nonzero = A_ref != 0.0
        assert np.all(tm.A[~nonzero] == 0.0)
        assert np.max(np.abs(tm.A[nonzero] / A_ref[nonzero] - 1.0)) <= bound
        assert np.all(Q_ref > 0.0)
        assert np.max(np.abs(tm.Q / Q_ref - 1.0)) <= bound
        assert np.array_equal(tm.Q, tm.Q.T)
        scale = 1.0 / np.sqrt(np.diag(tm.Q))
        np.linalg.cholesky(tm.Q * np.outer(scale, scale))  # raises unless PD


class TestTransitionOracle:
    def test_zero_drift(self):
        F = np.zeros((3, 3))
        L = np.array([0.0, 0.0, 1.0])
        tm = transition_oracle(F, L, 2.0, 0.7)
        np.testing.assert_allclose(tm.A, np.eye(3), rtol=0, atol=1e-14)
        np.testing.assert_allclose(tm.Q, 0.7 * 4.0 * np.outer(L, L), rtol=0, atol=1e-13)

    def test_matches_ibm_golden_values(self):
        oracle = transition_oracle(*drift_and_diffusion(1), math.sqrt(10.0), 0.1)
        np.testing.assert_allclose(oracle.A, [[1, 0.1], [0, 1]], rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            oracle.Q, [[1 / 300, 1 / 20], [1 / 20, 1.0]], rtol=0, atol=1e-12
        )

    def test_matches_ioup(self):
        tm = PriorSpec(1, IOUP, 2.0, 1.0).transition(0.5)
        oracle = transition_oracle(*drift_and_diffusion(1, 2.0), 1.0, 0.5)
        assert np.linalg.norm(tm.A - oracle.A) <= 1e-10 * np.linalg.norm(oracle.A)
        assert np.linalg.norm(tm.Q - oracle.Q) <= 1e-10 * np.linalg.norm(oracle.Q)

    def test_expm_against_scipy(self):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(7)
        for _ in range(20):
            M = rng.normal(scale=1.5, size=(4, 4))
            np.testing.assert_allclose(
                _expm(M), scipy_linalg.expm(M), rtol=1e-12, atol=1e-12
            )


class TestClosedFormAgainstOracle:
    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    @pytest.mark.parametrize("theta", [0.0, 0.5, 2.0])
    def test_grid(self, q, theta):
        for sigma in (0.1, 1.0, 50.0):
            for h in (1e-4, 1e-2, 1.0):
                if theta == 0.0:
                    tm = ibm_transition(q, sigma, h)
                else:
                    tm = PriorSpec(q, IOUP, theta, sigma).transition(h)
                oracle = transition_oracle(*drift_and_diffusion(q, theta), sigma, h)
                assert np.linalg.norm(tm.A - oracle.A) <= 1e-10 * np.linalg.norm(oracle.A)
                assert np.linalg.norm(tm.Q - oracle.Q) <= 1e-10 * np.linalg.norm(oracle.Q)


class TestCovariancePsd:
    @given(
        q=st.integers(0, 4),
        h=st.floats(1e-4, 1.0),
        sigma=st.sampled_from([0.1, 1.0, 50.0]),
        theta=st.sampled_from([0.0, 0.5, 2.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_symmetric_psd(self, q, h, sigma, theta):
        if theta == 0.0:
            tm = ibm_transition(q, sigma, h)
        else:
            tm = PriorSpec(q, IOUP, theta, sigma).transition(h)
        assert np.array_equal(tm.Q, tm.Q.T)
        eigs = np.linalg.eigvalsh(tm.Q)
        assert eigs.min() >= -1e-12 * np.linalg.norm(tm.Q)


class TestKronExtend:
    def test_identity_factors_give_block_diagonal(self):
        prior = PriorSpec(q=1, sigma=1.0)
        drift = kron_extend(np.eye(2), np.eye(2), prior)
        big = transition_oracle(drift.F_big, drift.L_big, 1.0, 0.1)
        small = ibm_transition(1, 1.0, 0.1)
        for block in range(2):
            sl = slice(2 * block, 2 * block + 2)
            np.testing.assert_allclose(big.A[sl, sl], small.A, rtol=0, atol=1e-12)
            np.testing.assert_allclose(big.Q[sl, sl], small.Q, rtol=0, atol=1e-12)
        off = big.Q.copy()
        off[0:2, 0:2] = 0.0
        off[2:4, 2:4] = 0.0
        assert np.abs(off).max() < 1e-13
        assert np.abs(np.tril(big.A[0:2, 2:4])).max() == 0.0

    def test_coupled_state_factor(self):
        prior = PriorSpec(q=1, sigma=1.0)
        Kx = np.array([[1.0, 0.5], [0.5, 1.0]])
        drift = kron_extend(Kx, np.eye(2), prior)
        F = prior.drift_matrix()
        np.testing.assert_array_equal(drift.F_big[0:2, 2:4], 0.5 * F)
        np.testing.assert_array_equal(drift.F_big[2:4, 0:2], 0.5 * F)
        np.testing.assert_array_equal(drift.F_big[0:2, 0:2], F)

    def test_scalar_reduces_to_base_model(self):
        prior = PriorSpec(q=2, sigma=1.0)
        drift = kron_extend(np.eye(1), np.eye(1), prior)
        np.testing.assert_array_equal(drift.F_big, prior.drift_matrix())
        np.testing.assert_array_equal(drift.L_big, prior.diffusion_vector()[:, None])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            kron_extend(np.eye(2), np.eye(3), PriorSpec(q=1))


class TestPriorSpec:
    def test_ibm_requires_zero_theta(self):
        with pytest.raises(ValueError):
            PriorSpec(q=1, kind=IBM, theta=0.5)

    def test_ioup_requires_positive_theta(self):
        with pytest.raises(ValueError):
            PriorSpec(q=1, kind=IOUP, theta=0.0)

    def test_sigma_positive(self):
        with pytest.raises(ValueError):
            PriorSpec(q=1, sigma=0.0)

    def test_transition_dispatch(self):
        ibm = PriorSpec(q=1, sigma=2.0).transition(0.1)
        assert ibm.A[1, 1] == 1.0
        ioup = PriorSpec(q=1, kind=IOUP, theta=1.0, sigma=2.0).transition(0.1)
        assert abs(ioup.A[1, 1] - math.exp(-0.1)) < 1e-14

    @pytest.mark.parametrize("sigma", [1e200, math.inf])
    @pytest.mark.parametrize("kind, theta", [(IBM, 0.0), (IOUP, 1.0)])
    def test_an_overflowing_sigma_raises_a_value_error(self, kind, theta, sigma):
        # sigma**2 overflows (1e200) or is inf: (A, Q) is not finite.
        with pytest.raises(ValueError, match=r"\(A, Q\) overflows at h = 0.1"):
            PriorSpec(q=1, kind=kind, theta=theta, sigma=sigma).transition(0.1)
