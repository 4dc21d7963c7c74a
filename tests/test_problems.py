import itertools
import math

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from odefilter.problems import (
    IVProblem,
    MissingDerivative,
    PROBLEMS,
    get_problem,
    linear_rotation,
    logistic,
    riccati,
)
from oracles import (
    ROTATION,
    SCALAR_EXACT,
    OracleNotConverged,
    reference_solve,
    validate_problem,
)

# Frozen from reference_solve(logistic(), h_ref=1.5e-4) and confirmed by the
# closed form lam1*x0*e^(lam0*T) / (lam1 + x0*(e^(lam0*T) - 1)).
LOGISTIC_AT_T = 0.9091066375909784


class TestLogistic:
    def test_field_at_x0(self):
        p = logistic()
        assert p.f(np.array([0.1]))[0] == pytest.approx(0.27, abs=1e-15)

    def test_initial_condition(self):
        p = logistic()
        assert p.exact(np.array([0.0]))[0][0] == pytest.approx(0.1, abs=1e-15)

    def test_exact_at_horizon_matches_reference(self):
        p = logistic()
        ref = reference_solve(p, h_ref=1.5e-4)
        x_T = p.exact(np.array([p.T]))[0]
        assert abs(x_T[0] - ref(p.T)[0]) < 1e-8
        assert x_T[0] == pytest.approx(LOGISTIC_AT_T, abs=1e-13)

    def test_capacity_is_equilibrium(self):
        assert logistic().f(np.array([1.0]))[0] == 0.0

    def test_second_derivative_form(self):
        p = logistic()
        for x in (0.1, 0.4, 0.9):
            xv = np.array([x])
            expected = 3.0 * (1 - 2 * x) * p.f(xv)
            assert p.derivative(2)(xv)[0] == pytest.approx(expected[0], rel=1e-13)


class TestLinearRotation:
    def test_half_revolution(self):
        p = linear_rotation()
        np.testing.assert_allclose(p.exact(np.array([1.0]))[0], [0.0, -1.0], atol=1e-15)

    def test_full_period_returns_to_start(self):
        p = linear_rotation()
        np.testing.assert_allclose(p.exact(np.array([10.0]))[0], p.x0, atol=1e-12)

    def test_matrix_power_derivatives(self):
        p = linear_rotation()
        np.testing.assert_allclose(
            p.derivative(2)(p.x0), [0.0, -math.pi**2], atol=1e-12
        )


class TestRiccati:
    def test_field_at_x0(self):
        assert riccati().f(np.array([1.0]))[0] == -0.5

    def test_exact_values(self):
        p = riccati()
        assert p.exact(np.array([1.0]))[0][0] == pytest.approx(1 / math.sqrt(2), abs=1e-15)
        assert p.exact(np.array([0.1]))[0][0] == pytest.approx(1.1**-0.5, abs=1e-15)

    def test_fifth_power_second_derivative(self):
        p = riccati()
        for x in (0.5, 1.0, 1.5):
            assert p.derivative(2)(np.array([x]))[0] == pytest.approx(
                0.75 * x**5, rel=1e-13
            )


#: The packaged polynomial fields, from which each scalar problem builds its chain.
FIELDS = {
    "logistic": Polynomial([0.0, 3.0, -3.0]),
    "riccati": Polynomial([0.0, 0.0, 0.0, -0.5]),
}


def special_states(d: int, n: int = 10_000) -> np.ndarray:
    """Random magnitudes 1e+-300 of both signs, then every d-tuple of special values.

    Signed zeros, subnormals and the extremes in each position, against each
    other and a plain value; -0.0 * pi is where BLAS's +0.0 start shows.
    """
    rng = np.random.default_rng(0)
    magnitudes = 10.0 ** rng.uniform(-300.0, 300.0, (n, d))
    random = rng.choice([-1.0, 1.0], (n, d)) * magnitudes
    special = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310, 1e308, -1e308, 1.5, -1.5]
    special += [math.inf, -math.inf, math.nan]
    pairs = np.array(list(itertools.product(special, repeat=d)))
    return np.concatenate((random, pairs))


class TestScalarField:
    """The scalar problems' maps run Polynomial.__call__'s operations on whole arrays."""

    @pytest.mark.parametrize("name", ["logistic", "riccati"])
    def test_every_map_equals_the_polynomial_bit_for_bit(self, name):
        p = get_problem(name)
        chain = [Polynomial([0.0, 1.0]), FIELDS[name]]
        while len(chain) < len(p.derivatives):
            chain.append(chain[-1].deriv() * FIELDS[name])
        states = special_states(1)
        with np.errstate(over="ignore", invalid="ignore"):
            for i, poly in enumerate(chain):
                value, expected = p.derivative(i)(states), poly(states)
                assert value.shape == expected.shape == states.shape
                assert value.tobytes() == expected.tobytes(), i
            assert p.f is p.derivative(1)


class TestLinearField:
    """The linear problem's f is the BLAS product ROTATION @ x, row by row."""

    def test_f_equals_the_matrix_product_bit_for_bit(self):
        f = get_problem("linear").f
        states = special_states(2)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = np.stack([ROTATION @ x for x in states])
            assert f(states).tobytes() == expected.tobytes()
            for x, row in zip(states, expected):
                value = f(x)
                assert value.shape == (2,) and value.dtype == row.dtype
                assert value.tobytes() == row.tobytes(), x


class TestFieldOnStacks:
    """f is pointwise: on a stack it equals f row by row, byte for byte."""

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_stack_equals_rows(self, name):
        p = get_problem(name)
        states = special_states(p.d, 2_000)
        # A strided stack: the value rows of a (N, q+1, d) mean stack, as the
        # filter passes them, and every other row of that.
        means = np.zeros((len(states), 3, p.d))
        means[:, 0] = states
        with np.errstate(over="ignore", invalid="ignore"):
            rows = np.stack([p.f(x) for x in states])
            cases = [
                (states, rows),
                (means[:, 0], rows),
                (means[::2, 0], rows[::2]),
                (states.reshape(-1, 1, p.d), rows.reshape(-1, 1, p.d)),
            ]
            for stack, expected in cases:
                value = p.f(stack)
                assert value.shape == stack.shape
                assert value.tobytes() == np.ascontiguousarray(expected).tobytes()


class TestDerivativeChain:
    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_g1_is_f_on_probes(self, name):
        p = get_problem(name)
        rng = np.random.default_rng(0)
        for _ in range(20):
            t = rng.uniform(0.0, p.T)
            x = p.exact(np.array([t]))[0]
            np.testing.assert_allclose(p.derivative(1)(x), p.f(x), rtol=1e-13)

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_chain_consistent_along_flow(self, name):
        # d/dt g_{i-1}(x(t)) = g_i(x(t)); central differences along the
        # closed-form solution must reproduce each map.
        p = get_problem(name)
        dt = 1e-5
        ts = np.linspace(0.05 * p.T, 0.95 * p.T, 9)
        for i in range(1, min(len(p.derivatives) - 1, 4) + 1):
            g_prev, g_i = p.derivative(i - 1), p.derivative(i)
            for t in ts:
                fd = (
                    np.asarray(g_prev(p.exact(np.array([t + dt]))[0]))
                    - np.asarray(g_prev(p.exact(np.array([t - dt]))[0]))
                ) / (2 * dt)
                val = np.asarray(g_i(p.exact(np.array([t]))[0]))
                scale = max(np.linalg.norm(val), 1e-6)
                assert np.linalg.norm(fd - val) <= 1e-5 * scale

    def test_missing_derivative_raises(self):
        p = logistic()
        with pytest.raises(MissingDerivative):
            p.derivative(len(p.derivatives))
        with pytest.raises(MissingDerivative):
            p.derivative(-1)

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_validation_passes(self, name):
        validate_problem(get_problem(name))


def preset_mesh(T):
    """Every mesh time of the fig1/fig2/figC grid 0.1:2:8, as ``Trajectory.times`` forms them."""
    hs = [0.1 * 2.0**-k for k in range(8)]
    return np.concatenate([np.arange(round(T / h) + 1) * h for h in hs])


class TestStackedMaps:
    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_exact_matches_scalar_formula_on_preset_mesh(self, name):
        # numpy's exp and ** round differently from math.exp and float **
        # at some of these times, so only the per-time formula passes.
        p = get_problem(name)
        ts = preset_mesh(p.T)
        scalar = np.stack([SCALAR_EXACT[name](t) for t in ts])
        stacked = p.exact(ts)
        assert stacked.shape == (len(ts), p.d)
        assert stacked.tobytes() == scalar.tobytes()

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_derivative_maps_act_pointwise(self, name):
        p = get_problem(name)
        xs = p.exact(preset_mesh(p.T)[::7])
        for g in p.derivatives:
            stacked = g(xs)
            assert stacked.shape == xs.shape
            assert stacked.tobytes() == np.stack([g(x) for x in xs]).tobytes()
            assert g(xs[:12].reshape(3, 4, p.d)).tobytes() == stacked[:12].tobytes()

    def test_rotation_maps_equal_matrix_vector_products(self):
        # Each power of the rotation has one nonzero per row and +0.0 in the
        # other entry, so x @ M.T is M @ x bit for bit, signed zeros included.
        p = linear_rotation()
        values = [0.0, -0.0, 1.0, -1.0, 5e-324, 3.7, -2.5e10]
        xs = np.array([[a, b] for a in values for b in values])
        xs = np.concatenate((xs, p.exact(preset_mesh(p.T))))
        for i, g in enumerate(p.derivatives):
            M = np.linalg.matrix_power(ROTATION, i)
            assert np.all(np.count_nonzero(M, axis=1) == 1)
            assert not np.signbit(M[M == 0.0]).any()
            assert g(xs).tobytes() == np.stack([M @ x for x in xs]).tobytes()
            strided = np.stack((xs, xs), axis=1)[:, 0]
            assert g(strided).tobytes() == g(xs).tobytes()


class TestValidate:
    @staticmethod
    def cubic_decay(exact, f=None):
        g1 = riccati().derivative(1)
        return IVProblem(
            name="cubic",
            d=1,
            f=f or g1,
            derivatives=(lambda x: np.asarray(x, dtype=float), g1),
            x0=np.array([1.0]),
            T=1.0,
            exact=exact,
        )

    def test_names_first_time_off_the_ode(self):
        def exact(ts):
            return np.where(ts > 0.5, 1.001, 1.0)[:, None] * (ts[:, None] + 1.0) ** -0.5

        ts = np.linspace(1e-5, 1.0 - 1e-5, 100)
        first = ts[ts > 0.5][0]
        with pytest.raises(ValueError, match=f"violates the ODE at t={first:g} "):
            validate_problem(self.cubic_decay(exact))

    def test_names_first_time_f_differs(self):
        g1 = riccati().derivative(1)

        def f(x):
            return g1(x) * (1.0 + 1e-9 * (x < 0.8))

        ts = np.linspace(1e-5, 1.0 - 1e-5, 100)
        first = ts[(ts + 1.0) ** -0.5 < 0.8][0]
        problem = self.cubic_decay(riccati().exact, f)
        with pytest.raises(ValueError, match=f"differs from f at t={first:g}$"):
            validate_problem(problem)


class TestReferenceSolve:
    def test_logistic_oracle(self):
        p = logistic()
        ref = reference_solve(p, h_ref=1.5e-4)
        assert ref.richardson_error < 1e-8
        for t in (0.0, 0.33, 0.7501, 1.5):
            assert abs(ref(t)[0] - p.exact(np.array([t]))[0][0]) < 1e-8

    def test_riccati_oracle_tight(self):
        p = riccati()
        ref = reference_solve(p, h_ref=1e-4)
        for t in np.linspace(0.0, 1.0, 11):
            assert abs(ref(t)[0] - (t + 1.0) ** -0.5) < 1e-10

    def test_constant_field_exact(self):
        p = IVProblem(
            name="still",
            d=1,
            f=lambda x: np.zeros(1),
            derivatives=(lambda x: np.asarray(x, dtype=float), lambda x: np.zeros(1)),
            x0=np.array([4.0]),
            T=1.0,
        )
        ref = reference_solve(p, h_ref=1e-4)
        assert ref.richardson_error == 0.0
        assert ref(0.61803)[0] == 4.0

    def test_step_size_precondition(self):
        with pytest.raises(ValueError):
            reference_solve(logistic(), h_ref=0.01)

    def test_not_converged_on_violent_problem(self):
        p = IVProblem(
            name="exponential-blowup",
            d=1,
            f=lambda x: 50.0 * np.asarray(x, dtype=float),
            derivatives=(
                lambda x: np.asarray(x, dtype=float),
                lambda x: 50.0 * np.asarray(x, dtype=float),
            ),
            x0=np.array([1.0]),
            T=1.0,
        )
        with pytest.raises(OracleNotConverged):
            reference_solve(p, h_ref=1e-4)


class TestRegistry:
    def test_known_names(self):
        assert set(PROBLEMS) == {"logistic", "linear", "riccati"}

    def test_lookup(self):
        assert get_problem("riccati").name == "riccati"

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_lookup_is_memoized(self, name):
        assert get_problem(name) is get_problem(name)

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_shared_x0_is_read_only(self, name):
        problem = get_problem(name)
        with pytest.raises(ValueError):
            problem.x0[0] = 0.5

    def test_unknown_name(self):
        cached = get_problem.cache_info().currsize
        for _ in range(2):
            with pytest.raises(KeyError):
                get_problem("van-der-pol")
        assert get_problem.cache_info().currsize == cached
