import csv
import dataclasses
import math
from itertools import islice

import numpy as np
import pytest
from oracles import covariance_pass, order_bound_tracks

from odefilter import filtering
from odefilter.cli import main
from odefilter.filtering import solve
from odefilter.noise import parse_noise
from odefilter.priors import PriorSpec, ibm_transition
from odefilter.problems import get_problem
from odefilter.steady_state import (
    InsufficientGrid,
    ORDER_BOUND_QUANTITIES,
    OrbitCycle,
    OrbitUnsettled,
    closed_form,
    orbit_limit,
    order_bound_prefixes,
    predicted_exponent,
    verify_order_bounds,
)


def tracked(ss):
    """The six tracked quantities of a SteadyState, in orbit_limit's order."""
    return np.array([ss.P11_pred, ss.P11, ss.P01_pred, ss.P01, ss.beta0, ss.beta1])


def random_psd(rng, scale=1.0):
    raw = rng.normal(size=(2, 2))
    return scale * (raw @ raw.T)


class TestClosedForm:
    def test_zero_noise_values(self):
        h, sigma = 0.1, 1.7
        ss = closed_form(h, sigma, 0.0)
        assert ss.P11_pred == pytest.approx(sigma**2 * h, rel=1e-15)
        assert ss.P11 == 0.0
        assert ss.P01_pred == pytest.approx(sigma**2 * h**2 / 2, rel=1e-15)
        assert ss.P01 == 0.0
        assert ss.beta0 == pytest.approx(h / 2, rel=1e-15)
        assert ss.beta1 == 1.0

    def test_matches_orbit_limit(self):
        ss = closed_form(0.1, 1.0, 0.001)
        limit = orbit_limit(0.1, 1.0, 0.001)
        np.testing.assert_allclose(tracked(ss), tracked(limit), rtol=0, atol=1e-12)

    def test_invariants_hold_for_random_inputs(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            h = 10.0 ** rng.uniform(-4, 0)
            sigma = 10.0 ** rng.uniform(-1, 1)
            R = 0.0 if rng.uniform() < 0.1 else 10.0 ** rng.uniform(-8, 2)
            ss = closed_form(h, sigma, R)
            values = tracked(ss)
            assert np.all(values[:4] >= 0.0)
            assert 0.0 <= ss.beta1 <= 1.0
            scale = 1.0 + abs(ss.P11)
            assert abs(ss.P01 - R * ss.beta0) <= 1e-13 * scale
            assert abs(ss.P11 - R * ss.beta1) <= 1e-13 * scale
            assert abs(ss.P11_pred - (ss.P11 + sigma**2 * h)) <= 1e-13 * (
                1.0 + ss.P11_pred
            )


class TestDareOrbit:
    """The q = 1 covariance pass, a DARE orbit, from chosen starts."""

    def test_first_step_from_zero_matches_worked_example(self):
        orbit = covariance_pass(ibm_transition(1, math.sqrt(10.0), 0.1), 0.0, np.zeros((2, 2)))
        P_pred, P, beta = next(orbit)
        np.testing.assert_allclose(
            P_pred, [[1 / 300, 1 / 20], [1 / 20, 1.0]], atol=1e-15
        )
        np.testing.assert_allclose(beta, [1 / 20, 1.0], atol=1e-15)
        assert abs(P[1, 1]) <= 1e-16

    def test_closed_form_is_fixed_point(self):
        h, sigma, R = 0.05, 1.3, 0.01
        ss = closed_form(h, sigma, R)
        # Assemble the full 2x2 state at the fixed point; P00 is irrelevant
        # for the tracked quantities (the recursion never feeds it back).
        P0 = np.array([[1.0, ss.P01], [ss.P01, ss.P11]])
        for P_pred, P, beta in islice(covariance_pass(ibm_transition(1, sigma, h), R, P0), 5):
            assert abs(P_pred[1, 1] - ss.P11_pred) <= 1e-13
            assert abs(P_pred[0, 1] - ss.P01_pred) <= 1e-13
            assert abs(P[1, 1] - ss.P11) <= 1e-13
            assert abs(P[0, 1] - ss.P01) <= 1e-13
            assert abs(beta[0] - ss.beta0) <= 1e-13
            assert abs(beta[1] - ss.beta1) <= 1e-13

    def test_monotone_contraction_from_random_starts(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            h = 10.0 ** rng.uniform(-3, 0)
            sigma = 10.0 ** rng.uniform(-0.5, 0.5)
            R = sigma**2 * h * 10.0 ** rng.uniform(-3, 0.5)
            target = closed_form(h, sigma, R).P11_pred
            P0 = random_psd(rng, scale=sigma**2)
            orbit = islice(covariance_pass(ibm_transition(1, sigma, h), R, P0), 60)
            gaps = [abs(t[0][1, 1] - target) for t in orbit]
            for earlier, later in zip(gaps, gaps[1:]):
                assert later <= earlier + 1e-15

    def test_orbit_matches_scipy_dare_velocity_block(self):
        # The velocity state is detectable, so the classical DARE solver
        # agrees on P11_pred; the position state diverges and has no 2x2
        # solution, which is why the closed forms exclude it.
        scipy_linalg = pytest.importorskip("scipy.linalg")
        h, sigma, R = 0.1, 1.0, 0.5
        A1 = np.array([[1.0]])
        H = np.array([[1.0]])
        Q11 = np.array([[sigma**2 * h]])
        X = scipy_linalg.solve_discrete_are(A1.T, H.T, Q11, np.array([[R]]))
        assert X[0, 0] == pytest.approx(closed_form(h, sigma, R).P11_pred, rel=1e-12)


class TestOneCovariancePass:
    """solve, orbit_limit and verify_order_bounds all run the recursion of oracles.covariance_pass.

    solve runs it up to the first repeated closed block and copies the
    period after that; the other two stop there.
    """

    @pytest.mark.parametrize("name", ["logistic", "linear"])
    @pytest.mark.parametrize("noise_spec", ["zero", "power:1:5000"])
    def test_orbit_from_zero_equals_solve(self, name, noise_spec):
        h, sigma = 0.1 * 2.0**-3, 1.0
        noise = parse_noise(noise_spec)
        traj = solve(get_problem(name), PriorSpec(1, sigma=sigma), h, noise)
        assert not traj.diverged
        orbit = covariance_pass(ibm_transition(1, sigma, h), noise.evaluate(h), np.zeros((2, 2)))
        P_pred, P_post, beta = map(np.stack, zip(*islice(orbit, len(traj.y))))
        np.testing.assert_array_equal(P_pred, traj.P_pred)
        np.testing.assert_array_equal(P_post, traj.P_post)
        np.testing.assert_array_equal(beta, traj.beta)

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        """Count the kernel calls, patched where covariance_pass looks them up."""
        calls = {}
        for name in ("predict_covariance", "update_covariance", "gain"):
            original = getattr(filtering, name)

            def counted(*args, name=name, original=original):
                calls[name] = calls.get(name, 0) + 1
                return original(*args)

            monkeypatch.setattr(filtering, name, counted)
        return calls

    @staticmethod
    def once_each(n):
        return {"predict_covariance": n, "update_covariance": n, "gain": n}

    def test_solve_runs_the_kernel_once_per_step_up_to_the_first_repeat(self, kernel_calls):
        traj = solve(get_problem("linear"), PriorSpec(2, sigma=1.0), 0.1, parse_noise("zero"))
        assert len(traj.y) == 100
        seen = {}
        for n, P in enumerate(traj.P_post):
            if seen.setdefault(P[:, 1:].tobytes(), n) < n:
                break
        # Step n repeats an earlier closed block; the later steps copy the period.
        assert n + 1 == 17
        assert kernel_calls == self.once_each(n + 1)

    def test_fig2_runs_the_kernel_on_under_30_percent_of_its_steps(self, kernel_calls, tmp_path):
        out = tmp_path / "fig2.csv"
        assert main(["wpd", "--preset", "fig2", "--out", str(out)]) == 0
        with open(out, encoding="utf-8") as fh:
            steps = sum(int(row["n_evals"]) for row in csv.DictReader(fh))
        assert steps == 58_650
        calls = kernel_calls["predict_covariance"]
        assert kernel_calls == self.once_each(calls)
        assert calls <= 0.3 * steps

    def test_fig2_runs_one_stacked_pass(self, kernel_calls, tmp_path):
        # fig2's 32 cells are all q = 1 and have 16 distinct covariance passes
        # (a logistic cell's is a prefix of the linear cell's with the same h
        # and R).  They run side by side, so the kernel runs as often as the
        # longest prefix: 2,369 steps, at h = 0.1/128 with R = 5000 h.
        assert main(["wpd", "--preset", "fig2", "--out", str(tmp_path / "fig2.csv")]) == 0
        calls = kernel_calls["predict_covariance"]
        assert kernel_calls == self.once_each(calls)
        assert calls <= 2_400

    def test_orbit_limit_runs_the_kernel_once_per_step(self, kernel_calls):
        h, sigma, R = 0.05, 1.3, 0.01
        state = orbit_limit(h, sigma, R)
        steps = kernel_calls["predict_covariance"]
        # Without a prefix it runs its own, one kernel call per prefix step.
        (prefix,) = filtering.covariance_prefixes(
            [ibm_transition(1, sigma, h)], [R], [np.zeros((2, 2))], [200_000]
        )
        assert len(prefix.beta) == steps
        assert prefix.first is not None
        # The settle step k: the first step of the orbit that is the state.
        P_pred, P, beta = prefix.P_pred, prefix.P_post, prefix.beta
        columns = [P_pred[:, 1, 1], P[:, 1, 1], P_pred[:, 0, 1], P[:, 0, 1], beta[:, 0], beta[:, 1]]
        rows = np.stack(columns, axis=1)
        k = 1 + int(np.flatnonzero((rows == tracked(state)).all(axis=1))[0])
        assert 1 < k < steps
        # The orbit settles on exactly its step count, no sooner.
        kernel_calls.clear()
        assert orbit_limit(h, sigma, R, max_steps=k) == state
        assert kernel_calls == self.once_each(k)
        with pytest.raises(OrbitUnsettled):
            orbit_limit(h, sigma, R, max_steps=k - 1)

    @pytest.mark.parametrize("noise_spec", ["power:1:1", "power:2:1", "power:3:1", "zero"])
    def test_verify_order_bounds_stops_each_pass_at_its_cycle(self, kernel_calls, noise_spec):
        # The full meshes of this grid add up to 40,950 steps.
        noise = parse_noise(noise_spec)
        verify_order_bounds([0.1 * 2.0**-k for k in range(12)], 1.0, noise.p, noise.K_R)
        steps = kernel_calls["predict_covariance"]
        assert kernel_calls == self.once_each(steps)
        assert steps <= 500

    def test_steady_benchmark_runs_one_pass_per_grid(self, kernel_calls, monkeypatch, tmp_path):
        # The benchmark's four steady calls: one pass per grid, over its
        # longest mesh, serves the order bounds and all 48 orbits.
        passes = []
        original = filtering.covariance_prefixes

        def counted(*args, **kwargs):
            passes.append(len(args[0]))
            return original(*args, **kwargs)

        monkeypatch.setattr(filtering, "covariance_prefixes", counted)
        for noise in ("power:1:1", "power:2:1", "power:3:1", "zero"):
            argv = ["steady", "--sigma", "1", "--noise", noise, "--h-grid", "0.1:2:12"]
            assert main(argv + ["--out", str(tmp_path / "steady.csv")]) == 0
        assert kernel_calls["predict_covariance"] == 68
        assert passes == [12] * 4

    def test_orbit_limit_raises_a_singular_innovation(self):
        # sigma^2 h underflows, so Q = 0 and with R = 0 the first innovation is 0.
        with pytest.raises(filtering.SingularInnovation):
            orbit_limit(0.1, 1e-170, 0.0)

    @pytest.mark.parametrize(
        "h, sigma, R, tol, period",
        [(0.05, 1.3, 0.01, 0.0, 1), (0.1, 100.0, parse_noise("power:1:1").evaluate(0.1), 1e-13, 2)],
    )
    def test_orbit_limit_raises_on_a_cycle_that_never_settles(
        self, kernel_calls, h, sigma, R, tol, period
    ):
        with pytest.raises(OrbitCycle) as info:
            orbit_limit(h, sigma, R, tol=tol)
        assert info.value.period == period
        assert info.value.spread >= tol
        assert kernel_calls["predict_covariance"] <= 100

    def test_an_infinite_R_is_refused_before_any_pass(self, kernel_calls):
        # With R = inf every gain is 0 and P11 grows by sigma^2 h a step, so
        # no orbit settles, and the closed form is NaN.
        grid = [0.1 * 2.0**-k for k in range(8)]
        calls = [
            lambda: closed_form(0.1, 1.0, math.inf),
            lambda: orbit_limit(0.1, 1.0, math.inf),
            lambda: order_bound_prefixes(grid, 1.0, 0.0, math.inf),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="R must be finite"):
                call()
        assert kernel_calls == {}

    def test_orbit_limit_raises_at_once_on_a_nan_fixed_point(self, kernel_calls):
        # R = NaN makes every step NaN; the pass tags the second NaN step,
        # which repeats the first in full, so the orbit cannot settle.
        with pytest.raises(OrbitCycle) as info:
            orbit_limit(0.1, 1.0, math.nan)
        assert info.value.period == 1
        assert math.isnan(info.value.spread)
        assert kernel_calls["predict_covariance"] <= 5


class TestOrbitFromPrefix:
    """orbit_limit reads an orbit from its prefix with the result and errors of its own run."""

    @staticmethod
    def outcome(h, sigma, R, **kwargs):
        """orbit_limit's SteadyState as bytes, or its error's type, period, spread and message."""
        try:
            state = orbit_limit(h, sigma, R, **kwargs)
        except (OrbitCycle, OrbitUnsettled, filtering.SingularInnovation) as exc:
            spread = getattr(exc, "spread", None)
            return type(exc), getattr(exc, "period", None), np.float64(spread).tobytes(), str(exc)
        return [np.float64(value).tobytes() for value in dataclasses.astuple(state)]

    def assert_same(self, h, sigma, R, prefix, **kwargs):
        assert self.outcome(h, sigma, R, prefix=prefix, **kwargs) == self.outcome(
            h, sigma, R, **kwargs
        )

    @staticmethod
    def prefix(h, sigma, R, bound):
        (prefix,) = filtering.covariance_prefixes(
            [ibm_transition(1, sigma, h)], [R], [np.zeros((2, 2))], [bound]
        )
        return prefix

    @pytest.mark.parametrize("h0", [0.1, 0.099738])
    @pytest.mark.parametrize("sigma", [1.0, 50.0, 100.0])
    @pytest.mark.parametrize(
        "noise_spec", ["power:1:1", "power:2:1", "power:3:1", "zero", "const:0.25", "power:1:5000"]
    )
    def test_grid_orbits(self, noise_spec, sigma, h0):
        grid = [h0 * 2.0**-k for k in range(12)]
        noise = parse_noise(noise_spec)
        for h, prefix in zip(grid, order_bound_prefixes(grid, sigma, noise.p, noise.K_R)):
            self.assert_same(h, sigma, noise.evaluate(h), prefix)

    #: (h, sigma, R, tol) and how the orbit ends (a cycle's period, "singular"
    #: or "settles"): orbits that repeat with period 1 and 2 within their
    #: mesh, a NaN fixed point, a singular first innovation, an orbit that
    #: outlives its 10-step mesh, one that settles within its mesh, and one
    #: whose 640-step prefix ends after 2 rows, on a repeat of step 0, and
    #: which settles on step 3, the first step of the prefix's period.
    CELLS = {
        "period-1": ((0.05, 1.3, 0.01, 0.0), 1),
        "period-2": ((0.1, 100.0, parse_noise("power:1:1").evaluate(0.1), 0.0), 2),
        "nan": ((0.1, 1.0, math.nan, 1e-13), 1),
        "singular": ((0.1, 1e-170, 0.0, 1e-13), "singular"),
        "past-the-mesh": ((0.1, 1.0, 0.1, 1e-13), "settles"),
        "settles": ((0.05, 1.3, 0.01, 1e-13), "settles"),
        "settles-after-repeat": (
            (0.0015625, 50.0, parse_noise("power:3:1").evaluate(0.0015625), 1e-13),
            "settles",
        ),
    }

    @pytest.mark.parametrize("cell, ends", list(CELLS.values()), ids=list(CELLS))
    def test_special_orbits_at_each_step_budget(self, cell, ends):
        h, sigma, R, tol = cell
        prefix = self.prefix(h, sigma, R, round(1.0 / h))
        try:
            orbit_limit(h, sigma, R, tol=tol, prefix=prefix)
        except OrbitCycle as exc:
            assert exc.period == ends
        except filtering.SingularInnovation:
            assert ends == "singular"
        else:
            assert ends == "settles"
        self.assert_same(h, sigma, R, prefix, tol=tol)
        # Every budget up to two past the prefix's length, where a period-2
        # cycle is first seen through.
        for max_steps in range(len(prefix.beta) + 3):
            self.assert_same(h, sigma, R, prefix, tol=tol, max_steps=max_steps)


class TestPeriodicStop:
    """verify_order_bounds stops each pass at its first repeated closed block."""

    @pytest.mark.parametrize("h0", [0.1, 0.099738])  # a perturbed top, as benchmark seeds draw
    @pytest.mark.parametrize("sigma", [1.0, 50.0])
    @pytest.mark.parametrize(
        "noise_spec", ["zero", "power:1:1", "power:2:1", "power:3:1", "power:1:5000", "const:1"]
    )
    def test_maxima_equal_the_full_mesh_oracle(self, noise_spec, sigma, h0):
        grid = [h0 * 2.0**-k for k in range(9)]
        noise = parse_noise(noise_spec)
        fits = verify_order_bounds(grid, sigma, noise.p, noise.K_R)
        tracks = order_bound_tracks(grid, sigma, noise)
        expected = np.stack([track.max(axis=0) for track, _ in tracks])
        # Compared as bytes, so that -0.0 and 0.0 differ.
        assert np.stack([f.max_values for f in fits], axis=1).tobytes() == expected.tobytes()
        cycled = 0
        for track, blocks in tracks:
            seen = {}
            for n, block in enumerate(blocks):
                first = seen.setdefault(block, n)
                if first != n:
                    break
            else:
                continue
            cycled += 1
            # Every step after the first repeat is the periodic extension.
            for m in range(n + 1, len(blocks)):
                k = first + 1 + (m - n - 1) % (n - first)
                assert blocks[m] == blocks[k]
                assert track[m].tobytes() == track[k].tobytes()
        assert cycled > 0


class TestVerifyOrderBounds:
    def grid(self):
        return [0.1 * 2.0**-k for k in range(8)]

    def test_p1_predictions(self):
        fits = verify_order_bounds(self.grid(), 1.0, 1.0, 1.0)
        assert [f.predicted for f in fits] == [1.0, 1.0, 2.0, 1.0, 0.0]
        for fit in fits:
            assert abs(fit.fitted - fit.predicted) <= 0.15

    def test_p3_predictions(self):
        fits = verify_order_bounds(self.grid(), 1.0, 3.0, 1.0)
        assert [f.predicted for f in fits] == [1.0, 3.0, 4.0, 1.0, 2.0]
        for fit in fits:
            assert abs(fit.fitted - fit.predicted) <= 0.15

    def test_zero_noise_exact_zero_flags(self):
        fits = {f.quantity: f for f in verify_order_bounds(self.grid(), 1.0, math.inf, 0.0)}
        for name in ("P11", "abs_P01", "one_minus_beta1"):
            assert fits[name].exact_zero
            assert fits[name].fitted is None
        assert abs(fits["P11_pred"].fitted - 1.0) <= 0.05
        assert abs(fits["abs_beta0"].fitted - 1.0) <= 0.05

    def test_only_a_singular_step_within_its_own_mesh_raises(self):
        # A prefix runs over the grid's longest mesh, so a singular innovation
        # may come after the mesh of its own h, where no maximum reads it.
        grid, noise = self.grid(), parse_noise("power:1:1")
        prefixes = order_bound_prefixes(grid, 1.0, noise.p, noise.K_R)
        expected = verify_order_bounds(grid, 1.0, noise.p, noise.K_R, prefixes=prefixes)
        coarse = prefixes[0]
        arrays = (coarse.P_pred, coarse.P_post, coarse.beta, coarse.rows, coarse.P00)
        for n, raises in ((10, False), (9, True)):
            track = filtering.CovarianceTrack(*(a[:n] for a in arrays), None, True)
            args = (grid, 1.0, noise.p, noise.K_R, [track, *prefixes[1:]])
            if raises:
                with pytest.raises(filtering.SingularInnovation, match="h = 0.1: "):
                    verify_order_bounds(*args)
            else:
                fits = verify_order_bounds(*args)
                assert [f.max_values.tobytes() for f in fits] == [
                    f.max_values.tobytes() for f in expected
                ]

    def test_insufficient_grid(self):
        with pytest.raises(InsufficientGrid):
            verify_order_bounds([0.1, 0.05, 0.025], 1.0, 1.0, 1.0)
        with pytest.raises(InsufficientGrid):
            verify_order_bounds([0.1, 0.09, 0.08, 0.07], 1.0, 1.0, 1.0)
        with pytest.raises(InsufficientGrid):
            verify_order_bounds([0.1, 0.2, 0.05, 0.001], 1.0, 1.0, 1.0)

    def test_predicted_exponent_table(self):
        assert predicted_exponent("P11_pred", 0.5) == 0.75
        assert predicted_exponent("P11", 0.5) == 0.75
        assert predicted_exponent("abs_P01", 2.0) == 3.0
        assert predicted_exponent("abs_beta0", 9.0) == 1.0
        assert predicted_exponent("one_minus_beta1", 0.5) == 0.0
        assert math.isinf(predicted_exponent("abs_P01", math.inf))
        with pytest.raises(KeyError):
            predicted_exponent("P00", 1.0)
        assert set(ORDER_BOUND_QUANTITIES) == {
            "P11_pred",
            "P11",
            "abs_P01",
            "abs_beta0",
            "one_minus_beta1",
        }
