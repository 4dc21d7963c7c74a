import collections
import dataclasses
import math

import numpy as np
import pytest

from odefilter import cli
from odefilter.diagnostics import MissingExact, credible_width, global_error, misalignment
from odefilter.filtering import PerturbedInit, solve, solve_cells
from odefilter.noise import PowerLawNoise, parse_noise
from odefilter.priors import PriorSpec
from odefilter.problems import IVProblem, get_problem, logistic, riccati
from oracles import (
    credible_width_loop,
    global_error_loop,
    h_norm,
    loglog_slope,
    max_width,
    misalignment_loop,
    pointwise_problem,
)

SQRT10 = math.sqrt(10.0)


def constant_problem():
    c = np.array([0.5])
    return IVProblem(
        name="constant",
        d=1,
        f=lambda x: c.copy(),
        derivatives=(lambda x: np.asarray(x, dtype=float), lambda x: np.full(np.shape(x), 0.5)),
        x0=np.array([2.0]),
        T=8.0,
        exact=lambda ts: (2.0 + 0.5 * ts)[:, None],
    )


class TestGlobalError:
    def test_zero_for_exactly_solved_field(self):
        problem = constant_problem()
        traj = solve(problem, PriorSpec(1, sigma=1.0), 0.25, parse_noise("zero"))
        series = global_error(traj, problem)
        assert series.max_eps0 == 0.0
        assert np.all(series.eps == 0.0)
        assert np.all(series.h_norm_series == 0.0)

    def test_riccati_one_step_value(self):
        # Oracle: subtract the closed-form solution from the worked-example
        # posterior mean, 305141/320000 - (1.1)^(-1/2).
        expected = 305141 / 320000 - 1.1**-0.5
        problem = riccati()
        traj = solve(problem, PriorSpec(1, sigma=SQRT10), 0.1, parse_noise("zero"))
        series = global_error(traj, problem)
        assert series.eps[1, 0, 0] == pytest.approx(expected, abs=1e-14)
        assert expected == pytest.approx(1.0304e-4, abs=1e-8)

    def test_halving_h_shrinks_max_error(self):
        problem = logistic()
        prior = PriorSpec(1, sigma=1.0)
        coarse = global_error(solve(problem, prior, 0.1, parse_noise("zero")), problem)
        fine = global_error(solve(problem, prior, 0.05, parse_noise("zero")), problem)
        assert fine.max_eps0 < coarse.max_eps0

    @pytest.mark.parametrize("name,q", [("logistic", 2), ("linear", 3)])
    def test_h_norm_series_matches_h_norm(self, name, q):
        problem = get_problem(name)
        traj = solve(problem, PriorSpec(q, sigma=1.0), 0.05, PowerLawNoise(K_R=1.0, p=q))
        series = global_error(traj, problem)
        assert len(series.h_norm_series) == len(traj.times())
        for n, eps in enumerate(series.eps):
            assert series.h_norm_series[n] == h_norm(eps, traj.h)

    def test_missing_exact(self):
        problem = constant_problem()
        bare = IVProblem(
            name="bare",
            d=1,
            f=problem.f,
            derivatives=problem.derivatives,
            x0=problem.x0,
            T=problem.T,
            exact=None,
        )
        traj = solve(bare, PriorSpec(1), 0.25, parse_noise("zero"))
        with pytest.raises(MissingExact):
            global_error(traj, bare)


class TestHNorm:
    def test_definition(self):
        eps = np.array([[0.0], [1.0]])
        assert h_norm(eps, 0.1) == pytest.approx(0.1, abs=1e-17)

    def test_zero(self):
        assert h_norm(np.zeros((3, 2)), 0.5) == 0.0

    def test_unit_h_is_plain_row_sum(self):
        eps = np.array([[3.0, 4.0], [1.0, 0.0]])
        assert h_norm(eps, 1.0) == pytest.approx(5.0 + 1.0, rel=1e-15)

    def test_dominates_value_row(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            eps = rng.normal(size=(3, 2))
            h = 10.0 ** rng.uniform(-3, 0)
            assert h_norm(eps, h) >= np.linalg.norm(eps[0]) - 1e-15


class TestMisalignment:
    def test_riccati_zero_noise_value(self):
        problem = riccati()
        traj = solve(problem, PriorSpec(1, sigma=SQRT10), 0.1, parse_noise("zero"))
        delta1 = misalignment(traj, problem, 1)
        assert delta1[0] == 0.0
        assert delta1[1] == pytest.approx(0.00485, abs=5e-5)

    def test_riccati_unit_noise_value(self):
        problem = riccati()
        traj = solve(problem, PriorSpec(1, sigma=SQRT10), 0.1, parse_noise("const:1.0"))
        delta1 = misalignment(traj, problem, 1)
        assert delta1[1] == pytest.approx(0.03324, abs=5e-6)

    def test_zeroth_misalignment_vanishes(self):
        problem = logistic()
        traj = solve(problem, PriorSpec(2, sigma=1.0), 0.1, PowerLawNoise(K_R=1.0, p=2.0))
        assert np.all(misalignment(traj, problem, 0) == 0.0)

    @pytest.mark.parametrize("name,q,i", [("logistic", 3, 1), ("logistic", 3, 3), ("linear", 2, 2)])
    def test_matches_per_point_loop(self, name, q, i):
        problem = get_problem(name)
        traj = solve(problem, PriorSpec(q, sigma=1.0), 0.05, parse_noise("const:0.01"))
        g_i = problem.derivative(i)
        oracle = [np.linalg.norm(m[i] - np.asarray(g_i(m[0]))) for m in traj.means()]
        np.testing.assert_allclose(misalignment(traj, problem, i), oracle, rtol=1e-15, atol=0.0)

    def test_constant_field_has_no_misalignment(self):
        problem = constant_problem()
        for h in (0.5, 0.25, 0.125):
            traj = solve(problem, PriorSpec(1, sigma=1.0), h, parse_noise("zero"))
            assert np.all(misalignment(traj, problem, 1) == 0.0)


class TestCredibleWidth:
    def test_dirac_start_has_zero_width(self):
        problem = riccati()
        traj = solve(problem, PriorSpec(1, sigma=SQRT10), 0.1, parse_noise("zero"))
        cw = credible_width(traj)
        assert np.all(cw.widths[0] == 0.0)
        assert np.all(cw.widths[1:] > 0.0)

    def test_width_slope_is_one(self):
        problem = logistic()
        hs = [0.1 * 2.0**-k for k in range(5)]
        maxima = []
        for h in hs:
            traj = solve(problem, PriorSpec(1, sigma=1.0), h, PowerLawNoise(K_R=1.0, p=1.0))
            maxima.append(max_width(credible_width(traj)))
        assert loglog_slope(hs[1:], maxima[1:]) == pytest.approx(1.0, abs=0.1)

    def test_width_scales_linearly_with_sigma(self):
        problem = logistic()
        lo = solve(problem, PriorSpec(1, sigma=1.0), 0.1, parse_noise("zero"))
        hi = solve(problem, PriorSpec(1, sigma=2.0), 0.1, parse_noise("zero"))
        np.testing.assert_allclose(
            credible_width(hi).widths[1:], 2.0 * credible_width(lo).widths[1:], rtol=1e-10
        )

    def test_ratio_series(self):
        problem = riccati()
        traj = solve(problem, PriorSpec(1, sigma=SQRT10), 0.1, parse_noise("zero"))
        cw = credible_width(traj, problem)
        assert cw.ratios is not None
        assert cw.ratios[0, 0] == 1.0  # 0/0 at the Dirac start
        assert np.all(np.isfinite(cw.ratios[1:]))

    def test_ratio_requires_exact(self):
        problem = riccati()
        bare = IVProblem(
            name="bare",
            d=1,
            f=problem.f,
            derivatives=problem.derivatives,
            x0=problem.x0,
            T=problem.T,
            exact=None,
        )
        traj = solve(bare, PriorSpec(1, sigma=1.0), 0.1, parse_noise("zero"))
        assert credible_width(traj).ratios is None
        with pytest.raises(MissingExact):
            credible_width(traj, bare)


class TestMatchesPerPointLoops:
    """The whole-mesh diagnostics against the per-point loops, byte for byte."""

    @pytest.mark.parametrize("h", [0.1, 0.05])
    @pytest.mark.parametrize(
        "init", [PerturbedInit(0.0), PerturbedInit(k0=1.0)], ids=["exact", "perturbed"]
    )
    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    @pytest.mark.parametrize("name", ["logistic", "linear", "riccati"])
    def test_byte_identical(self, name, q, init, h):
        problem = get_problem(name)
        traj = solve(problem, PriorSpec(q, sigma=1.0), h, PowerLawNoise(K_R=1.0, p=q), init)
        assert not traj.diverged
        pointwise = pointwise_problem(problem)
        series, oracle = global_error(traj, problem), global_error_loop(traj, pointwise)
        assert series.eps.tobytes() == oracle.eps.tobytes()
        assert series.h_norm_series.tobytes() == oracle.h_norm_series.tobytes()
        assert np.float64(series.max_eps0).tobytes() == np.float64(oracle.max_eps0).tobytes()
        assert series.norms0.tobytes() == oracle.norms0.tobytes()
        for i in range(q + 1):
            delta = misalignment(traj, problem, i)
            assert delta.tobytes() == misalignment_loop(traj, pointwise, i).tobytes()
            at_T = misalignment(traj, problem, i, at=slice(-1, None))
            assert at_T.tobytes() == delta[-1:].tobytes()
        widths, expected = credible_width(traj, problem), credible_width_loop(traj, pointwise)
        assert widths.widths.tobytes() == expected.widths.tobytes()
        assert widths.ratios.tobytes() == expected.ratios.tobytes()


class TestWorkBound:
    @pytest.mark.parametrize("q", [1, 3])
    @pytest.mark.parametrize("name", ["logistic", "linear"])
    def test_wpd_cell_calls_each_map_once(self, name, q, monkeypatch, tmp_path):
        # One Counter per cell, counting the map calls made after its solve
        # (initialize's are not counted): global_error's g_0 for the value
        # errors (a row reads no higher derivative error) and misalignment's
        # g_1 at T; credible_width is called without the problem.  The counts
        # must not grow with q or the mesh.  exact runs once per cell, on its
        # own mesh.
        cells = []
        problem = get_problem(name)

        def counted(key, fn):
            def wrapper(*args):
                if cells and cells[-1] is not None:
                    cells[-1][key] += 1
                return fn(*args)

            return wrapper

        traced = dataclasses.replace(
            problem,
            exact=counted("exact", problem.exact),
            derivatives=tuple(counted("derivative", g) for g in problem.derivatives),
        )

        def solve_then_count(*args, **kwargs):
            # A cell's Counter opens when its trajectory is handed out, and
            # closes when the next one is asked for.
            cells.append(None)
            for traj in solve_cells(*args, **kwargs):
                cells[-1] = collections.Counter()
                yield traj
                cells.append(None)
            cells.pop()

        monkeypatch.setattr(cli, "get_problem", lambda _: traced)
        monkeypatch.setattr(cli, "solve_cells", solve_then_count)
        argv = f"wpd --problem {name} --q {q} --noise zero,power:{q}:1 --h-grid 0.1:2:4"
        assert cli.main(argv.split() + ["--out", str(tmp_path / "wpd.csv")]) == 0
        assert [cell["derivative"] for cell in cells] == [2] * 8
        assert [cell["exact"] for cell in cells] == [1] * 8
