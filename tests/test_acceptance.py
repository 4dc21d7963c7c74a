"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Every tolerance is pinned here; nothing is deferred.
"""

import math
import time
from itertools import islice

import numpy as np
import pytest

from odefilter.diagnostics import credible_width, global_error, misalignment
from odefilter.filtering import solve
from odefilter.noise import PowerLawNoise, parse_noise
from odefilter.priors import PriorSpec, ibm_transition
from odefilter.problems import IVProblem, get_problem, riccati
from odefilter.steady_state import closed_form, verify_order_bounds
from oracles import covariance_pass, kron_extend, loglog_slope, max_width, transition_oracle

SQRT10 = math.sqrt(10.0)
H_GRID = [0.1 * 2.0**-k for k in range(6)]  # 0.1 .. 0.003125


def report(number, name, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d} [{name}]: {status} ({elapsed:.2f}s) {detail}")
    assert ok, f"criterion {number} [{name}] failed: {detail}"


def final_errors(problem, prior, noise_for_h, hs=H_GRID, **kwargs):
    errors = []
    for h in hs:
        traj = solve(problem, prior, h, noise_for_h(h), **kwargs)
        assert not traj.diverged
        errors.append(float(global_error(traj, problem).norms0[-1]))
    return errors


def test_criterion_01_worked_example_golden():
    start = time.perf_counter()
    problem = riccati()
    prior = PriorSpec(1, sigma=SQRT10)
    traj = solve(problem, prior, 0.1, parse_noise("zero"))
    m_pred, y, beta, m_post = traj.m_pred[0], traj.y[0], traj.beta[0], traj.m_post[0]
    tol = 1e-14
    checks = {
        "m_pred0": abs(m_pred[0, 0] - 19 / 20),
        "m_pred1": abs(m_pred[1, 0] + 1 / 2),
        "P_pred": float(
            np.abs(traj.P_pred[0] - [[1 / 300, 1 / 20], [1 / 20, 1.0]]).max()
        ),
        "y": abs(y[0] + 6859 / 16000),
        "beta0": abs(beta[0] - 1 / 20),
        "beta1": abs(beta[1] - 1.0),
        "r": abs(y[0] - m_pred[1, 0] - 1141 / 16000),
        "m0": abs(m_post[0, 0] - 305141 / 320000),
        "m1": abs(m_post[1, 0] + 6859 / 16000),
    }
    golden_ok = all(v <= tol for v in checks.values())
    delta_zero = misalignment(traj, problem, 1)[1]
    traj_unit = solve(problem, prior, 0.1, parse_noise("const:1.0"))
    delta_unit = misalignment(traj_unit, problem, 1)[1]
    delta_ok = abs(delta_zero - 0.00485) <= 5e-5 and abs(delta_unit - 0.03324) <= 5e-6

    # Per-step cost of solve over the 10-step mesh, best of 5 after warmup.
    durations = []
    for _ in range(6):
        t0 = time.perf_counter()
        solve(problem, prior, 0.1, parse_noise("zero"))
        durations.append(time.perf_counter() - t0)
    step_seconds = min(durations[1:]) / 10
    elapsed = time.perf_counter() - start
    report(
        1,
        "worked-example golden step",
        golden_ok and delta_ok and step_seconds < 1e-3,
        elapsed,
        f"max dev {max(checks.values()):.2e}, delta1 {delta_zero:.6f}/{delta_unit:.6f}, "
        f"step {step_seconds * 1e6:.0f}us",
    )


def test_criterion_02_transition_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for q in (1, 2, 3, 4):
        for theta in (0.0, 0.5, 2.0):
            for sigma in (0.1, 1.0, 50.0):
                for h in (1e-3, 1e-2, 1e-1, 1.0):
                    kind = "ibm" if theta == 0.0 else "ioup"
                    prior = PriorSpec(q, kind=kind, theta=theta, sigma=sigma)
                    tm = prior.transition(h)
                    oracle = transition_oracle(
                        prior.drift_matrix(), prior.diffusion_vector(), sigma, h
                    )
                    rel_a = np.linalg.norm(tm.A - oracle.A) / np.linalg.norm(oracle.A)
                    rel_q = np.linalg.norm(tm.Q - oracle.Q) / np.linalg.norm(oracle.Q)
                    worst = max(worst, rel_a, rel_q)
    elapsed = time.perf_counter() - start
    report(
        2,
        "transition oracle equivalence",
        worst <= 1e-10 and elapsed < 1.0,
        elapsed,
        f"worst relative Frobenius deviation {worst:.2e}",
    )


def test_criterion_03_steady_state_fixed_points():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_iters = 0
    worst_push = 0.0
    all_converged = True
    for _ in range(200):
        h = 10.0 ** rng.uniform(-3, 0)
        sigma = 10.0 ** rng.uniform(-1, 0.5)
        R = 0.0 if rng.uniform() < 0.1 else sigma**2 * h * 10.0 ** rng.uniform(-4, 0.7)
        ss = closed_form(h, sigma, R)
        target = np.array([ss.P11_pred, ss.P11, ss.P01_pred, ss.P01, ss.beta0, ss.beta1])
        raw = rng.normal(size=(2, 2))
        P0 = (raw @ raw.T) * sigma**2 * h * 10.0 ** rng.uniform(-2, 2)
        tm = ibm_transition(1, sigma, h)
        converged_at = None
        for n, (P_pred, P, beta) in enumerate(islice(covariance_pass(tm, R, P0), 500), 1):
            values = np.array([P_pred[1, 1], P[1, 1], P_pred[0, 1], P[0, 1], beta[0], beta[1]])
            if np.max(np.abs(values - target)) <= 1e-10:
                converged_at = n
                break
        if converged_at is None:
            all_converged = False
        else:
            worst_iters = max(worst_iters, converged_at)

        # Push the closed form once through the exact recursion; the free
        # position variance is completed so the assembled matrix is PSD.
        p00 = 1.0 if ss.P11 == 0.0 else 1.0 + 2.0 * ss.P01**2 / ss.P11
        fixed = np.array([[p00, ss.P01], [ss.P01, ss.P11]])
        P_pred, P, beta = next(covariance_pass(tm, R, fixed))
        pushed = np.array([P_pred[1, 1], P[1, 1], P_pred[0, 1], P[0, 1], beta[0], beta[1]])
        worst_push = max(worst_push, float(np.max(np.abs(pushed - target))))
    elapsed = time.perf_counter() - start
    report(
        3,
        "steady-state fixed points",
        all_converged and worst_push < 1e-13 and elapsed < 2.0,
        elapsed,
        f"max iterations {worst_iters}, fixed-point push drift {worst_push:.2e}",
    )


def test_criterion_04_order_bound_exponents():
    start = time.perf_counter()
    grid = [0.1 * 2.0**-k for k in range(8)]
    detail = []
    ok = True
    for p in (1.0, 2.0, 3.0):
        fits = verify_order_bounds(grid, 1.0, p, 1.0)
        for fit in fits:
            gap = abs(fit.fitted - fit.predicted)
            ok = ok and gap <= 0.15
            detail.append(f"p={p:g} {fit.quantity}: {fit.fitted:.2f}/{fit.predicted:g}")
    elapsed = time.perf_counter() - start
    report(4, "order-bound exponents", ok and elapsed < 10.0, elapsed, "; ".join(detail))


def test_criterion_05_global_convergence_q1():
    start = time.perf_counter()
    results = {}
    for name, sigma in (("logistic", 50.0), ("linear", 1.0)):
        problem = get_problem(name)
        prior = PriorSpec(1, sigma=sigma)
        zero = final_errors(problem, prior, lambda h: parse_noise("zero"))
        noisy = final_errors(problem, prior, lambda h: PowerLawNoise(K_R=1.0, p=1.0))
        results[name] = (
            loglog_slope(H_GRID[1:], zero[1:]),
            loglog_slope(H_GRID[1:], noisy[1:]),
        )
    ok = all(1.75 <= s0 <= 2.4 and s1 >= 1.0 for s0, s1 in results.values())
    elapsed = time.perf_counter() - start
    detail = ", ".join(
        f"{name}: R=0 slope {s0:.2f}, R=h slope {s1:.2f}" for name, (s0, s1) in results.items()
    )
    report(5, "global convergence q=1", ok and elapsed < 30.0, elapsed, detail)


def test_criterion_06_higher_q_extension():
    start = time.perf_counter()
    problem = get_problem("logistic")
    slopes = {}
    for q in (2, 3, 4):
        errors = final_errors(problem, PriorSpec(q, sigma=50.0), lambda h: parse_noise("zero"))
        slopes[q] = loglog_slope(H_GRID[1:], errors[1:])
    ok = slopes[2] >= 2.5 and slopes[3] >= 3.5
    elapsed = time.perf_counter() - start
    report(
        6,
        "higher-q extension",
        ok and elapsed < 60.0,
        elapsed,
        f"slopes q=2: {slopes[2]:.2f}, q=3: {slopes[3]:.2f}, "
        f"q=4: {slopes[4]:.2f} (reported only)",
    )


def test_criterion_07_credible_interval_contraction():
    start = time.perf_counter()
    problem = get_problem("logistic")
    prior = PriorSpec(1, sigma=1.0)
    detail = []
    ok = True
    for label, noise_for_h in (
        ("p=inf", lambda h: parse_noise("zero")),
        ("p=1", lambda h: PowerLawNoise(K_R=1.0, p=1.0)),
    ):
        widths, errors = [], []
        for h in H_GRID:
            traj = solve(problem, prior, h, noise_for_h(h))
            widths.append(max_width(credible_width(traj)))
            errors.append(global_error(traj, problem).max_eps0)
        width_slope = loglog_slope(H_GRID[1:], widths[1:])
        error_slope = loglog_slope(H_GRID[1:], errors[1:])
        ok = ok and abs(width_slope - 1.0) <= 0.1 and error_slope >= width_slope
        detail.append(f"{label}: width {width_slope:.2f}, error {error_slope:.2f}")
    elapsed = time.perf_counter() - start
    report(
        7, "credible-interval contraction", ok and elapsed < 30.0, elapsed, "; ".join(detail)
    )


def test_criterion_08_impermissible_noise_degradation():
    start = time.perf_counter()
    problem = get_problem("logistic")
    prior = PriorSpec(1, sigma=1.0)
    slopes = {}
    for K_R in (0.0, 1e6):
        errors, stds = [], []
        for h in H_GRID:
            traj = solve(problem, prior, h, PowerLawNoise(K_R=K_R, p=0.5))
            assert not traj.diverged
            errors.append(float(global_error(traj, problem).norms0[-1]))
            stds.append(float(np.linalg.norm(credible_width(traj).widths[-1])))
        slopes[K_R] = (
            loglog_slope(H_GRID[1:], errors[1:]),
            loglog_slope(H_GRID[1:], stds[1:]),
        )
    err0, _ = slopes[0.0]
    err6, std6 = slopes[1e6]
    ok = (err0 - err6 >= 0.5) and abs(std6 - err6) <= 0.2
    elapsed = time.perf_counter() - start
    report(
        8,
        "impermissible-noise degradation",
        ok and elapsed < 30.0,
        elapsed,
        f"error slope K_R=0: {err0:.2f}, K_R=1e6: {err6:.2f}, std slope {std6:.2f}",
    )


def test_criterion_09_misalignment_convergence():
    start = time.perf_counter()
    problem = riccati()
    prior = PriorSpec(1, sigma=SQRT10)
    finals = []
    bounded = True
    for h in H_GRID:
        traj = solve(problem, prior, h, parse_noise("zero"))
        series = misalignment(traj, problem, 1)
        finals.append(float(series[-1]))
        half = len(series) // 2
        bounded = bounded and series[half:].max() <= 1.5 * series[1 : half + 1].max() + 1e-15
    slope = loglog_slope(H_GRID[1:], finals[1:])
    elapsed = time.perf_counter() - start
    report(
        9,
        "misalignment convergence",
        slope >= 1.75 and bounded and elapsed < 10.0,
        elapsed,
        f"delta1(T) slope {slope:.2f}, bounded across mesh: {bounded}",
    )


def test_criterion_10_invariant_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    failures = []

    # PSD covariances, gain bounds, velocity-floor, and the R-identities
    # along randomized trajectories (>= 100 sampled steps per property).
    cases = [
        ("logistic", 1, 50.0, parse_noise("zero")),
        ("logistic", 1, 1.0, PowerLawNoise(K_R=1.0, p=1.0)),
        ("riccati", 1, SQRT10, parse_noise("const:0.25")),
        ("linear", 1, 1.0, PowerLawNoise(K_R=2.0, p=1.0)),
        ("logistic", 2, 50.0, PowerLawNoise(K_R=1.0, p=2.0)),
        ("linear", 3, 1.0, parse_noise("zero")),
    ]
    checked_steps = 0
    for name, q, sigma, noise in cases:
        problem = get_problem(name)
        traj = solve(problem, PriorSpec(q, sigma=sigma), 0.05, noise)
        R = noise.evaluate(0.05)
        for P_pred, P_post, beta in zip(traj.P_pred, traj.P_post, traj.beta):
            checked_steps += 1
            if np.abs(P_post - P_post.T).max() > 1e-12:
                failures.append(f"{name} q={q}: asymmetric posterior")
            if np.linalg.eigvalsh(P_post).min() < -1e-10 * max(np.trace(P_post), 0.0):
                failures.append(f"{name} q={q}: negative posterior eigenvalue")
            if not 0.0 <= beta[1] <= 1.0:
                failures.append(f"{name} q={q}: beta1 outside [0, 1]")
            if q == 1:
                if P_pred[1, 1] < sigma**2 * 0.05 * (1 - 1e-12):
                    failures.append(f"{name}: predicted velocity variance below sigma^2 h")
                if abs(P_post[0, 1] - R * beta[0]) > 1e-12:
                    failures.append(f"{name}: P01 != R beta0")
                if abs(P_post[1, 1] - R * beta[1]) > 1e-12:
                    failures.append(f"{name}: P11 != R beta1")
    assert checked_steps >= 100

    # Semigroup law over 100 random step pairs.
    for _ in range(100):
        q = int(rng.integers(0, 5))
        sigma = float(10.0 ** rng.uniform(-1, 1.5))
        h1, h2 = (float(10.0 ** rng.uniform(-4, 0)) for _ in range(2))
        t1, t2, t12 = (
            ibm_transition(q, sigma, h) for h in (h1, h2, h1 + h2)
        )
        if np.linalg.norm(t12.A - t2.A @ t1.A) > 1e-10 * np.linalg.norm(t12.A):
            failures.append("semigroup A violated")
        if np.linalg.norm(t12.Q - (t2.A @ t1.Q @ t2.A.T + t2.Q)) > 1e-10 * np.linalg.norm(
            t12.Q
        ):
            failures.append("semigroup Q violated")

    # Constant fields are reproduced exactly (zero residuals) in 100 runs.
    for _ in range(100):
        c, x0 = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
        cv = np.array([c])
        problem = IVProblem(
            name="constant",
            d=1,
            f=lambda x, cv=cv: cv.copy(),
            derivatives=(
                lambda x: np.asarray(x, dtype=float),
                lambda x, c=c: np.full(np.shape(x), c),
                lambda x: np.zeros(np.shape(x)),
            ),
            x0=np.array([x0]),
            T=2.0,
            exact=lambda ts, c=c, x0=x0: (x0 + c * ts)[:, None],
        )
        q = int(rng.integers(1, 3))
        traj = solve(problem, PriorSpec(q, sigma=1.0), 0.25, parse_noise("zero"))
        if traj.residual_norms().max() > 1e-13:
            failures.append("constant field produced non-zero residuals")
        if global_error(traj, problem).max_eps0 > 1e-13:
            failures.append("constant field not reproduced")

    # Kronecker identity factors reduce to independent scalar blocks.
    for _ in range(100):
        q = int(rng.integers(0, 4))
        d = int(rng.integers(1, 4))
        sigma = float(10.0 ** rng.uniform(-0.5, 0.5))
        h = float(10.0 ** rng.uniform(-2, 0))
        prior = PriorSpec(q, sigma=sigma)
        drift = kron_extend(np.eye(d), np.eye(d), prior)
        big = transition_oracle(drift.F_big, drift.L_big, sigma, h)
        small = ibm_transition(q, sigma, h)
        n = q + 1
        scale_q = max(np.abs(small.Q).max(), 1e-300)
        for bi in range(d):
            for bj in range(d):
                sl_i, sl_j = slice(n * bi, n * bi + n), slice(n * bj, n * bj + n)
                target_a = small.A if bi == bj else 0.0
                target_q = small.Q if bi == bj else 0.0
                if np.abs(big.A[sl_i, sl_j] - target_a).max() > 1e-10:
                    failures.append("Kronecker A block mismatch")
                if np.abs(big.Q[sl_i, sl_j] - target_q).max() > 1e-10 * scale_q:
                    failures.append("Kronecker Q block mismatch")

    elapsed = time.perf_counter() - start
    unique = sorted(set(failures))
    report(
        10,
        "invariant suite",
        not failures and elapsed < 30.0,
        elapsed,
        f"{checked_steps} trajectory steps checked" + ("; " + "; ".join(unique) if unique else ""),
    )
