"""Test-only oracles, independent of the code paths they check.

The replay oracle: one filter step driven by hand (``predict``, then
``update``, each returning a ``Belief`` and the second a ``StepRecord``,
with the one-state ``evaluate_data``), the belief invariants
(``validate_belief``), and the per-point weighted derivative norm
``h_norm``, against which ``solve`` and the whole-mesh diagnostics are
compared.  ``covariance_pass``, the covariance recursion one 2-D kernel
step at a time.  ``full_pass_solve``, ``solve`` with that full kernel at
every step, run in lockstep with the mean loop, which ``solve`` and each
cell of ``solve_cells`` (the whole covariance track first, then one mean
loop per stack) must match byte for byte, errors included, and
``full_pass_cells``, the same per cell in place of ``solve_cells``;
``track_steps``, the per-step arrays of a ``CovarianceTrack``.
``two_check_mean_loop``, the stacked mean loop that checks both the
predicted means and the data of every step, which the one-check
``filtering._mean_loop`` must match byte for byte.  The
per-point diagnostics
(``global_error_loop``, ``misalignment_loop``, ``credible_width_loop``),
run on problems with one-time closed forms (``SCALAR_EXACT``,
``pointwise_problem``), which the whole-mesh diagnostics must match byte
for byte, and ``max_width``, a width series' largest norm.  A quadrature
``(A, Q)`` straight from the SDE definition, Kronecker coupling of output
dimensions (to check that identity factors reduce to the scalar model the
solver uses), the IBM covariance
recursion in ``mpmath`` arithmetic, the full-mesh order-bound tracks of
the q = 1 covariance pass, the finite-difference check of a problem's
closed form and derivative chain (``validate_problem``), a
Richardson-checked RK4 reference integrator, and an unguarded log-log
slope.  The tests import them as
``from oracles import ...``.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Sequence

import mpmath
import numpy as np

from odefilter import filtering
from odefilter.diagnostics import CredibleWidth, ErrorSeries, MissingExact
from odefilter.filtering import (
    Belief,
    NonIntegerMesh,
    PerturbedInit,
    Trajectory,
    _row_norms,
    initialize,
    predict_covariance,
    update_covariance,
)
from odefilter.noise import PowerLawNoise
from odefilter.priors import PriorSpec, TransitionModel, _expm, ibm_transition
from odefilter.problems import IVProblem


class DimensionMismatch(ValueError):
    """Kronecker factor matrices disagree in size."""


class DivergedEvaluation(FloatingPointError):
    """The vector field returned a non-finite value."""


class OracleNotConverged(RuntimeError):
    """The reference integrator's Richardson self-check exceeded 1e-8."""


@dataclasses.dataclass(frozen=True)
class StepRecord:
    """Everything one filter step computed, for audit and diagnostics.

    Means, data and residuals are (q+1, d) or (d,); the covariances
    P_pred, P_post (q+1, q+1) and the gain beta (q+1,) serve every dimension.
    """

    t_next: float
    m_pred: np.ndarray
    P_pred: np.ndarray
    y: np.ndarray
    r: np.ndarray
    beta: np.ndarray
    m_post: np.ndarray
    P_post: np.ndarray


def validate_belief(belief: Belief) -> None:
    """Assert the belief invariants: a finite mean and a symmetric PSD covariance."""
    assert np.all(np.isfinite(belief.m)), "mean must be finite"
    P = belief.P
    assert np.max(np.abs(P - P.T)) <= 1e-12, "covariance must be symmetric"
    floor = -1e-10 * max(np.trace(P), 0.0)
    assert np.linalg.eigvalsh(P).min() >= floor, "covariance must be PSD"


#: Probe times and central-difference step of ``validate_problem``.
PROBES = 100
FD_STEP = 1e-5


def validate_problem(problem: IVProblem) -> None:
    """Check a problem's closed-form solution and derivative chain.

    The exact solution must satisfy the ODE to 1e-8 under central
    differences of step FD_STEP, and derivatives[1] must coincide with f
    on the PROBES probe points.  Raises ValueError naming the first time
    that fails.
    """
    if problem.exact is None:
        return
    ts = np.linspace(FD_STEP, problem.T - FD_STEP, PROBES)
    x = problem.exact(ts)
    dx = (problem.exact(ts + FD_STEP) - problem.exact(ts - FD_STEP)) / (2.0 * FD_STEP)
    g1 = problem.derivative(1)(x)
    for t, residual, g1_n, f_n in zip(ts, np.linalg.norm(dx - g1, axis=1), g1, problem.f(x)):
        if not residual <= 1e-8:
            raise ValueError(
                f"exact solution of {problem.name!r} violates the ODE at t={t:g} "
                f"(residual {residual:.3e})"
            )
        if not np.allclose(g1_n, f_n, rtol=1e-12, atol=1e-12):
            raise ValueError(f"derivatives[1] of {problem.name!r} differs from f at t={t:g}")


def predict(belief: Belief, tm: TransitionModel) -> Belief:
    """Push the belief through the prior transition: the predictive belief."""
    return Belief(t=belief.t + tm.h, m=tm.A @ belief.m, P=predict_covariance(belief.P, tm))


def update(pred: Belief, y: np.ndarray, R: float):
    """Condition the predictive belief on the data y.

    Returns the posterior belief together with the full step record.  The
    covariance subtraction is symmetrized (``update_covariance``).
    """
    y = np.asarray(y, dtype=float)
    r = y - pred.m[1]
    P_post, beta = update_covariance(pred.P, R)
    m_post = pred.m + beta[:, None] * r[None, :]
    posterior = Belief(t=pred.t, m=m_post, P=P_post)
    record = StepRecord(
        t_next=pred.t,
        m_pred=pred.m,
        P_pred=pred.P,
        y=y,
        r=r,
        beta=beta,
        m_post=m_post,
        P_post=P_post,
    )
    return posterior, record


def covariance_pass(tm: TransitionModel, R: float, P: np.ndarray):
    """The data-free covariance recursion from P: yields (P_pred, P_post, beta) per step.

    Each step is ``predict_covariance`` then ``update_covariance`` on one
    2-D covariance, looked up on ``filtering`` at call time (so a test can
    count them).  The generator never ends; callers bound it.
    """
    while True:
        P_pred = filtering.predict_covariance(P, tm)
        P, beta = filtering.update_covariance(P_pred, R)
        yield P_pred, P, beta


def evaluate_data(f, m_pred: np.ndarray) -> np.ndarray:
    """One vector-field evaluation at the predicted value: the step's data."""
    y = np.asarray(f(m_pred[0]), dtype=float)
    if np.count_nonzero(np.isfinite(y)) != y.size:
        raise DivergedEvaluation(f"vector field returned a non-finite value: {y}")
    return y


def full_pass_solve(
    problem: IVProblem,
    prior: PriorSpec,
    h: float,
    noise: PowerLawNoise,
    mode: PerturbedInit = PerturbedInit(0.0),
) -> Trajectory:
    """``solve`` as a step-by-step run: the full kernel at every step, in lockstep with the mean.

    Zips the lazy ``covariance_pass`` with the mean loop, so no covariance
    step runs past the step the mean stops at; ``solve``, which fills its
    covariance track before its mean loop, must return the same arrays
    byte for byte and raise what this raises.
    """
    if prior.q < 1:
        raise ValueError("the solver requires q >= 1 (q = 0 models no derivative)")
    if not h > 0.0:
        raise ValueError("h must be positive")
    n_float = problem.T / h
    n_steps = int(round(n_float))
    if n_steps < 1 or abs(n_float - n_steps) > 1e-9:
        raise NonIntegerMesh(f"T/h = {n_float!r} is not an integer mesh count")

    q, d = prior.q, problem.d
    tm = prior.transition(h)
    R = noise.evaluate(h)
    initial = initialize(problem, prior, h, mode)

    m_pred = np.empty((n_steps, q + 1, d))
    y = np.empty((n_steps, d))
    P_pred = np.empty((n_steps, q + 1, q + 1))
    P_post = np.empty((n_steps, q + 1, q + 1))
    beta = np.empty((n_steps, q + 1))
    m_post = np.empty((n_steps, q + 1, d))

    A, f = tm.A, problem.f
    m = initial.m
    reached = 0
    with np.errstate(over="ignore", invalid="ignore"):
        # zip asks range first, so the pass runs no step beyond the mesh.
        for n, (Pp, P, b) in zip(range(n_steps), covariance_pass(tm, R, initial.P)):
            mp = A @ m
            if not np.isfinite(mp).all():
                break
            try:
                yn = evaluate_data(f, mp)
            except DivergedEvaluation:
                break
            m = mp + b[:, None] * (yn - mp[1])[None, :]
            m_pred[n], y[n], P_pred[n], P_post[n], beta[n], m_post[n] = mp, yn, Pp, P, b, m
            reached = n + 1
    arrays = [a[:reached] for a in (m_pred, y, P_pred, P_post, beta, m_post)]
    for a in arrays:
        a.setflags(write=False)
    m_pred, y, P_pred, P_post, beta, m_post = arrays
    traj = Trajectory(h, initial, m_post, P_post[:, 0, 0], diverged=reached < n_steps)
    # The full pass's own arrays, in place of those a solve builds on first read.
    vars(traj).update(m_pred=m_pred, y=y, P_pred=P_pred, P_post=P_post, beta=beta)
    return traj


def full_pass_cells(cells):
    """``solve_cells`` as step-by-step runs: ``full_pass_solve`` of each cell in turn.

    Each cell is (problem, prior, h, noise, mode).
    """
    for cell in cells:
        yield full_pass_solve(*cell)


def track_steps(track: filtering.CovarianceTrack, n: int) -> tuple:
    """(P_pred, P_post, beta) of a track's first n steps, one row per step."""
    return track.covariances(n, 0), track.covariances(n, 1), track.beta[track.rows[:n]]


def two_check_mean_loop(f, A, m, gains, means) -> list:
    """``filtering._mean_loop`` with a finiteness check of m_pred and of y at every step.

    One step at a time, each cell's gain read from its ``(beta, rows)`` and
    its mean written to its own array at that step.  A cell whose predicted
    mean or data is not finite leaves at that step: its slots are zeroed,
    its gain is 0 from then on, and the steps it completed are returned, as
    ``_mean_loop`` returns them.
    """
    reached = [len(a) for a in means]
    stop = max(reached, default=0)
    q1, d = m.shape[1:]
    predicted, residual = np.empty_like(m), np.empty((len(m), 1, d))

    def leave(n, bad, *rows):
        nonlocal stop
        for j in np.flatnonzero(bad).tolist():
            reached[j] = min(reached[j], n)
            for a in rows:
                a[j] = 0.0
        stop = max(reached)

    n, k = 0, 0
    while n < stop:
        running = sum(len(a) > n for a in means)
        if running != k:
            k = running
            Ak, mp, r, m = A[:k], predicted[:k], residual[:k], m[:k]
        np.matmul(Ak, m, out=mp)
        if np.count_nonzero(np.isfinite(mp)) != mp.size:
            leave(n, ~np.isfinite(mp).all(axis=(1, 2)), mp)
            if n >= stop:
                break
        yn = np.empty((k, d))
        yn[...] = f(mp[:, 0])
        if np.count_nonzero(np.isfinite(yn)) != yn.size:
            leave(n, ~np.isfinite(yn).all(axis=1), mp, yn)
        np.subtract(yn, mp[:, 1], out=r[:, 0])
        g = np.zeros((k, q1, 1))
        for j, (beta, rows) in enumerate(gains[:k]):
            if n < reached[j]:
                g[j, :, 0] = beta[rows[n]]
        m = np.empty((k, q1, d))
        np.multiply(g, r, out=m)
        np.add(mp, m, out=m)
        for j in range(k):
            means[j][n] = m[j]
        n += 1
    return reached


def h_norm(eps: np.ndarray, h: float) -> float:
    """sum_i h^i ||row i|| over the derivative stack."""
    if not h > 0.0:
        raise ValueError("h must be positive")
    eps = np.atleast_2d(np.asarray(eps, dtype=float))
    weights = h ** np.arange(eps.shape[0], dtype=float)
    return float(np.sum(weights * np.linalg.norm(eps, axis=1)))


def _logistic_at(t: float) -> np.ndarray:
    lam0, lam1, x0 = 3.0, 1.0, 0.1
    e = math.exp(lam0 * t)
    return np.array([lam1 * x0 * e / (lam1 + x0 * (e - 1.0))])


def _rotation_at(t: float) -> np.ndarray:
    return np.array([-math.sin(math.pi * t), math.cos(math.pi * t)])


def _riccati_at(t: float) -> np.ndarray:
    return np.array([(t + 1.0) ** -0.5])


#: The packaged closed forms one time at a time, in Python-float ``math``.
SCALAR_EXACT = {"logistic": _logistic_at, "linear": _rotation_at, "riccati": _riccati_at}

ROTATION = np.array([[0.0, -math.pi], [math.pi, 0.0]])


def pointwise_problem(problem: IVProblem) -> IVProblem:
    """The packaged problem with one-point maps: the scalar closed form
    ``exact(t) -> (d,)``, and derivative maps that take one state ``(d,)``
    (``M @ x`` with the rotation powers for ``linear``)."""
    if problem.name == "linear":
        derivatives = tuple(
            (lambda x, M=np.linalg.matrix_power(ROTATION, i): M @ np.asarray(x, dtype=float))
            for i in range(len(problem.derivatives))
        )
    else:
        derivatives = tuple(
            (lambda x, g=g: np.asarray(g(np.asarray(x, dtype=float)), dtype=float).reshape(-1))
            for g in problem.derivatives
        )
    return dataclasses.replace(
        problem, exact=SCALAR_EXACT[problem.name], derivatives=derivatives
    )


def global_error_loop(traj: Trajectory, problem: IVProblem) -> ErrorSeries:
    """``diagnostics.global_error`` one mesh point and one map call at a time."""
    if problem.exact is None:
        raise MissingExact(f"problem {problem.name!r} has no exact solution")
    q = traj.q
    derivative_maps = [problem.derivative(i) for i in range(q + 1)]
    times = traj.times()
    means = traj.means()
    truth = np.empty_like(means)
    for n, t in enumerate(times):
        x = np.asarray(problem.exact(t), dtype=float)
        for i, g in enumerate(derivative_maps):
            truth[n, i] = g(x)
    eps = means - truth
    eps0 = np.linalg.norm(eps[:, 0, :], axis=1)
    weights = traj.h ** np.arange(q + 1, dtype=float)
    h_norms = np.sum(weights * np.linalg.norm(eps, axis=2), axis=1)
    series = ErrorSeries(times, float(eps0.max()), eps0)
    # Its own arrays, in place of those global_error builds on first read.
    vars(series).update(eps=eps, h_norm_series=h_norms)
    return series


def misalignment_loop(traj: Trajectory, problem: IVProblem, i: int) -> np.ndarray:
    """``diagnostics.misalignment`` one mesh point at a time."""
    g_i = problem.derivative(i)
    means = traj.means()
    implied = np.empty_like(means[:, 0])
    for n, m0 in enumerate(means[:, 0]):
        implied[n] = g_i(m0)
    return _row_norms(means[:, i] - implied)


def credible_width_loop(traj: Trajectory, problem: Optional[IVProblem] = None) -> CredibleWidth:
    """``diagnostics.credible_width`` with one ``exact`` call per mesh point."""
    times = traj.times()
    widths = np.repeat(np.sqrt(traj.covariances()[:, 0, 0])[:, None], traj.d, axis=1)
    ratios = None
    if problem is not None:
        if problem.exact is None:
            raise MissingExact(f"problem {problem.name!r} has no exact solution")
        means = traj.means()
        abs_eps0 = np.abs(
            means[:, 0, :] - np.stack([np.asarray(problem.exact(t)) for t in times])
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = abs_eps0 / widths
        ratios[(abs_eps0 == 0.0) & (widths == 0.0)] = 1.0
    return CredibleWidth(times=times, widths=widths, ratios=ratios)


def max_width(widths: CredibleWidth) -> float:
    """The largest norm over the mesh points of a width series."""
    return float(np.linalg.norm(widths.widths, axis=1).max())


@dataclasses.dataclass(frozen=True)
class MultiDimDrift:
    """Kronecker-coupled drift/diffusion for dependent output dimensions."""

    Kx: np.ndarray
    Keps: np.ndarray
    F_big: np.ndarray
    L_big: np.ndarray


def transition_oracle(
    F: np.ndarray, L: np.ndarray, sigma: float, h: float, nodes: int = 50
) -> TransitionModel:
    """Numerical (A, Q) straight from the SDE definition; test oracle only.

    A = expm(h F), and Q integrates expm(F(h-tau)) sigma^2 L L^T
    expm(F(h-tau))^T over [0, h] with Gauss-Legendre quadrature.  The
    default 50 nodes are exact for the polynomial IBM integrand up to
    q = 4 and converged for IOUP at the tested theta*h <= 5.  This path is
    deliberately independent of the closed form and of the Van Loan block
    in ``odefilter.priors``; it shares only ``_expm``.
    """
    F = np.asarray(F, dtype=float)
    if F.ndim != 2 or F.shape[0] != F.shape[1]:
        raise ValueError("F must be square")
    L = np.asarray(L, dtype=float)
    if L.ndim == 1:
        L = L[:, None]
    if L.shape[0] != F.shape[0]:
        raise ValueError("L must conform with F")
    A = _expm(h * F)
    x, w = np.polynomial.legendre.leggauss(nodes)
    taus = 0.5 * h * (x + 1.0)
    weights = 0.5 * h * w
    S = sigma**2 * (L @ L.T)
    E = _expm(F[None, :, :] * (h - taus)[:, None, None])
    Q = np.einsum("k,kij,jl,kml->im", weights, E, S, E)
    return TransitionModel(h=h, A=A, Q=0.5 * (Q + Q.T))


def kron_extend(Kx: np.ndarray, Keps: np.ndarray, prior: PriorSpec) -> MultiDimDrift:
    """Couple d output dimensions through Kronecker products.

    Returns the enlarged drift ``Kx (x) F`` and diffusion ``Keps (x) L``;
    identity factors reproduce d independent copies of the scalar model.
    """
    Kx = np.asarray(Kx, dtype=float)
    Keps = np.asarray(Keps, dtype=float)
    for name, K in (("Kx", Kx), ("Keps", Keps)):
        if K.ndim != 2 or K.shape[0] != K.shape[1]:
            raise DimensionMismatch(f"{name} must be square, got shape {K.shape}")
    if Kx.shape != Keps.shape:
        raise DimensionMismatch(
            f"Kx and Keps must have the same size, got {Kx.shape} and {Keps.shape}"
        )
    F = prior.drift_matrix()
    L = prior.diffusion_vector()[:, None]
    return MultiDimDrift(Kx=Kx, Keps=Keps, F_big=np.kron(Kx, F), L_big=np.kron(Keps, L))


def ibm_covariance_pass_mp(q: int, sigma: float, h: float, R: float, n_steps: int) -> list:
    """The IBM covariance recursion from P = 0 in ``mpmath``, at the working precision.

    A and Q come from their closed forms, A_ij = h^(j-i)/(j-i)! and
    Q_ij = sigma^2 h^(2q+1-i-j) / ((2q+1-i-j) (q-i)! (q-j)!), evaluated at
    the exact binary values of the float inputs.  Each step is
    P_pred = A P A^T + Q, beta = P_pred[:, 1] / (P_pred[1, 1] + R) and
    P = P_pred - beta P_pred[:, 1]^T, with no symmetrization.  Returns
    ``n_steps`` pairs (P_pred, beta) as float64 arrays.
    """
    n = q + 1
    h, s2, R = mpmath.mpf(h), mpmath.mpf(sigma) ** 2, mpmath.mpf(R)
    fac = mpmath.factorial
    A = mpmath.matrix(n, n)
    Q = mpmath.matrix(n, n)
    for i in range(n):
        for j in range(n):
            if j >= i:
                A[i, j] = h ** (j - i) / fac(j - i)
            k = 2 * q + 1 - i - j
            Q[i, j] = s2 * h**k / (k * fac(q - i) * fac(q - j))
    P = mpmath.matrix(n, n)
    steps = []
    for _ in range(n_steps):
        P_pred = A * P * A.T + Q
        col = P_pred[:, 1]
        beta = col / (P_pred[1, 1] + R)
        P = P_pred - beta * col.T
        steps.append(
            (np.array(P_pred.tolist(), dtype=float), np.array(beta.tolist(), dtype=float)[:, 0])
        )
    return steps


def order_bound_tracks(
    h_grid: Sequence[float], sigma: float, noise: PowerLawNoise, T: float = 1.0
) -> list:
    """The q = 1 covariance pass from P = 0 over every step of each mesh.

    For each h, runs round(T/h) steps of ``covariance_pass`` and returns a
    pair: the (steps, 5) track of ``ORDER_BOUND_QUANTITIES`` (P11_pred,
    P11, |P01|, |beta0|, |1 - beta1|), and the bytes of each step's closed
    block P[:, 1:].  No step is skipped, so the column maxima of a track
    are the full-mesh maxima ``verify_order_bounds`` must reproduce.
    """
    tracks = []
    for h in h_grid:
        track = np.empty((round(T / h), 5))
        blocks = []
        orbit = covariance_pass(ibm_transition(1, sigma, h), noise.evaluate(h), np.zeros((2, 2)))
        for step, (P_pred, P, beta) in zip(track, orbit):
            step[:] = P_pred[1, 1], P[1, 1], abs(P[0, 1]), abs(beta[0]), abs(1.0 - beta[1])
            blocks.append(P[:, 1:].tobytes())
        tracks.append((track, blocks))
    return tracks


@dataclasses.dataclass
class ReferenceSolution:
    """Dense RK4 solution table with cubic Hermite interpolation."""

    ts: np.ndarray
    xs: np.ndarray
    fs: np.ndarray
    richardson_error: float

    def __call__(self, t: float) -> np.ndarray:
        ts, xs, fs = self.ts, self.xs, self.fs
        if not ts[0] <= t <= ts[-1]:
            raise ValueError(f"t={t:g} outside the table range [{ts[0]:g}, {ts[-1]:g}]")
        k = min(int(np.searchsorted(ts, t, side="right")) - 1, len(ts) - 2)
        k = max(k, 0)
        h = ts[k + 1] - ts[k]
        s = (t - ts[k]) / h
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        return h00 * xs[k] + h10 * h * fs[k] + h01 * xs[k + 1] + h11 * h * fs[k + 1]


def _rk4_table(f, x0: np.ndarray, T: float, n_steps: int):
    h = T / n_steps
    xs = np.empty((n_steps + 1, len(x0)))
    xs[0] = x0
    x = np.array(x0, dtype=float)
    for n in range(n_steps):
        k1 = f(x)
        k2 = f(x + 0.5 * h * k1)
        k3 = f(x + 0.5 * h * k2)
        k4 = f(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        xs[n + 1] = x
    return np.linspace(0.0, T, n_steps + 1), xs


def reference_solve(problem: IVProblem, h_ref: float) -> ReferenceSolution:
    """Fixed-step RK4 oracle at step h_ref, self-checked by Richardson.

    Runs at h_ref and h_ref/2 and compares on the shared nodes; the
    discrepancy is reported on the result and must come in below 1e-8 for
    the table to count as an oracle (OracleNotConverged otherwise).  The
    finer run backs the returned table.
    """
    if not h_ref > 0.0:
        raise ValueError("h_ref must be positive")
    if h_ref > 1e-4 * problem.T:
        raise ValueError(f"h_ref must be <= 1e-4 * T = {1e-4 * problem.T:g}")
    n_steps = int(round(problem.T / h_ref))
    x0 = np.asarray(problem.x0, dtype=float)
    _, coarse = _rk4_table(problem.f, x0, problem.T, n_steps)
    ts, fine = _rk4_table(problem.f, x0, problem.T, 2 * n_steps)
    with np.errstate(invalid="ignore"):
        estimate = float(np.max(np.linalg.norm(coarse - fine[::2], axis=1)))
    if not estimate < 1e-8:
        raise OracleNotConverged(
            f"Richardson estimate {estimate:.3e} for {problem.name!r} at h_ref={h_ref:g} "
            "exceeds 1e-8"
        )
    fs = np.stack([problem.f(x) for x in fine])
    return ReferenceSolution(ts=ts, xs=fine, fs=fs, richardson_error=estimate)


def loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Plain least-squares slope of log y against log x (no guards)."""
    return float(np.polyfit(np.log(np.asarray(xs)), np.log(np.asarray(ys)), 1)[0])
