"""The Gaussian ODE filter: initialize, predict, measure, update, iterate.

The belief at time t is a Gaussian over the solution value and its first
q derivatives, held per output dimension (the prior treats dimensions as
independent).  A step of size h first pushes mean and covariance through
the prior transition, then treats a single vector-field evaluation at the
predicted value as data on the first derivative and conditions on it:

    m_pred = A m                      P_pred = A P A^T + Q
    y      = f(m_pred[0])             beta   = P_pred[:, 1] / (P_pred[1, 1] + R)
    r      = y - m_pred[1]
    m      = m_pred + beta r          P      = P_pred - outer / (P_pred[1, 1] + R)

All steps of a solve share one (A, Q) pair (the mesh is uniform) and one
measurement variance R.  Every step is recorded in full, so diagnostics
can replay predictive quantities, gains, residuals, and posteriors.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Union

import numpy as np

from .noise import NoiseModel
from .priors import PriorSpec, TransitionModel
from .problems import IVProblem, MissingDerivative  # noqa: F401  (re-exported error)

__all__ = [
    "Belief",
    "DivergedEvaluation",
    "ExactInit",
    "InitMode",
    "NonIntegerMesh",
    "PerturbedInit",
    "SingularInnovation",
    "StepRecord",
    "Trajectory",
    "evaluate_data",
    "gain",
    "initialize",
    "predict",
    "solve",
    "update",
]


class NonIntegerMesh(ValueError):
    """T/h is not within 1e-9 of an integer."""


class DivergedEvaluation(FloatingPointError):
    """The vector field returned a non-finite value."""


class SingularInnovation(ZeroDivisionError):
    """P_pred[1, 1] + R = 0; the data has nothing to update against."""


@dataclasses.dataclass(frozen=True)
class ExactInit:
    """Dirac initialization at the true value and its total derivatives."""


@dataclasses.dataclass(frozen=True)
class PerturbedInit:
    """Seeded random initialization within the order-matched envelope.

    Mean offsets are drawn uniformly from [-k0 h^(q+1-i), k0 h^(q+1-i)]
    per derivative i, and the initial covariance is k0 h^(2q+1-k-l).
    """

    k0: float
    seed: int = 0

    def __post_init__(self):
        if not self.k0 >= 0.0:
            raise ValueError("k0 must be non-negative")


InitMode = Union[ExactInit, PerturbedInit]


@dataclasses.dataclass(frozen=True)
class Belief:
    """Filtering state: mean stack m (q+1, d) and covariances P (d, q+1, q+1)."""

    t: float
    m: np.ndarray
    P: np.ndarray

    @property
    def q(self) -> int:
        return self.m.shape[0] - 1

    @property
    def d(self) -> int:
        return self.m.shape[1]

    def validate(self) -> None:
        assert np.all(np.isfinite(self.m)), "mean must be finite"
        for Pj in self.P:
            assert np.max(np.abs(Pj - Pj.T)) <= 1e-12, "covariance must be symmetric"
            floor = -1e-10 * max(np.trace(Pj), 0.0)
            assert np.linalg.eigvalsh(Pj).min() >= floor, "covariance must be PSD"


@dataclasses.dataclass(frozen=True)
class StepRecord:
    """Everything one filter step computed, for audit and diagnostics."""

    t_next: float
    m_pred: np.ndarray
    P_pred: np.ndarray
    y: np.ndarray
    r: np.ndarray
    beta: np.ndarray
    m_post: np.ndarray
    P_post: np.ndarray


@dataclasses.dataclass
class Trajectory:
    """A full solve: initial belief plus one StepRecord per mesh point."""

    problem: str
    config: dict
    initial: Belief
    records: list
    diverged: bool = False

    @property
    def h(self) -> float:
        return self.config["h"]

    @property
    def q(self) -> int:
        return self.initial.q

    @property
    def d(self) -> int:
        return self.initial.d

    def times(self) -> np.ndarray:
        return np.concatenate(([self.initial.t], [rec.t_next for rec in self.records]))

    def means(self) -> np.ndarray:
        """(N+1, q+1, d) stack of posterior means, t = 0 included."""
        return np.stack([self.initial.m] + [rec.m_post for rec in self.records])

    def covariances(self) -> np.ndarray:
        """(N+1, d, q+1, q+1) stack of posterior covariances."""
        return np.stack([self.initial.P] + [rec.P_post for rec in self.records])

    def residual_norms(self) -> np.ndarray:
        return np.array([np.linalg.norm(rec.r) for rec in self.records])


def initialize(
    problem: IVProblem, prior: PriorSpec, h: float, mode: InitMode = ExactInit()
) -> Belief:
    """Belief at t = 0 from the problem's total derivatives at x0.

    Exact mode pins a Dirac at (x0, f(x0), ..., g_q(x0)); perturbed mode
    adds seeded offsets and a covariance whose entries carry the
    order-matched powers of h.  Raises MissingDerivative if the problem
    does not supply derivatives up to order q.
    """
    q, d = prior.q, problem.d
    x0 = np.asarray(problem.x0, dtype=float)
    m = np.stack([np.asarray(problem.derivative(i)(x0), dtype=float) for i in range(q + 1)])
    P = np.zeros((d, q + 1, q + 1))
    if isinstance(mode, PerturbedInit):
        rng = np.random.default_rng(mode.seed)
        bounds = mode.k0 * h ** (q + 1 - np.arange(q + 1, dtype=float))
        m = m + rng.uniform(-1.0, 1.0, size=(q + 1, d)) * bounds[:, None]
        scale = h ** (q - np.arange(q + 1, dtype=float))
        P0 = _psd_floor(mode.k0 * h * np.outer(scale, scale))
        P = np.broadcast_to(P0, (d, q + 1, q + 1)).copy()
    return Belief(t=0.0, m=m, P=P)


def predict(belief: Belief, tm: TransitionModel) -> Belief:
    """Push the belief through the prior transition: the predictive belief."""
    m_pred = tm.A @ belief.m
    P_pred = np.stack([predict_covariance(Pj, tm) for Pj in belief.P])
    return Belief(t=belief.t + tm.h, m=m_pred, P=P_pred)


def evaluate_data(f: Callable[[np.ndarray], np.ndarray], m_pred: np.ndarray) -> np.ndarray:
    """One vector-field evaluation at the predicted value: the step's data."""
    y = np.asarray(f(m_pred[0]), dtype=float)
    if not np.all(np.isfinite(y)):
        raise DivergedEvaluation(f"vector field returned a non-finite value: {y}")
    return y


def gain(P_pred: np.ndarray, R: float) -> np.ndarray:
    """Kalman gain vector beta_i = P_pred[i, 1] / (P_pred[1, 1] + R)."""
    denom = P_pred[1, 1] + R
    if denom == 0.0:
        raise SingularInnovation("P_pred[1, 1] + R = 0")
    return P_pred[:, 1] / denom


def update(pred: Belief, y: np.ndarray, R: float):
    """Condition the predictive belief on the data y.

    Returns the posterior belief together with the full step record.  The
    covariance subtraction is symmetrized and eigenvalue-floored against
    roundoff-negative eigenvalues.
    """
    y = np.asarray(y, dtype=float)
    r = y - pred.m[1]
    betas = np.stack([gain(Pj, R) for Pj in pred.P], axis=1)  # (q+1, d)
    m_post = pred.m + betas * r[None, :]
    P_post = np.stack([update_covariance(Pj, R)[0] for Pj in pred.P])
    posterior = Belief(t=pred.t, m=m_post, P=P_post)
    record = StepRecord(
        t_next=pred.t,
        m_pred=pred.m,
        P_pred=pred.P,
        y=y,
        r=r,
        beta=betas,
        m_post=m_post,
        P_post=P_post,
    )
    return posterior, record


def solve(
    problem: IVProblem,
    prior: PriorSpec,
    h: float,
    noise: NoiseModel,
    mode: InitMode = ExactInit(),
) -> Trajectory:
    """Run the filter over the uniform mesh {h, 2h, ..., T}.

    The covariance recursion never sees the data, and every dimension
    shares the prior and the initial covariance, so one covariance track
    serves all d dimensions.

    A non-finite vector-field value aborts the run and returns the partial
    trajectory with ``diverged=True``.
    """
    if prior.q < 1:
        raise ValueError("the solver requires q >= 1 (q = 0 models no derivative)")
    if not h > 0.0:
        raise ValueError("h must be positive")
    n_float = problem.T / h
    n_steps = int(round(n_float))
    if n_steps < 1 or abs(n_float - n_steps) > 1e-9:
        raise NonIntegerMesh(f"T/h = {n_float!r} is not an integer mesh count")

    d = problem.d
    tm = prior.transition(h)
    R = noise.evaluate(h)

    initial = initialize(problem, prior, h, mode)
    config = {
        "problem": problem.name,
        "q": prior.q,
        "prior": prior.kind,
        "theta": prior.theta,
        "sigma": prior.sigma,
        "h": h,
        "R": R,
        "noise": noise,
        "init": mode,
        "n_steps": n_steps,
    }

    m = initial.m
    # Both init modes give every dimension the same initial covariance.
    P = initial.P[0].copy()
    records = []
    diverged = False
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, n_steps + 1):
            t_next = n * h
            m_pred = tm.A @ m
            P_pred = predict_covariance(P, tm)
            if not np.all(np.isfinite(m_pred)):
                diverged = True
                break
            try:
                y = evaluate_data(problem.f, m_pred)
            except DivergedEvaluation:
                diverged = True
                break
            P, beta = update_covariance(P_pred, R)
            betas = np.repeat(beta[:, None], d, axis=1)
            r = y - m_pred[1]
            m = m_pred + betas * r[None, :]
            records.append(
                StepRecord(
                    t_next=t_next,
                    m_pred=m_pred,
                    P_pred=np.stack([P_pred] * d),
                    y=y,
                    r=r,
                    beta=betas,
                    m_post=m,
                    P_post=np.stack([P] * d),
                )
            )
    return Trajectory(
        problem=problem.name,
        config=config,
        initial=initial,
        records=records,
        diverged=diverged,
    )


def predict_covariance(P: np.ndarray, tm: TransitionModel) -> np.ndarray:
    """A P A^T + Q, symmetrized."""
    P_pred = tm.A @ P @ tm.A.T + tm.Q
    return 0.5 * (P_pred + P_pred.T)


def update_covariance(P_pred: np.ndarray, R: float):
    """Measurement update of one covariance matrix; returns (P, beta)."""
    beta = gain(P_pred, R)
    P = P_pred - np.outer(P_pred[:, 1], P_pred[:, 1]) / (P_pred[1, 1] + R)
    return _psd_floor(P), beta


def _psd_floor(P: np.ndarray) -> np.ndarray:
    """Symmetrize and clip eigenvalues of magnitude below 1e-14 (relative) to 0.

    The update subtraction is PSD in exact arithmetic; this guards the
    roundoff-negative eigenvalues it can leave behind.  The matrix is only
    rebuilt when something was actually clipped.
    """
    P = 0.5 * (P + P.T)
    w, V = np.linalg.eigh(P)
    threshold = 1e-14 * max(float(w[-1]), 0.0)
    clipped = np.where(w < threshold, 0.0, w)
    if np.array_equal(clipped, w):
        return P
    P = (V * clipped) @ V.T
    return 0.5 * (P + P.T)
