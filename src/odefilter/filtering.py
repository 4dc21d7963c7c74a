"""The Gaussian ODE filter: initialize, then predict, measure and update per step.

The belief at time t is a Gaussian over the solution value and its first
q derivatives: a mean per output dimension and one covariance that every
dimension shares (the prior treats dimensions as independent and alike).
A step of size h first pushes mean and covariance through the prior
transition, then treats a single vector-field evaluation at the predicted
value as data on the first derivative and conditions on it:

    m_pred = A m                      P_pred = A P A^T + Q
    y      = f(m_pred[0])             beta   = P_pred[:, 1] / (P_pred[1, 1] + R)
    r      = y - m_pred[1]
    m      = m_pred + beta r          P      = P_pred - outer / (P_pred[1, 1] + R)

All steps of a solve share one (A, Q) pair (the mesh is uniform) and one
measurement variance R, and the covariance recursion never sees the data.
Both covariance updates end in a plain symmetrization 0.5 (P + P^T): for
q <= 5 and h >= 1e-4 this float64 recursion matches the exact one to
about 1e-13 (gains relative, P_pred relative to sqrt(P_ii P_jj)).
``covariance_pass`` runs that recursion step by step.  ``solve``, the
only code that advances a mean, makes two passes over arrays allocated
for the whole mesh: ``covariance_track`` fills the covariances and gains
of every step (stored once), then a mesh loop of mean updates reads each
step's gain and writes the means and data (per dimension) in place.
Diagnostics read predictive quantities, gains, residuals and posteriors
from those arrays.

The covariance track.  A is upper triangular and the data is on x_1, so
the gain and every entry of P_pred and P_post but [0, 0] are computed from
the previous posterior's closed block P[:, 1:] alone: P_00 enters only
through products with the zero entries A_j0 (j >= 1), which are 0 for any
finite P_00.  So once step n's finite closed block repeats, byte for byte,
that of an earlier step i, every later step m repeats step
k = i + 1 + (m - n - 1) mod (n - i) in all but P_00.  ``periodic_pass``
runs the recursion of a stack of cells side by side, one kernel call per
step for the whole stack (numpy's stacked matmul runs the same BLAS
product per matrix, so each cell keeps its bytes), and tags each cell's
first repeat.  ``covariance_prefixes`` runs each cell up to that repeat,
its mesh or its first singular innovation, whichever comes first; a sweep
runs all its cells' prefixes this way before its first mean, since the
recursion never sees the data, and ``solve`` alone runs a stack of one.
``covariance_track`` takes a cell's prefix, copies every later step from
its step k in bulk, then recomputes the growing P_00 step by step with
the kernel's own arithmetic (one full A P A^T of the previous posterior,
then the scalar symmetrize and update), so every step equals the full
recursion's bit for bit.  At the first non-finite P_00 (0 * inf is NaN)
it hands the rest back to the full kernel.  A singular innovation ends
the prefix; ``solve`` raises it only if its mean loop reaches that step,
as a step-by-step run would.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

from .noise import NoiseModel
from .priors import PriorSpec, TransitionModel
from .problems import IVProblem

__all__ = [
    "Belief",
    "CovariancePrefix",
    "DivergedEvaluation",
    "ExactInit",
    "InitMode",
    "NonIntegerMesh",
    "PerturbedInit",
    "SingularInnovation",
    "Trajectory",
    "covariance_pass",
    "covariance_prefixes",
    "covariance_track",
    "evaluate_data",
    "gain",
    "initial_covariance",
    "initialize",
    "periodic_pass",
    "solve",
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
    """Filtering state: mean stack m (q+1, d) and the shared covariance P (q+1, q+1)."""

    t: float
    m: np.ndarray
    P: np.ndarray

    @property
    def q(self) -> int:
        return self.m.shape[0] - 1

    @property
    def d(self) -> int:
        return self.m.shape[1]


@dataclasses.dataclass
class Trajectory:
    """A full solve: the initial belief plus the per-step arrays of the run.

    Row n of each array is the step that ends at t = (n + 1) h.  Means and
    data are per dimension; covariances and gains are stored once, because
    one covariance track serves every dimension:

        m_pred (N, q+1, d)    P_pred (N, q+1, q+1)    y    (N, d)
        m_post (N, q+1, d)    P_post (N, q+1, q+1)    beta (N, q+1)

    N is ``n_steps``, or the number of steps completed when the run
    diverged.  The arrays are read-only.
    """

    h: float
    initial: Belief
    m_pred: np.ndarray
    y: np.ndarray
    P_pred: np.ndarray
    P_post: np.ndarray
    beta: np.ndarray
    m_post: np.ndarray
    diverged: bool = False

    @property
    def q(self) -> int:
        return self.initial.q

    @property
    def d(self) -> int:
        return self.initial.d

    def times(self) -> np.ndarray:
        steps = np.arange(1, len(self.y) + 1)
        return np.concatenate(([self.initial.t], steps * self.h))

    def means(self) -> np.ndarray:
        """(N+1, q+1, d) stack of posterior means, t = 0 included."""
        return np.concatenate((self.initial.m[None], self.m_post))

    def covariances(self) -> np.ndarray:
        """(N+1, q+1, q+1) stack of posterior covariances, t = 0 included."""
        return np.concatenate((self.initial.P[None], self.P_post))

    def residual_norms(self) -> np.ndarray:
        return _row_norms(self.y - self.m_pred[:, 1])


def initialize(
    problem: IVProblem, prior: PriorSpec, h: float, mode: InitMode = ExactInit()
) -> Belief:
    """Belief at t = 0 from the problem's total derivatives at x0.

    Exact mode pins a Dirac at (x0, f(x0), ..., g_q(x0)); perturbed mode
    adds seeded offsets and a covariance whose entries carry the
    order-matched powers of h (``initial_covariance``).  Raises
    MissingDerivative if the problem does not supply derivatives up to
    order q.
    """
    q, d = prior.q, problem.d
    x0 = np.asarray(problem.x0, dtype=float)
    m = np.stack([np.asarray(problem.derivative(i)(x0), dtype=float) for i in range(q + 1)])
    if isinstance(mode, PerturbedInit):
        rng = np.random.default_rng(mode.seed)
        bounds = mode.k0 * h ** (q + 1 - np.arange(q + 1, dtype=float))
        m = m + rng.uniform(-1.0, 1.0, size=(q + 1, d)) * bounds[:, None]
    return Belief(t=0.0, m=m, P=initial_covariance(q, h, mode))


def initial_covariance(q: int, h: float, mode: InitMode = ExactInit()) -> np.ndarray:
    """The start covariance of ``initialize``, which depends on q, h and the mode alone."""
    if isinstance(mode, PerturbedInit):
        scale = h ** (q - np.arange(q + 1, dtype=float))
        return mode.k0 * h * np.outer(scale, scale)
    return np.zeros((q + 1, q + 1))


def evaluate_data(f: Callable[[np.ndarray], np.ndarray], m_pred: np.ndarray) -> np.ndarray:
    """One vector-field evaluation at the predicted value: the step's data."""
    y = np.asarray(f(m_pred[0]), dtype=float)
    if np.count_nonzero(np.isfinite(y)) != y.size:
        raise DivergedEvaluation(f"vector field returned a non-finite value: {y}")
    return y


def gain(P_pred: np.ndarray, R) -> np.ndarray:
    """Kalman gain vector beta_i = P_pred[i, 1] / (P_pred[1, 1] + R), per cell of a stack."""
    denom = _innovation_variance(P_pred, R)
    if np.count_nonzero(denom) != denom.size:
        raise SingularInnovation("P_pred[1, 1] + R = 0")
    return P_pred[..., :, 1] / denom[..., None]


_Q_AT_LEAST_1 = "the solver requires q >= 1 (q = 0 models no derivative)"


def solve(
    problem: IVProblem,
    prior: PriorSpec,
    h: float,
    noise: NoiseModel,
    mode: InitMode = ExactInit(),
    *,
    prefix: Optional["CovariancePrefix"] = None,
) -> Trajectory:
    """Run the filter over the uniform mesh {h, 2h, ..., T}.

    ``covariance_track`` first fills the covariances and gains of the whole
    mesh; every dimension shares the prior and the initial covariance, so
    one track serves all d dimensions.  The mesh loop then runs the mean
    arithmetic of each step, writing straight into arrays allocated for
    the whole mesh.

    ``prefix`` is this cell's ``covariance_prefixes`` entry, run from the
    prior's transition at h, R and ``initial_covariance`` with a bound of
    at least the mesh's step count, so that a sweep runs all its cells'
    covariance passes side by side; without it, solve runs a stack of one.

    A non-finite predicted mean or vector-field value ends the run; the
    trajectory then holds the steps completed, with ``diverged=True``.
    A singular innovation raises ``SingularInnovation`` when the mean loop
    reaches its step.
    """
    if prior.q < 1:
        raise ValueError(_Q_AT_LEAST_1)
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
    if prefix is None:
        (prefix,) = covariance_prefixes([tm], [R], [initial.P], [n_steps])

    m_pred = np.empty((n_steps, q + 1, d))
    y = np.empty((n_steps, d))
    m_post = np.empty((n_steps, q + 1, d))

    A, f = tm.A, problem.f
    m = initial.m
    reached = 0
    with np.errstate(over="ignore", invalid="ignore"):
        P_pred, P_post, beta, singular = covariance_track(tm, R, prefix, n_steps)
        gains = beta[:, :, None]
        for n in range(len(beta)):
            mp = np.matmul(A, m, out=m_pred[n])
            if np.count_nonzero(np.isfinite(mp)) != mp.size:
                break
            try:
                yn = evaluate_data(f, mp)
            except DivergedEvaluation:
                break
            y[n] = yn
            m = m_post[n]
            np.multiply(gains[n], yn - mp[1], out=m)
            np.add(mp, m, out=m)
            reached = n + 1
    if singular is not None and reached == len(beta):
        raise singular
    arrays = [a[:reached] for a in (m_pred, y, P_pred, P_post, beta, m_post)]
    for a in arrays:
        a.setflags(write=False)
    return Trajectory(h, initial, *arrays, diverged=reached < n_steps)


@dataclasses.dataclass(frozen=True, eq=False)
class CovariancePrefix:
    """The steps of one cell's covariance pass up to where the rest can be filled.

    P_pred, P_post and beta stack the steps run, read-only.  ``first`` is
    the earlier step whose closed block the last step repeats, or None;
    ``singular`` says that the step after the last one has a singular
    innovation.
    """

    P_pred: np.ndarray
    P_post: np.ndarray
    beta: np.ndarray
    first: Optional[int]
    singular: bool


def covariance_prefixes(
    tms: Sequence[TransitionModel], Rs: Sequence[float], Ps: Sequence[np.ndarray], bounds
) -> list:
    """Each cell's covariance pass up to where its track can be filled, from one stacked pass.

    Cell c runs ``covariance_pass(tms[c], Rs[c], Ps[c])`` bit for bit up
    to its first repeated closed block, its ``bounds[c]``-th step or its
    first singular innovation, whichever comes first; ``covariance_track``
    fills any longer mesh from that prefix.  All cells share one
    ``periodic_pass``, so a step of it costs one kernel call for the
    whole stack.
    """
    n = len(Ps[0])
    if n < 2:
        raise ValueError(_Q_AT_LEAST_1)
    with np.errstate(over="ignore", invalid="ignore"):
        cells, *columns = _joined(periodic_pass(tms, Rs, Ps, bounds), n)
    # Each cell's rows in step order: the joined steps sorted by cell.
    order = np.argsort(cells, kind="stable")
    ends = np.cumsum(np.bincount(cells, minlength=len(Ps)))[:-1]
    prefixes = []
    for bound, P_pred, P_post, beta, first in zip(
        bounds, *(np.split(a[order], ends) for a in columns)
    ):
        for a in (P_pred, P_post, beta):
            a.setflags(write=False)
        repeat = int(first[-1]) if len(first) and first[-1] >= 0 else None
        singular = repeat is None and len(beta) < bound
        prefixes.append(CovariancePrefix(P_pred, P_post, beta, repeat, singular))
    return prefixes


def _joined(steps: Iterator[tuple], n: int) -> list:
    """The columns (cells, P_pred, P, beta, first) of a pass's steps, each joined into one array.

    Joins every 64 steps as the pass runs, so that no array is kept per
    step (the empty first row sets the shapes if no step runs).
    """
    index = np.empty(0, np.intp)
    joined = [(index, np.empty((0, n, n)), np.empty((0, n, n)), np.empty((0, n)), index)]
    pending = []
    for step in steps:
        pending.append(step)
        if len(pending) == 64:
            joined.append([np.concatenate(column) for column in zip(*pending)])
            pending.clear()
    return [np.concatenate(column) for column in zip(*joined, *pending)]


def covariance_track(
    tm: TransitionModel, R: float, prefix: CovariancePrefix, n_steps: int
) -> tuple:
    """The first n_steps steps of ``covariance_pass`` from the prefix's start, bit for bit.

    Returns (P_pred, P_post, beta, singular): stacks of the steps before the
    first singular innovation, and the ``SingularInnovation`` raised there,
    or None if all n_steps steps are filled.  Takes the steps the prefix
    ran, then fills the rest from the period (see the module docstring).
    """
    run = len(prefix.beta)
    ran = (prefix.P_pred, prefix.P_post, prefix.beta)
    if n_steps <= run:
        return tuple(a[:n_steps] for a in ran) + (None,)
    if prefix.singular:
        return ran + (SingularInnovation("P_pred[1, 1] + R = 0"),)
    track = tuple(np.empty((n_steps,) + a.shape[1:]) for a in ran)
    for a, steps in zip(track, ran):
        a[:run] = steps
    filled = run
    if prefix.first is not None:
        filled = _fill_period(tm, R, track, prefix.first, run - 1)
    P_pred, P_post, beta = track
    try:
        # A non-finite P_00, or a prefix cut short by its bound, hands the
        # rest back to the full kernel.
        steps = covariance_pass(tm, R, P_post[filled - 1])
        for n, (Pp, Pn, b) in zip(range(filled, n_steps), steps):
            P_pred[n], P_post[n], beta[n] = Pp, Pn, b
            filled = n + 1
    except SingularInnovation as exc:
        return tuple(a[:filled] for a in track) + (exc,)
    return track + (None,)


def _fill_period(tm: TransitionModel, R: float, track: tuple, i: int, n: int) -> int:
    """Fill the steps after step n, whose closed block repeats step i's, from the period.

    Every array is copied from step k = i + 1 + (m - n - 1) mod (n - i); then
    P_00 is recomputed step by step with the kernel's own arithmetic.
    Returns the number of steps filled: all of them, or up to the first
    step whose previous P_00 is not finite.
    """
    P_pred, P_post, beta = track
    k = i + 1 + np.arange(len(beta) - n - 1) % (n - i)
    for a in track:
        a[n + 1 :] = a[k]
    # drop is what the update subtracts from P_pred_00; it repeats with the period.
    Pp = P_pred[n + 1 :]
    drops = (Pp[:, 0, 1] * Pp[:, 0, 1] / (Pp[:, 1, 1] + R)).tolist()
    A, AT, Q00 = tm.A, tm.A.T, tm.Q[0, 0].item()
    for m, drop in enumerate(drops, start=n + 1):
        P = P_post[m - 1]
        if not math.isfinite(P[0, 0]):
            return m
        # The full product of predict_covariance (the same BLAS gemm calls):
        # A[:1] P A[:1]^T rounds differently.
        v = A.dot(P).dot(AT).item(0) + Q00
        v = 0.5 * (v + v)
        P_pred[m, 0, 0] = v
        v -= drop
        P_post[m, 0, 0] = 0.5 * (v + v)
    return len(beta)


def covariance_pass(tm: TransitionModel, R: float, P: np.ndarray) -> Iterator[tuple]:
    """The data-free covariance recursion from P: yields (P_pred, P_post, beta) per step.

    Each step is ``predict_covariance`` then ``update_covariance``, looked
    up at call time.  The generator never ends; callers bound it.
    """
    while True:
        P_pred = predict_covariance(P, tm)
        P, beta = update_covariance(P_pred, R)
        yield P_pred, P, beta


def periodic_pass(
    tms: Sequence[TransitionModel], Rs: Sequence[float], Ps: Sequence[np.ndarray], bounds=None
) -> Iterator[tuple]:
    """``covariance_pass`` of a stack of cells side by side, each step tagged with its repeat.

    Cell c runs from Ps[c] with transition tms[c] and variance Rs[c] (one
    matrix size for all); a step calls each kernel once on the stack of
    cells still running.  Yields (cells, P_pred, P, beta, first) per step:
    those cells' indices, their stacked step, and for each the earlier step
    whose closed block P[:, 1:] its finite one repeats byte for byte, or -1
    (always -1 if some A_j0, j >= 1, is nonzero).  A cell leaves the stack
    at a singular innovation, before that step's update; with ``bounds``,
    cell c also leaves after bounds[c] steps or after its first repeat.
    The pass ends when no cell is left.
    """
    tm = TransitionModel(
        np.array([t.h for t in tms]), np.array([t.A for t in tms]), np.array([t.Q for t in tms])
    )
    R, P = np.array(Rs, dtype=float), np.array(Ps, dtype=float)
    cells = np.arange(len(P))
    closed = (~tm.A[:, 1:, 0].any(axis=1)).tolist()
    seen = [{} for _ in closed]
    if bounds is not None:
        limit, end, first = np.asarray(bounds), 0, [-1] * len(P)
    for n in itertools.count():
        if bounds is not None and (n >= end or max(first) >= 0):
            keep = (n < limit[cells]) & (np.array(first) < 0)
            cells, tm, R, P = _narrow(keep, cells, tm, R, P)
            if not len(cells):
                return
            end = limit[cells].min()
        P_pred = predict_covariance(P, tm)
        try:
            P, beta = update_covariance(P_pred, R)
        except SingularInnovation:
            # The cells with a singular innovation leave before the update.
            regular = _innovation_variance(P_pred, R) != 0.0
            cells, tm, R, P_pred = _narrow(regular, cells, tm, R, P_pred)
            if not len(cells):
                return
            P, beta = update_covariance(P_pred, R)
        first = [-1] * len(cells)
        for k, c in enumerate(cells.tolist()):
            i = seen[c].setdefault(P[k, :, 1:].tobytes(), n)
            if i < n and closed[c] and np.isfinite(P[k, :, 1:]).all():
                first[k] = i
        yield cells, P_pred, P, beta, first


def _narrow(keep: np.ndarray, cells: np.ndarray, tm: TransitionModel, R: np.ndarray, P: np.ndarray):
    """The stack (cells, tm, R, P) cut down to the cells that ``keep`` marks."""
    return cells[keep], TransitionModel(tm.h[keep], tm.A[keep], tm.Q[keep]), R[keep], P[keep]


def predict_covariance(P: np.ndarray, tm: TransitionModel) -> np.ndarray:
    """A P A^T + Q, symmetrized; P, A and Q may carry a leading cell axis."""
    P_pred = tm.A @ P @ tm.A.mT + tm.Q
    return 0.5 * (P_pred + P_pred.mT)


def update_covariance(P_pred: np.ndarray, R):
    """Measurement update of a covariance (or a stack of them), symmetrized; returns (P, beta)."""
    beta = gain(P_pred, R)
    col = P_pred[..., :, 1]
    denom = _innovation_variance(P_pred, R)[..., None, None]
    P = P_pred - col[..., :, None] * col[..., None, :] / denom
    return 0.5 * (P + P.mT), beta


def _innovation_variance(P_pred: np.ndarray, R):
    """P_pred[1, 1] + R, per cell of a stack."""
    return P_pred[..., 1, 1] + R


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, equal bit for bit to np.linalg.norm(row).

    For one vector np.linalg.norm takes the BLAS dot, which vecdot also
    calls (``norm(x, axis=1)`` sums the squares in another order).  An
    overflowing square gives inf without a RuntimeWarning: the rows of a
    diverging run are expected to overflow.
    """
    with np.errstate(over="ignore"):
        return np.sqrt(np.vecdot(x, x))

