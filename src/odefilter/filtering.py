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
``solve_cells``, the only code that advances a mean, solves a stack of
cells that share a problem and q in two passes: each cell's covariances
and gains over its mesh (``covariance_track``, each distinct step stored
once), then one mean loop steps all the cells side by side, with one stacked
``A m``, one call of ``f`` on the ``(cells, d)`` stack of predicted values
(``f`` is pointwise on stacks) and one update per step, writing the means
and data (per dimension) into step-major arrays.  ``solve`` is
``solve_cells`` on a stack of one, or hands out one cell of a stack.  A
``Trajectory`` keeps its posterior means and P_00 and builds the rest on
first read, which a sweep row never does.

The covariance track.  A is upper triangular and the data is on x_1, so
the gain and every entry of P_pred and P_post but [0, 0] are computed from
the previous posterior's closed block P[:, 1:] alone (P_00 meets only the
entries A_j0 = 0, j >= 1).  So once step n's finite closed block repeats,
byte for byte, that of an earlier step i, every later step m repeats step
k = i + 1 + (m - n - 1) mod (n - i) in all but P_00.
``covariance_prefixes`` runs a stack of cells side by side (numpy's stacked
matmul runs the same BLAS product per matrix, so each cell keeps its bytes)
up to each cell's first repeat, bound or singular innovation: its *prefix*,
a ``CovarianceTrack`` (each distinct step stored once) whose rows are its
own steps.  ``covariance_track`` cuts a long enough track, or fills a prefix
that ends at a repeat once: each later step maps to its step k, and P_00 is
recomputed with the kernel's own arithmetic in verified blocks
(``_fill_period``), up to the first non-finite P_00 (the next step would be
NaN, 0 * inf).  A track that ends before the mesh ends the run there,
diverged; a singular innovation ends the track, and ``solve`` raises it
only if its mean loop reaches that step.  ``shared_tracks`` runs each
distinct pass of a sweep once.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from typing import Iterator, Optional, Sequence

import numpy as np

from .noise import PowerLawNoise
from .priors import PriorSpec, TransitionModel
from .problems import IVProblem

__all__ = [
    "Belief",
    "CovarianceTrack",
    "NonIntegerMesh",
    "PerturbedInit",
    "SingularInnovation",
    "Trajectory",
    "covariance_prefixes",
    "covariance_track",
    "gain",
    "initial_covariance",
    "initialize",
    "shared_tracks",
    "solve",
    "solve_cells",
]


class NonIntegerMesh(ValueError):
    """T/h is not within 1e-9 of an integer."""


class SingularInnovation(ZeroDivisionError):
    """P_pred[1, 1] + R = 0; the data has nothing to update against."""


@dataclasses.dataclass(frozen=True)
class PerturbedInit:
    """The start: the true value and its total derivatives, widened by k0 >= 0.

    With k0 > 0, each derivative i gets a seeded offset drawn uniformly
    from [-k0 h^(q+1-i), k0 h^(q+1-i)], and the start covariance is
    k0 h^(2q+1-k-l).  k0 = 0 is the exact start, a Dirac: nothing is drawn
    or added (a -0.0 entry stays -0.0), and the covariance is all +0.0.
    """

    k0: float
    seed: int = 0

    def __post_init__(self):
        if not self.k0 >= 0.0:
            raise ValueError("k0 must be non-negative")


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

    and the posterior P_00 of each step, ``P00_post`` (N,).  N is ``n_steps``,
    or the number of steps completed when the run diverged.  A solve keeps
    m_post, P00_post and ``source``, its cell's (A, f, ``CovarianceTrack``),
    and builds the other arrays on first read, bit for bit as the run did
    (y as f(m_pred[:, 0]): f is pointwise on stacks).  All are read-only.
    """

    h: float
    initial: Belief
    m_post: np.ndarray
    P00_post: np.ndarray
    diverged: bool = False
    source: Optional[tuple] = dataclasses.field(default=None, repr=False)

    @property
    def q(self) -> int:
        return self.initial.q

    @property
    def d(self) -> int:
        return self.initial.d

    @functools.cached_property
    def m_pred(self) -> np.ndarray:
        return _read_only(np.matmul(self.source[0], self.means()[:-1]))

    @functools.cached_property
    def y(self) -> np.ndarray:
        x = self.m_pred[:, 0]
        y = np.empty(x.shape)
        y[...] = self.source[1](x)  # as the mean loop stores it
        return _read_only(y)

    @functools.cached_property
    def P_pred(self) -> np.ndarray:
        return _read_only(self.source[2].covariances(len(self.m_post), 0))

    @functools.cached_property
    def P_post(self) -> np.ndarray:
        return _read_only(self.source[2].covariances(len(self.m_post), 1))

    @functools.cached_property
    def beta(self) -> np.ndarray:
        track = self.source[2]
        return _read_only(track.beta[track.rows[: len(self.m_post)]])

    def times(self) -> np.ndarray:
        steps = np.arange(1, len(self.m_post) + 1)
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
    problem: IVProblem, prior: PriorSpec, h: float, mode: PerturbedInit = PerturbedInit(0.0)
) -> Belief:
    """Belief at t = 0 from the problem's total derivatives at x0.

    The exact start (k0 = 0) pins a Dirac at (x0, f(x0), ..., g_q(x0)); a
    perturbed one adds seeded offsets and a covariance whose entries carry
    the order-matched powers of h (``initial_covariance``).  Raises
    MissingDerivative if the problem does not supply derivatives up to
    order q.
    """
    q, d = prior.q, problem.d
    x0 = np.asarray(problem.x0, dtype=float)
    m = np.stack([np.asarray(problem.derivative(i)(x0), dtype=float) for i in range(q + 1)])
    if mode.k0 > 0.0:
        rng = np.random.default_rng(mode.seed)
        bounds = mode.k0 * h ** (q + 1 - np.arange(q + 1, dtype=float))
        m = m + rng.uniform(-1.0, 1.0, size=(q + 1, d)) * bounds[:, None]
    return Belief(t=0.0, m=m, P=initial_covariance(q, h, mode))


def initial_covariance(q: int, h: float, mode: PerturbedInit = PerturbedInit(0.0)) -> np.ndarray:
    """The start covariance of ``initialize``, which depends on q, h and the mode alone."""
    if mode.k0 > 0.0:
        scale = h ** (q - np.arange(q + 1, dtype=float))
        return mode.k0 * h * np.outer(scale, scale)
    return np.zeros((q + 1, q + 1))


def gain(P_pred: np.ndarray, R) -> np.ndarray:
    """Kalman gain vector beta_i = P_pred[i, 1] / (P_pred[1, 1] + R), per cell of a stack."""
    denom = _innovation_variance(P_pred, R)
    if np.count_nonzero(denom) != denom.size:
        raise SingularInnovation("singular innovation: P_pred[1, 1] + R = 0")
    return P_pred[..., :, 1] / denom[..., None]


_Q_AT_LEAST_1 = "the solver requires q >= 1 (q = 0 models no derivative)"


def solve(
    problem: IVProblem,
    prior: PriorSpec,
    h: float,
    noise: PowerLawNoise,
    mode: PerturbedInit = PerturbedInit(0.0),
    stack: Optional[Iterator[Trajectory]] = None,
) -> Trajectory:
    """Run the filter over the uniform mesh {h, 2h, ..., T}: ``solve_cells`` on a stack of one.

    A non-finite predicted mean or vector-field value, or a covariance
    track that a non-finite P_00 ends (``covariance_track``), ends the run;
    the trajectory then holds the steps completed, with ``diverged=True``.  A
    singular innovation raises ``SingularInnovation`` when the mean loop
    reaches it.  ``stack``, a ``solve_cells`` run whose next cell is this
    one, hands out that cell's trajectory in place of a run of its own
    (a sweep solves each (problem, q) group so).
    """
    if stack is None:
        stack = solve_cells(problem, [(prior, h, noise, mode)])
    traj = next(stack)
    if traj.h != h or traj.q != prior.q:
        raise ValueError("the stack's next cell is not this one")
    return traj


def solve_cells(
    problem: IVProblem, cells: Sequence[tuple], tracks: Optional[Sequence] = None
) -> Iterator[Trajectory]:
    """``solve`` of each (prior, h, noise, mode) cell, all of one q, with one mean loop for all.

    Yields the cells' trajectories in order, each equal bit for bit to the
    cell's own run.  ``tracks[c]`` is a ``CovarianceTrack`` of cell c's
    recursion from the prior's transition at h, R and ``initial_covariance``
    (a sweep fills each shared pass once); without them the cells share one
    stacked pass.  Each track is cut or filled to its cell's mesh
    (``covariance_track``) before the first call to ``f``; a cell whose
    track ends sooner, at a non-finite covariance, ends there, diverged.

    The mean loop then steps the cells side by side, longest track first,
    so the cells still running at step n are a leading slice of the stack:
    one stacked ``A m``, one call of ``f`` on the stack of predicted values
    and one update per step, stored step-major without padding.  A cell
    whose predicted mean or data is not finite leaves with the steps it
    completed; its slot is zeroed, with gain 0, so the stack stays finite.
    A cell's means are gathered when it is yielded (its other arrays are
    built on first read, ``Trajectory``), and a cell whose loop reached its
    singular innovation raises ``SingularInnovation`` there.
    """
    runs = [_setup(problem, *cell) for cell in cells]
    if len({initial.m.shape for _, _, initial, _ in runs}) > 1:
        raise ValueError("the cells of one stack must share q")
    if tracks is None:
        tracks = covariance_prefixes(*zip(*((tm, R, init.P, n) for tm, R, init, n in runs)))
    tracks = [covariance_track(tm, R, track, n) for (tm, R, _, n), track in zip(runs, tracks)]
    with np.errstate(over="ignore", invalid="ignore"):
        order = sorted(range(len(runs)), key=lambda c: -len(tracks[c].rows))
        lengths = np.array([len(tracks[c].rows) for c in order], dtype=np.intp)
        # Step n holds the cells whose track is longer than n, in rows
        # starts[n] .. starts[n + 1] - 1.
        steps = np.arange(lengths[0])
        starts = np.zeros(len(steps) + 1, np.intp)
        np.cumsum(len(lengths) - np.searchsorted(lengths[::-1], steps, "right"), out=starts[1:])
        q1, d = runs[0][2].m.shape
        y, m_post = np.empty((starts[-1], d)), np.empty((starts[-1], q1, d))
        gains = np.empty((starts[-1], q1, 1))
        for j, c in enumerate(order):
            gains[starts[: lengths[j]] + j, :, 0] = tracks[c].beta[tracks[c].rows]
        A = np.array([runs[c][0].A for c in order])
        m = np.array([runs[c][2].m for c in order])
        reached = _mean_loop(problem.f, A, m, starts, lengths, y, gains, m_post)
    del gains, y
    slot = {c: j for j, c in enumerate(order)}
    for c, run in enumerate(runs):
        # A track is held by its cell's trajectory alone once it is gathered.
        track, tracks[c] = tracks[c], None
        rows = starts[: reached[slot[c]]] + slot[c]
        yield _gather(cells[c][1], run, problem.f, track, rows, m_post)


def _gather(h, run, f, track, rows, m_post) -> Trajectory:
    """The trajectory of a cell of a stacked mean pass whose steps are ``rows`` of ``m_post``."""
    tm, _, initial, n_steps = run
    n = len(rows)
    if track.singular and n == len(track.rows):
        raise SingularInnovation("singular innovation: P_pred[1, 1] + R = 0")
    mine, P00 = _read_only(m_post[rows]), _read_only(track.P00[:n, 1])
    return Trajectory(h, initial, mine, P00, n < n_steps, (tm.A, f, track))


def _setup(problem: IVProblem, prior: PriorSpec, h: float, noise: PowerLawNoise, mode):
    """A cell's (transition, R, initial belief, step count), its settings checked."""
    if prior.q < 1:
        raise ValueError(_Q_AT_LEAST_1)
    if not h > 0.0:
        raise ValueError("h must be positive")
    n_float = problem.T / h
    n_steps = int(round(n_float))
    if n_steps < 1 or abs(n_float - n_steps) > 1e-9:
        raise NonIntegerMesh(f"T/h = {n_float!r} is not an integer mesh count")
    return prior.transition(h), noise.evaluate(h), initialize(problem, prior, h, mode), n_steps


def _mean_loop(f, A, m, starts, lengths, y, gains, m_post) -> list:
    """The mean recursion of a stack of cells, longest first; returns each cell's steps completed.

    Step n reads rows starts[n] .. of ``gains`` and writes the same rows of
    ``y`` and ``m_post``, one per cell still running; m holds the start means.
    A step checks only its predicted means A m: data that is not finite makes
    the mean it updates, and so the next predicted mean, not finite (A_00 = 1).
    So a cell whose data at step n - 1 is not finite is found at step n, or
    when its track ends, and leaves at step n - 1, as if checked then; ``f``
    only ever sees a finite stack.  The steps run in stretches of one stack
    size k, each stepping through (steps, k, ...) views of the three arrays.
    """
    bounds, ends = starts.tolist(), lengths.tolist()
    reached, stop = list(ends), max(ends, default=0)
    predicted, residual = np.empty_like(m), np.empty((len(m), 1, m.shape[2]))

    def leave(n, bad, *rows):
        # Cells whose step n is not finite: record the steps they completed,
        # and zero their slots and later gains so the stack stays finite.
        nonlocal stop
        for j in np.flatnonzero(bad).tolist():
            if reached[j] > n:
                gains[starts[n : reached[j]] + j] = 0.0
                reached[j] = n
            for a in rows:
                a[j] = 0.0
        stop = max(reached)

    def check_data(n):
        # The cells whose data at step n is not finite; a zeroed slot's update
        # leaves its mean 0.
        yn = y[bounds[n] : bounds[n + 1]]
        if np.count_nonzero(np.isfinite(yn)) != yn.size:
            leave(n, ~np.isfinite(yn).all(axis=1), yn, m_post[bounds[n] : bounds[n + 1]])

    n = 0
    for k in range(len(ends), 0, -1):
        end = ends[k - 1]  # steps n .. end - 1 run the first k cells
        if end <= n:
            continue
        rows = slice(bounds[n], bounds[end])
        stretch = [a[rows].reshape(end - n, k, *a.shape[1:]) for a in (gains, y, m_post)]
        Ak, mp, r, m = A[:k], predicted[:k], residual[:k], m[:k]
        x, dx, r0 = mp[:, 0], mp[:, 1], r[:, 0]
        for g, yn, mn in zip(*stretch):
            np.matmul(Ak, m, out=mp)
            if np.count_nonzero(np.isfinite(mp)) != mp.size:
                if n:
                    check_data(n - 1)
                leave(n, ~np.isfinite(mp).all(axis=(1, 2)), mp)
                if n >= stop:
                    return reached
            yn[...] = f(x)
            np.subtract(yn, dx, out=r0)
            np.multiply(g, r, out=mn)
            np.add(mp, mn, out=mn)
            m = mn
            n += 1
        check_data(n - 1)  # for the cells that end
        if n >= stop:
            break
    return reached


@dataclasses.dataclass(frozen=True, eq=False)
class CovarianceTrack:
    """One cell's covariances and gains over its first steps, each distinct step stored once.

    Step n is row ``rows[n]`` of P_pred, P_post and beta, but for its two
    P_00 entries, which are ``P00[n]`` (predicted, updated).  ``first`` is
    the earlier step whose closed block the last step repeats (in full, at
    a non-finite fixed point), or None; ``singular`` says that the step
    after the last one has a singular innovation.  A prefix
    (``covariance_prefixes``, read-only) is a track whose rows are its steps.
    """

    P_pred: np.ndarray
    P_post: np.ndarray
    beta: np.ndarray
    rows: np.ndarray
    P00: np.ndarray
    first: Optional[int]
    singular: bool

    def steps(self, n: int) -> tuple:
        """(P_pred, P_post, beta) of the first n steps, one row per step."""
        return self.covariances(n, 0), self.covariances(n, 1), self.beta[self.rows[:n]]

    def covariances(self, n: int, k: int) -> np.ndarray:
        """The predicted (k = 0) or updated (k = 1) covariance of each of the first n steps."""
        P = (self.P_pred, self.P_post)[k][self.rows[:n]]
        P[:, 0, 0] = self.P00[:n, k]
        return P


def covariance_prefixes(
    tms: Sequence[TransitionModel], Rs: Sequence[float], Ps: Sequence[np.ndarray], bounds
) -> list:
    """Each cell's covariance pass up to where its track can be filled, from one stacked pass.

    Cell c runs the recursion from ``Ps[c]`` with transition ``tms[c]`` and
    variance ``Rs[c]`` (one matrix size for all), bit for bit, and is
    returned as a prefix: its steps up to its ``bounds[c]``-th, up to its
    first step whose finite closed block P[:, 1:] repeats that of an earlier
    step byte for byte (never if some A_j0, j >= 1, is nonzero), or up to a
    non-finite step that repeats the step before it in full (a fixed point:
    every later step repeats it too), whichever comes first; ``first`` is the
    repeated step.  A cell whose innovation is singular leaves before that
    step's update, which then runs again without it, flagged ``singular``.
    ``covariance_track`` fills a longer mesh from a prefix that ends on a
    repeat.

    The cells run side by side: a step calls each kernel once on the stack
    of cells still running.  The stacked steps are split into each cell's
    rows when the stack changes and every 64 steps (so that few arrays are
    kept per step), and a cell's rows are joined when it leaves.
    """
    n = len(Ps[0])
    if n < 2:
        raise ValueError(_Q_AT_LEAST_1)
    h, A, Q = (np.array([getattr(t, x) for t in tms]) for x in ("h", "A", "Q"))
    R, P = np.array(Rs, dtype=float), np.array(Ps, dtype=float)
    cells, bounds = np.arange(len(P)), np.asarray(bounds)
    closed = (~A[:, 1:, 0].any(axis=1)).tolist()
    seen, prefixes, first = [{} for _ in closed], [None] * len(closed), {}
    width = P[0, :, 1:].nbytes  # one cell's closed block in the step's repeat keys
    empty = (np.empty((0, n, n)), np.empty((0, n, n)), np.empty((0, n)))
    pieces, block = [[empty] for _ in closed], []

    def leave(stay, singular=False):
        # Each cell takes its rows of the steps since the last split, and the
        # cells that ``stay`` does not mark become prefixes.
        if block:
            stacked = [np.array(column) for column in zip(*block)]
            block.clear()
            for j, c in enumerate(cells.tolist()):
                pieces[c].append([a[:, j] for a in stacked])
        for c in cells[~stay].tolist():
            prefixes[c] = _prefix(pieces[c], first.pop(c, None), singular)
            pieces[c] = None

    end = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for step in itertools.count():
            if first or step >= end or len(block) == 64:
                stay = (step < bounds[cells]) & [c not in first for c in cells.tolist()]
                leave(stay)
                cells, h, A, Q, R, P = (a[stay] for a in (cells, h, A, Q, R, P))
                if not len(cells):
                    break
                tm, end = TransitionModel(h, A, Q), bounds[cells].min()
            P_pred = predict_covariance(P, tm)
            try:
                previous, (P, beta) = P, update_covariance(P_pred, R)
            except SingularInnovation:
                stay = _innovation_variance(P_pred, R) != 0.0
                leave(stay, singular=True)
                cells, h, A, Q, R, P, P_pred = (a[stay] for a in (cells, h, A, Q, R, P, P_pred))
                if not len(cells):
                    break
                tm = TransitionModel(h, A, Q)
                previous, (P, beta) = P, update_covariance(P_pred, R)
            block.append((P_pred, P, beta))
            keys = P[:, :, 1:].tobytes()
            for k, c in enumerate(cells.tolist()):
                i = seen[c].setdefault(keys[k * width : (k + 1) * width], step)
                if i == step:
                    continue
                if np.isfinite(P[k, :, 1:]).all():
                    if closed[c]:
                        first[c] = i
                elif P[k].tobytes() == previous[k].tobytes():
                    first[c] = step - 1
    return prefixes


def _prefix(pieces: list, first: Optional[int], singular: bool) -> CovarianceTrack:
    """A cell's prefix from its pieces, each a (P_pred, P_post, beta) run of its steps."""
    P_pred, P_post, beta = (_read_only(np.concatenate(column)) for column in zip(*pieces))
    P00 = np.stack((P_pred[:, 0, 0], P_post[:, 0, 0]), axis=1)
    return CovarianceTrack(P_pred, P_post, beta, np.arange(len(beta)), P00, first, singular)


def covariance_track(
    tm: TransitionModel, R: float, track: CovarianceTrack, n_steps: int
) -> CovarianceTrack:
    """The first n_steps steps of the recursion that ``track`` begins, bit for bit, or fewer.

    A track at least that long is cut, and shares its arrays.  A shorter
    one with no repeat, which ends at a singular innovation or at a
    non-finite P_00, is returned as it is.  A prefix that ends at a repeat
    is filled once, sharing its arrays (``_fill_period``), up to the mesh
    or to the first step whose previous P_00 is not finite, where the
    track, and so the run, ends.
    """
    if len(track.rows) >= n_steps:
        cut = (track.rows[:n_steps], track.P00[:n_steps], None, False)
        return CovarianceTrack(track.P_pred, track.P_post, track.beta, *cut)
    if track.first is None:
        return track
    i, n = track.first, len(track.rows) - 1
    period = i + 1 + np.arange(n_steps - n - 1) % (n - i)
    P00 = np.concatenate((track.P00, np.empty((len(period), 2))))
    with np.errstate(over="ignore", invalid="ignore"):
        filled = n + 1 + _fill_period(tm, R, track, period, P00)
    rows = np.concatenate((track.rows, period))[:filled]
    return CovarianceTrack(track.P_pred, track.P_post, track.beta, rows, P00[:filled], None, False)


def _fill_period(tm, R, track: CovarianceTrack, period, P00) -> int:
    """Write the (predicted, updated) P_00 of each step after the prefix ``track`` into ``P00``.

    Step n + 1 + m (n the prefix's last step) repeats row ``period[m]`` but
    for P_00.  Returns the steps filled: all, or up to the first whose
    previous P_00 is not finite.  A block of steps guesses each previous
    P_00 (the last exact one plus the increments one period back), runs at
    once (``_p00_steps``) and keeps its steps up to the first wrong guess,
    bits compared, each of which read the exact output of the step before.
    A guess is wrong where a step's increment rounds differently from the
    one a period earlier, mostly by one ulp of P_00 within a binade; a
    crossing into the next binade is a rarer cause.  Blocks hold 16 steps,
    twice as many (at most 4,096) after a block kept whole, max(16, 2j)
    after one that kept j.
    """
    n, p = len(track.rows) - 1, len(track.rows) - 1 - track.first
    reads = np.concatenate(([n], period[:-1]))  # the row of each step's previous posterior
    # drop is what the update subtracts from P_pred_00; it repeats with the period.
    P01, P11 = track.P_pred[:, 0, 1], track.P_pred[:, 1, 1]
    drops = P01 * P01 / (P11 + R)
    updated, cycle = P00[:, 1], np.arange(4096) % p
    done, size = 0, 16
    while done < len(period):
        last = n + done  # the last step filled, and so exact
        if not math.isfinite(updated[last]):
            return done
        b = min(size, len(period) - done)
        block = slice(done, done + b)
        increments = updated[last - p + 1 : last + 1] - updated[last - p : last]
        guesses = np.concatenate((updated[last : last + 1], increments[cycle[: b - 1]])).cumsum()
        predicted, post = _p00_steps(tm, track.P_post[reads[block]], guesses, drops[period[block]])
        # A wrong guess, or a non-finite P_00 that the next step must not read, ends the steps kept.
        bad = (guesses[1:].view(np.int64) != post[:-1].view(np.int64)) | ~np.isfinite(post[:-1])
        wrong = np.flatnonzero(bad)
        kept = int(wrong[0]) + 1 if len(wrong) else b
        P00[n + 1 + done : n + 1 + done + kept, 0] = predicted[:kept]
        P00[n + 1 + done : n + 1 + done + kept, 1] = post[:kept]
        size = min(2 * size, 4096) if kept == size else max(16, 2 * kept)
        done += kept
    return done


def _p00_steps(tm, P, previous, drops) -> tuple:
    """The (predicted, updated) P_00 of the steps from the posteriors P with P_00 ``previous``.

    The kernel's own arithmetic: the full A P A^T of ``predict_covariance``
    (the same BLAS product per matrix; A[:1] P A[:1]^T rounds differently),
    + Q_00 and its symmetrize, then the update's - drop and symmetrize.
    """
    P[:, 0, 0] = previous
    v = (tm.A @ P @ tm.A.T)[:, 0, 0] + tm.Q[0, 0]
    v = 0.5 * (v + v)
    u = v - drops
    return v, 0.5 * (u + u)


def shared_tracks(passes: Sequence[tuple]) -> Iterator[CovarianceTrack]:
    """Each pass's ``CovarianceTrack`` over its mesh in turn, each distinct pass run once.

    ``passes`` are (transition, R, start covariance, steps).  Passes with
    the same A, Q, R and start, byte for byte, share one track over their
    longest mesh.  The distinct passes run in one stacked prefix pass per
    matrix size; each track is filled at its first pass and let go after
    its last.  Raises ValueError for q = 0.
    """
    distinct, keys = {}, []
    for tm, R, start, steps in passes:
        key = (tm.A.tobytes(), tm.Q.tobytes(), np.float64(R).tobytes(), start.tobytes())
        longest = max(steps, distinct[key][3]) if key in distinct else steps
        distinct[key] = (tm, R, start, longest)
        keys.append(key)
    tracks = {}
    for n in sorted({len(start) for _, _, start, _ in distinct.values()}):
        group = [key for key, (_, _, start, _) in distinct.items() if len(start) == n]
        tracks.update(zip(group, covariance_prefixes(*zip(*(distinct[key] for key in group)))))
    last = {key: c for c, key in enumerate(keys)}
    for c, key in enumerate(keys):
        # The first pass fills the prefix to the longest mesh; the others cut it.
        tm, R, _, steps = distinct[key]
        tracks[key] = covariance_track(tm, R, tracks[key], steps)
        yield tracks[key] if last[key] > c else tracks.pop(key)


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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, equal bit for bit to np.linalg.norm(row).

    For one vector np.linalg.norm takes the BLAS dot, which vecdot also
    calls (``norm(x, axis=1)`` sums the squares in another order).  An
    overflowing square gives inf without a RuntimeWarning: the rows of a
    diverging run are expected to overflow.
    """
    with np.errstate(over="ignore"):
        return np.sqrt(np.vecdot(x, x))

