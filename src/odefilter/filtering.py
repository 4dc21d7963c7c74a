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
``solve_cells``, the only code that advances a mean, solves a sweep of
cells of any problems and q in two passes: each distinct covariance pass
once, its covariances and gains over its longest mesh (a
``CovarianceTrack``, each distinct step stored once), then, for each run of
consecutive cells of one problem and q, one mean loop that steps the cells
side by side, with one stacked ``A m``, one call of ``f`` on the
``(cells, d)`` stack of predicted values (``f`` is pointwise on stacks) and
one update per step, writing each cell's means (per dimension) into its
own array, one stretch of steps at a time; only the last step's data is
kept.  ``solve`` is ``solve_cells`` on a sweep of one, or hands out one
cell of a sweep.  A ``Trajectory`` keeps its posterior means
and P_00 and builds the rest on first read, which a sweep row never does.

The covariance track.  A is upper triangular and the data is on x_1, so
the gain and every entry of P_pred and P_post but [0, 0] are computed from
the previous posterior's closed block P[:, 1:] alone (P_00 meets only the
entries A_j0 = 0, j >= 1).  So once step n's finite closed block repeats,
byte for byte, that of an earlier step i, every later step m repeats step
k = i + 1 + (m - n - 1) mod (n - i) in all but P_00.
``covariance_prefixes`` runs a stack of cells side by side (numpy's stacked
matmul runs the same BLAS product per matrix, so each cell keeps its bytes)
up to each cell's first repeat, bound or singular innovation: its *prefix*,
a ``CovarianceTrack`` whose rows are its own steps.  ``covariance_track``
cuts a long enough track, or fills a prefix that ends at a repeat once:
each later step maps to its step k, derived where a slice of steps is read
(no row array is stored), and its updated P_00 is recomputed with the
kernel's own arithmetic in verified blocks (``_fill_period``), up to the
first non-finite P_00 (the next step would be NaN, 0 * inf).  So a filled
track stores 8 bytes a step past its prefix; a predicted P_00 there is
rebuilt on read with the same arithmetic on the same inputs.  A track that
ends before the mesh ends the run there, diverged; a singular innovation
ends the track, and ``solve`` raises it only if its mean loop reaches that
step.
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
    return P_pred[..., :, 1] / _innovation_variance(P_pred, R)[..., None]


_Q_AT_LEAST_1 = "the solver requires q >= 1 (q = 0 models no derivative)"


def solve(
    problem: IVProblem,
    prior: PriorSpec,
    h: float,
    noise: PowerLawNoise,
    mode: PerturbedInit = PerturbedInit(0.0),
    stack: Optional[Iterator[Trajectory]] = None,
) -> Trajectory:
    """Run the filter over the uniform mesh {h, 2h, ..., T}: ``solve_cells`` on a sweep of one.

    A non-finite predicted mean or vector-field value, or a covariance
    track that a non-finite P_00 ends (``covariance_track``), ends the run;
    the trajectory then holds the steps completed, with ``diverged=True``.  A
    singular innovation raises ``SingularInnovation`` when the mean loop
    reaches it.  ``stack``, a ``solve_cells`` run whose next cell is this
    one, hands out that cell's trajectory in place of a run of its own
    (a sweep solves all its cells so).
    """
    if stack is None:
        stack = solve_cells([(problem, prior, h, noise, mode)])
    traj = next(stack)
    if traj.h != h or traj.q != prior.q:
        raise ValueError("the stack's next cell is not this one")
    return traj


def solve_cells(cells: Sequence[tuple]) -> Iterator[Trajectory]:
    """``solve`` of each (problem, prior, h, noise, mode) cell of a sweep, in order.

    Yields the cells' trajectories in order, each equal bit for bit to the
    cell's own run.  Cells whose passes are identical (A, Q, R and start
    covariance, byte for byte) share one track over their longest mesh; the
    distinct passes run in one stacked ``covariance_prefixes`` call per
    matrix size, and each track is filled at its first cell and let go
    after its last.  Each run of consecutive cells of one problem (the same
    object) and one q is one stack of the mean loop, run when its first
    cell is asked for, so a stack's arrays are freed once its cells are.

    Each cell's track is cut or filled to its mesh (``covariance_track``)
    before the stack's first call to ``f``; a cell whose track ends sooner,
    at a non-finite covariance, ends there, diverged.  The mean loop then
    steps the stack's cells side by side, longest track first, so the cells
    still running at step n are a leading slice of the stack: one stacked
    ``A m``, one call of ``f`` on the stack of predicted values and one
    update per step.  Each cell's means go to its own array, one stretch
    of steps with one stack size at a time, and only the last step's data
    is kept.  A cell whose predicted mean or data is not finite leaves with
    the steps it completed; its slot is zeroed, with gain 0, so the stack
    stays finite.  A cell is yielded with its means array, not a copy (its
    other arrays are built on first read, ``Trajectory``), and a cell whose
    loop reached its singular innovation raises ``SingularInnovation`` there.
    """
    runs = [_setup(*cell) for cell in cells]
    tracks = _shared_tracks([(tm, R, initial.P, n) for tm, R, initial, n in runs])
    stacks = itertools.groupby(zip(cells, runs), key=lambda c: (id(c[0][0]), c[0][1].q))
    for _, stack in stacks:
        stack_cells, stack_runs = zip(*stack)
        f = stack_cells[0][0].f
        yield from _mean_pass(f, stack_runs, [next(tracks) for _ in stack_runs])


def _shared_tracks(passes: Sequence[tuple]) -> Iterator[CovarianceTrack]:
    """Each (transition, R, start, steps) pass's track in turn, over the longest mesh of its kind."""
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
        tracks[key] = covariance_track(tracks[key], distinct[key][3])
        yield tracks[key] if last[key] > c else tracks.pop(key)


def _mean_pass(f, runs: Sequence[tuple], shared: list) -> Iterator[Trajectory]:
    """The trajectories of a stack of cells of one problem and q, given their shared tracks."""
    tracks = [covariance_track(track, run[3]) for run, track in zip(runs, shared)]
    order = sorted(range(len(runs)), key=lambda c: -len(tracks[c].P00))
    q1, d = runs[0][2].m.shape
    means = [np.empty((len(tracks[c].P00), q1, d)) for c in order]
    A = np.array([runs[c][0].A for c in order])
    m = np.array([runs[c][2].m for c in order])
    with np.errstate(over="ignore", invalid="ignore"):
        reached = _mean_loop(f, A, m, [(tracks[c].beta, tracks[c].rows) for c in order], means)
    slot = {c: j for j, c in enumerate(order)}
    for c, run in enumerate(runs):
        # A cell's track and means are held by its trajectory alone once it is yielded.
        j = slot[c]
        track, tracks[c] = tracks[c], None
        mine, means[j] = means[j][: reached[j]], None
        yield _gather(run, f, track, mine)


def _gather(run, f, track, means) -> Trajectory:
    """The trajectory of a cell of a stacked mean pass whose posterior means are ``means``."""
    tm, _, initial, n_steps = run
    n = len(means)
    if track.singular and n == len(track.P00):
        raise SingularInnovation("singular innovation: P_pred[1, 1] + R = 0")
    P00 = _read_only(track.P00[:n])
    return Trajectory(tm.h, initial, _read_only(means), P00, n < n_steps, (tm.A, f, track))


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


#: Steps per block of the mean loop (see ``_mean_loop``): small enough that a
#: block's gains and means buffer stay small next to the cells' arrays (one
#: block per stretch raised fig2's traced peak from 4.7 to 5.2 MB), large
#: enough that the per-block copies cost little next to the steps.
_BLOCK = 256


def _mean_loop(f, A, m, gains, means) -> list:
    """The mean recursion of a stack of cells, longest first; returns each cell's steps completed.

    Cell j's gain at step n is ``beta[rows[n]]`` of its ``gains[j] = (beta,
    rows)`` (``rows`` is read one block's slice at a time), and its
    posterior mean goes to ``means[j][n]``, one row per step of its track;
    m holds the start means.  A step checks only its predicted means A m:
    data that is not finite makes the mean it updates, and so the next
    predicted mean, not finite (A_00 = 1).  So a cell whose data at step
    n - 1 is not finite is found at step n, or when its track ends, and
    leaves at step n - 1, as if checked then; only the last step's data is
    kept, for that check, and ``f`` only ever sees a finite stack.  The
    steps run in stretches of one stack size k, each in blocks of at most
    ``_BLOCK`` steps: a block's (steps, k, ...) gains are read from the
    tracks when it starts, and its means go to a block buffer that is copied
    into each cell's array when it ends (one cell writes into its own array).
    """
    ends = [len(a) for a in means]
    reached, stop = list(ends), max(ends, default=0)
    q1, d = m.shape[1:]
    predicted, residual, data = np.empty_like(m), np.empty((len(m), 1, d)), np.empty((len(m), d))
    n0, g = 0, None  # the block's first step and gains

    def leave(n, bad, *rows):
        # Cells whose step n is not finite: record the steps they completed,
        # and zero their slots and later gains so the stack stays finite.
        nonlocal stop
        for j in np.flatnonzero(bad).tolist():
            if reached[j] > n:
                g[max(n - n0, 0) :, j] = 0.0
                reached[j] = n
            for a in rows:
                a[j] = 0.0
        stop = max(reached)

    def check_data(n, yn, mn):
        # The cells whose data at step n, ``yn``, is not finite; their means
        # ``mn`` are zeroed, as a zeroed slot's update leaves them.
        if np.count_nonzero(np.isfinite(yn)) != yn.size:
            bad = ~np.isfinite(yn).all(axis=1)
            leave(n, bad, yn, mn)
            for j in np.flatnonzero(bad).tolist():
                means[j][n] = 0.0

    n = 0
    for k in range(len(ends), 0, -1):
        end = ends[k - 1]  # steps n .. end - 1 run the first k cells
        if end <= n:
            continue
        Ak, mp, r, yn, m = A[:k], predicted[:k], residual[:k], data[:k], m[:k]
        x, dx, r0 = mp[:, 0], mp[:, 1], r[:, 0]
        while n < end:
            n0, n1 = n, min(n + _BLOCK, end)
            g = np.empty((n1 - n0, k, q1, 1))
            for j, (beta, rows) in enumerate(gains[:k]):
                g[:, j, :, 0] = beta[rows[n0:n1]]
                g[max(reached[j] - n0, 0) :, j] = 0.0
            out = means[0][n0:n1, None] if k == 1 else np.empty((n1 - n0, k, q1, d))
            for gn, mn in zip(g, out):
                np.matmul(Ak, m, out=mp)
                if np.count_nonzero(np.isfinite(mp)) != mp.size:
                    if n:
                        check_data(n - 1, yn, m)
                    leave(n, ~np.isfinite(mp).all(axis=(1, 2)), mp)
                    if n >= stop:
                        break
                yn[...] = f(x)
                np.subtract(yn, dx, out=r0)
                np.multiply(gn, r, out=mn)
                np.add(mp, mn, out=mn)
                m = mn
                n += 1
            if k > 1:
                for j, a in enumerate(means[:k]):
                    a[n0:n] = out[: n - n0, j]
            if n < n1:  # every cell has left
                return reached
        check_data(n - 1, yn, m)  # for the cells that end
        if n >= stop:
            break
    return reached


@dataclasses.dataclass(frozen=True, eq=False)
class CovarianceTrack:
    """One cell's covariances and gains over its first steps, each distinct step stored once.

    ``P_pred``, ``P_post`` and ``beta`` hold the steps of a prefix (see
    ``covariance_prefixes``), read-only; step s is their row ``rows[s]``
    but for its two P_00 entries.  ``P00`` holds the posterior P_00 of each
    step, 8 bytes a step; a predicted P_00 past the prefix is rebuilt on
    read from the step before (``covariances``).  ``first`` is the earlier
    step whose closed block the prefix's last step repeats (in full, at a
    non-finite fixed point), or None; ``singular`` says that the step after
    the last one has a singular innovation.  ``tm`` and ``R`` are the
    pass's transition and measurement variance.
    """

    tm: TransitionModel
    R: float
    P_pred: np.ndarray
    P_post: np.ndarray
    beta: np.ndarray
    P00: np.ndarray
    first: Optional[int]
    singular: bool

    @property
    def rows(self) -> _Rows:
        """The row of P_pred, P_post and beta of each step, derived where a slice is read."""
        return _Rows(len(self.P00), len(self.beta) - 1, self.first)

    def covariances(self, n: int, k: int) -> np.ndarray:
        """The predicted (k = 0) or updated (k = 1) covariance of each of the first n steps."""
        rows = self.rows[:n]
        P = (self.P_pred, self.P_post)[k][rows]
        prefix = len(self.beta)
        if k:
            P[:, 0, 0] = self.P00[:n]
        elif n > prefix:
            # The fill's own arithmetic (``_fill_period``) on the same inputs: the same bits.
            previous = self.P_post[rows[prefix - 1 : n - 1]]
            with np.errstate(over="ignore", invalid="ignore"):
                P[prefix:, 0, 0] = _p00_predicted(self.tm, previous, self.P00[prefix - 1 : n - 1])
        return P


@dataclasses.dataclass(frozen=True)
class _Rows:
    """The row of each of a track's ``steps``: a slice of them is built when it is read.

    Step s is row s up to the prefix's last step n, and
    first + 1 + (s - n - 1) mod (n - first) after it.
    """

    steps: int
    n: int
    first: Optional[int]

    def __len__(self) -> int:
        return self.steps

    def __getitem__(self, key: slice) -> np.ndarray:
        """The rows of the consecutive steps ``key`` selects (its step must be 1)."""
        start, stop, step = key.indices(self.steps)
        if step != 1:
            raise ValueError("track rows are read in slices of consecutive steps")
        s = np.arange(start, stop)
        past = s[max(self.n + 1 - start, 0) :]  # a view: the steps after the prefix
        if len(past):
            n, i = self.n, self.first
            past -= n + 1
            past %= n - i
            past += i + 1
        return s


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
            prefixes[c] = _prefix(tms[c], Rs[c], pieces[c], first.pop(c, None), singular)
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
                stay = P_pred[:, 1, 1] + R != 0.0
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


def _prefix(tm, R, pieces: list, first: Optional[int], singular: bool) -> CovarianceTrack:
    """A cell's prefix from its pieces, each a (P_pred, P_post, beta) run of its steps."""
    P_pred, P_post, beta = (_read_only(np.concatenate(column)) for column in zip(*pieces))
    return CovarianceTrack(tm, R, P_pred, P_post, beta, P_post[:, 0, 0], first, singular)


def covariance_track(track: CovarianceTrack, n_steps: int) -> CovarianceTrack:
    """The first n_steps steps of the recursion that ``track`` begins, bit for bit, or fewer.

    A track at least that long is cut, and shares its arrays.  A shorter
    one that is not a whole prefix ending at a repeat (it ends at a
    singular innovation or at a non-finite P_00, or was cut or filled
    before) is returned as it is.  A prefix that ends at a repeat is
    filled, sharing its arrays (``_fill_period``), up to the mesh or to the
    first step whose previous P_00 is not finite, where the track, and so
    the run, ends.
    """
    if len(track.P00) >= n_steps:
        return dataclasses.replace(track, P00=track.P00[:n_steps], singular=False)
    if track.first is None or len(track.P00) != len(track.beta):
        return track
    P00 = np.empty(n_steps)
    P00[: len(track.P00)] = track.P00
    with np.errstate(over="ignore", invalid="ignore"):
        filled = len(track.P00) + _fill_period(track, P00)
    return dataclasses.replace(track, P00=P00[:filled])


def _fill_period(track: CovarianceTrack, P00) -> int:
    """Write the updated P_00 of each step after the prefix ``track`` into ``P00``.

    Step n + 1 + m (n the prefix's last step) repeats a row of the prefix
    (``CovarianceTrack.rows``) but for P_00.  Returns the steps filled:
    all of ``P00``, or up to the first whose previous P_00 is not finite.
    A block of steps guesses each previous P_00 (the last exact one plus
    the increments one period back), runs at once (``_p00_steps``) and
    keeps its steps up to the first wrong guess, bits compared, each of
    which read the exact output of the step before.  A guess is wrong
    where a step's increment rounds differently from the one a period
    earlier, mostly by one ulp of P_00 within a binade; a crossing into the
    next binade is a rarer cause.  Blocks hold 16 steps, twice as many (at
    most 4,096) after a block kept whole, max(16, 2j) after one that kept j.
    """
    n, p = len(track.beta) - 1, len(track.beta) - 1 - track.first
    rows = _Rows(len(P00), n, track.first)
    # drop is what the update subtracts from P_pred_00; it repeats with the period.
    P01, P11 = track.P_pred[:, 0, 1], track.P_pred[:, 1, 1]
    drops = P01 * P01 / (P11 + track.R)
    cycle = np.arange(4096) % p
    done, size = 0, 16
    while n + 1 + done < len(P00):
        last = n + done  # the last step filled, and so exact
        if not math.isfinite(P00[last]):
            return done
        b = min(size, len(P00) - 1 - last)
        block = rows[last : last + b + 1]  # the row of each step's previous posterior, then its own
        increments = P00[last - p + 1 : last + 1] - P00[last - p : last]
        guesses = np.concatenate((P00[last : last + 1], increments[cycle[: b - 1]])).cumsum()
        post = _p00_steps(track.tm, track.P_post[block[:-1]], guesses, drops[block[1:]])
        # A wrong guess, or a non-finite P_00 that the next step must not read, ends the steps kept.
        bad = (guesses[1:].view(np.int64) != post[:-1].view(np.int64)) | ~np.isfinite(post[:-1])
        wrong = np.flatnonzero(bad)
        kept = int(wrong[0]) + 1 if len(wrong) else b
        P00[last + 1 : last + 1 + kept] = post[:kept]
        size = min(2 * size, 4096) if kept == size else max(16, 2 * kept)
        done += kept
    return done


def _p00_steps(tm, P, previous, drops) -> np.ndarray:
    """The updated P_00 of the steps from the posteriors P with P_00 ``previous``.

    The predicted P_00 (``_p00_predicted``), then the update's - drop and
    symmetrize.
    """
    u = _p00_predicted(tm, P, previous) - drops
    return 0.5 * (u + u)


def _p00_predicted(tm, P, previous) -> np.ndarray:
    """The predicted P_00 of the steps from the posteriors P with P_00 ``previous``.

    The kernel's own arithmetic: the full A P A^T of ``predict_covariance``
    (the same BLAS product per matrix; A[:1] P A[:1]^T rounds differently),
    + Q_00 and its symmetrize.  P is overwritten.
    """
    P[:, 0, 0] = previous
    v = (tm.A @ P @ tm.A.T)[:, 0, 0] + tm.Q[0, 0]
    return 0.5 * (v + v)


def predict_covariance(P: np.ndarray, tm: TransitionModel) -> np.ndarray:
    """A P A^T + Q, symmetrized; P, A and Q may carry a leading cell axis."""
    P_pred = tm.A @ P @ tm.A.mT + tm.Q
    return 0.5 * (P_pred + P_pred.mT)


def update_covariance(P_pred: np.ndarray, R):
    """Measurement update of a covariance (or a stack of them), symmetrized; returns (P, beta)."""
    col, denom = P_pred[..., :, 1], _innovation_variance(P_pred, R)[..., None]
    P = P_pred - col[..., :, None] * col[..., None, :] / denom[..., None]
    return 0.5 * (P + P.mT), col / denom


def _innovation_variance(P_pred: np.ndarray, R):
    """P_pred[1, 1] + R, per cell of a stack; raises SingularInnovation where it is 0."""
    denom = P_pred[..., 1, 1] + R
    if np.count_nonzero(denom) != denom.size:
        raise SingularInnovation("singular innovation: P_pred[1, 1] + R = 0")
    return denom


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

