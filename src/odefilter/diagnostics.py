"""Error, misalignment, and calibration metrics over trajectories.

Errors are measured against closed-form solutions; derivative rows come
from composing the problem's total-derivative maps with the solution.
The weighted norm ``sum_i h^i ||row i||`` makes the per-derivative errors
commensurable (each derivative estimate is one order of h worse).
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Optional

import numpy as np

from .filtering import Trajectory, _row_norms
from .problems import IVProblem

__all__ = [
    "CredibleWidth",
    "ErrorSeries",
    "MissingExact",
    "credible_width",
    "global_error",
    "misalignment",
]


class MissingExact(ValueError):
    """The problem has no closed-form solution to compare against."""


@dataclasses.dataclass
class ErrorSeries:
    """Per-mesh-point truncation errors over all modeled derivatives.

    ``eps`` (N+1, q+1, d), m^(i)(t) - x^(i)(t), and ``h_norm_series`` are
    built on first read from ``source``, the (trajectory, problem, exact
    values) of ``global_error``, which leaves the exact values as ``exact``
    returned them; ``norms0`` holds ||eps[:, 0]|| per point.
    """

    times: np.ndarray
    max_eps0: float
    norms0: np.ndarray
    source: Optional[tuple] = dataclasses.field(default=None, repr=False)

    @functools.cached_property
    def eps(self) -> np.ndarray:
        traj, problem, x = self.source
        truth = [problem.derivative(i)(x) for i in range(traj.q + 1)]
        return traj.means() - np.stack(truth, axis=1)

    @functools.cached_property
    def h_norm_series(self) -> np.ndarray:
        traj = self.source[0]
        weights = traj.h ** np.arange(traj.q + 1, dtype=float)
        return np.sum(weights * np.linalg.norm(self.eps, axis=2), axis=1)


def global_error(traj: Trajectory, problem: IVProblem) -> ErrorSeries:
    """Errors m^(i)(nh) - x^(i)(nh) along the whole mesh, t = 0 included.

    The exact solution is evaluated once, at ``traj.times()``.  Only the
    value errors' norms are computed here, in the array g_0(x) returns (a
    copy where that is x itself or read-only): the value means are
    subtracted from it and it is squared in place, then summed per point.
    These are the bits of ``np.linalg.norm(values - g_0(x), axis=1)``, with
    no whole-mesh scratch beyond x and g_0(x).
    """
    if problem.exact is None:
        raise MissingExact(f"problem {problem.name!r} has no exact solution")
    times = traj.times()
    x = problem.exact(times)
    err = problem.derivative(0)(x)
    if np.may_share_memory(err, x) or not err.flags.writeable:
        err = err.copy()
    np.subtract(traj.initial.m[0], err[0], out=err[0])
    np.subtract(traj.m_post[:, 0], err[1:], out=err[1:])
    norms = np.sqrt(np.add.reduce(np.multiply(err, err, out=err), axis=1))
    return ErrorSeries(times, float(norms.max()), norms, (traj, problem, x))


def misalignment(traj: Trajectory, problem: IVProblem, i: int, at=slice(None)) -> np.ndarray:
    """||m^(i)(nh) - g_i(m^(0)(nh))|| at the mesh points the slice ``at`` selects, all by default.

    The i-th state misalignment: how far the filter's derivative estimate
    sits from the derivative the ODE implies at the current solution
    estimate.  Identically zero for i = 0.  A point's value is the same bits
    for every ``at``.
    """
    means = _at(traj.initial.m, traj.m_post, at)
    return _row_norms(means[:, i] - problem.derivative(i)(means[:, 0]))


@dataclasses.dataclass
class CredibleWidth:
    """Posterior standard deviations sqrt(P00) and calibration ratios, one row per mesh point."""

    times: np.ndarray
    widths: np.ndarray  # (points, d)
    ratios: Optional[np.ndarray]  # (points, d): |eps0| / width, 0/0 -> 1


def credible_width(
    traj: Trajectory, problem: Optional[IVProblem] = None, at=slice(None)
) -> CredibleWidth:
    """Width series of the posterior on the solution value, at the mesh points ``at`` selects.

    Ratios |eps0| / sqrt(P00) per dimension are included when a problem
    with an exact solution is supplied (0/0 counts as 1, the calibrated
    value of an exactly pinned state).  Every dimension shares the
    covariance, so sqrt(P00) is taken once per mesh point and repeated.  A
    point's values are the same bits for every ``at``.
    """
    times = traj.times()[at]
    P00 = _at(traj.initial.P[0, 0], traj.P00_post, at)
    widths = np.repeat(np.sqrt(P00)[:, None], traj.d, axis=1)
    ratios = None
    if problem is not None:
        if problem.exact is None:
            raise MissingExact(f"problem {problem.name!r} has no exact solution")
        abs_eps0 = np.abs(_at(traj.initial.m[0], traj.m_post[:, 0], at) - problem.exact(times))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = abs_eps0 / widths
        ratios[(abs_eps0 == 0.0) & (widths == 0.0)] = 1.0
    return CredibleWidth(times=times, widths=widths, ratios=ratios)


def _at(start: np.ndarray, steps: np.ndarray, at) -> np.ndarray:
    """The rows of ``start`` (t = 0) then ``steps`` that the slice ``at`` selects, and no others."""
    points = np.arange(len(steps) + 1)[at]
    rows = np.empty((len(points), *steps.shape[1:]))
    rows[points == 0] = start
    rows[points > 0] = steps[points[points > 0] - 1]
    return rows
