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
    values) of ``global_error``; ``norms0`` holds ||eps[:, 0]|| per point.
    """

    times: np.ndarray
    max_eps0: float
    norms0: np.ndarray
    source: Optional[tuple] = dataclasses.field(default=None, repr=False)

    def eps0_norms(self) -> np.ndarray:
        return self.norms0

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


def global_error(
    traj: Trajectory, problem: IVProblem, x: Optional[np.ndarray] = None
) -> ErrorSeries:
    """Errors m^(i)(nh) - x^(i)(nh) along the whole mesh, t = 0 included.

    ``x``, the exact solution at ``traj.times()``, is evaluated here unless
    the caller has it.  Only the value errors' norms are computed here.
    """
    if problem.exact is None:
        raise MissingExact(f"problem {problem.name!r} has no exact solution")
    times = traj.times()
    if x is None:
        x = problem.exact(times)
    norms = np.linalg.norm(traj.means()[:, 0] - problem.derivative(0)(x), axis=1)
    return ErrorSeries(times, float(norms.max()), norms, (traj, problem, x))


def misalignment(traj: Trajectory, problem: IVProblem, i: int, at=slice(None)) -> np.ndarray:
    """||m^(i)(nh) - g_i(m^(0)(nh))|| at the mesh points the slice ``at`` selects, all by default.

    The i-th state misalignment: how far the filter's derivative estimate
    sits from the derivative the ODE implies at the current solution
    estimate.  Identically zero for i = 0.  A point's value is the same bits
    for every ``at``.
    """
    means = traj.means()[at]
    return _row_norms(means[:, i] - problem.derivative(i)(means[:, 0]))


@dataclasses.dataclass
class CredibleWidth:
    """Posterior standard deviations sqrt(P00) and calibration ratios."""

    times: np.ndarray
    widths: np.ndarray  # (N+1, d)
    ratios: Optional[np.ndarray]  # (N+1, d): |eps0| / width, 0/0 -> 1

    def max_width(self) -> float:
        return float(np.linalg.norm(self.widths, axis=1).max())


def credible_width(traj: Trajectory, problem: Optional[IVProblem] = None) -> CredibleWidth:
    """Width series of the posterior on the solution value.

    Ratios |eps0| / sqrt(P00) per dimension are included when a problem
    with an exact solution is supplied (0/0 counts as 1, the calibrated
    value of an exactly pinned state).  Every dimension shares the
    covariance, so sqrt(P00) is taken once per mesh point and repeated.
    """
    times = traj.times()
    P00 = np.concatenate((traj.initial.P[:1, 0], traj.P00_post))
    widths = np.repeat(np.sqrt(P00)[:, None], traj.d, axis=1)
    ratios = None
    if problem is not None:
        if problem.exact is None:
            raise MissingExact(f"problem {problem.name!r} has no exact solution")
        abs_eps0 = np.abs(traj.means()[:, 0, :] - problem.exact(times))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = abs_eps0 / widths
        ratios[(abs_eps0 == 0.0) & (widths == 0.0)] = 1.0
    return CredibleWidth(times=times, widths=widths, ratios=ratios)
