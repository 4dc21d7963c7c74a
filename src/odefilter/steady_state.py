"""Steady states of the q = 1 covariance/gain recursion.

For q = 1 the covariance recursion decouples from the data and follows a
discrete algebraic Riccati equation.  Its velocity block and the gains
converge to unique attractive fixed points with closed forms in
(h, sigma, R); the position variance has no fixed point (that state is
undetectable) and is deliberately excluded.  ``orbit_limit`` iterates
the covariance recursion ``solve`` runs, as a numerical oracle for the
closed forms (from a zero start the orbit is a q = 1 solve's covariance
track bit for bit), and ``verify_order_bounds`` runs the same recursion
to measure the h-orders of the maximal covariance/gain quantities
against the predicted exponents for a power-law noise model R = K_R h^p.

``verify_order_bounds`` reads the orbits of its whole h grid from zero
(``order_bound_prefixes``): one stacked pass (``filtering.covariance_prefixes``)
runs them side by side, each over the grid's longest mesh, up to its first
repeated closed block P[:, 1:]: every tracked quantity repeats with it (see
``filtering``), so nothing after that step can change a maximum.
``orbit_limit`` reads an orbit from such a prefix, whose rows are the
orbit's first steps bit for bit: if it ends on a repeat, one more period
follows, and the first step whose changes are all below tol, or the end of
that period or of the prefix, decides the outcome.  An orbit with no prefix,
or whose prefix the longest mesh cut short, runs a prefix of its own.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Sequence

import numpy as np

from . import filtering
from .noise import PowerLawNoise
from .priors import ibm_transition

__all__ = [
    "InsufficientGrid",
    "OrbitCycle",
    "OrbitUnsettled",
    "ORDER_BOUND_QUANTITIES",
    "OrderBoundFit",
    "SteadyState",
    "closed_form",
    "orbit_limit",
    "order_bound_prefixes",
    "predicted_exponent",
    "verify_order_bounds",
]


class InsufficientGrid(ValueError):
    """The step-size grid is too small or too narrow for a slope fit."""


class OrbitCycle(RuntimeError):
    """The orbit repeats exactly with a period whose swing never falls below tol."""

    def __init__(self, period: int, spread: float, tol: float):
        super().__init__(
            f"orbit cycles with period {period} and swings by {spread:.3g}, "
            f"so it never settles below tol = {tol:g}"
        )
        self.period = period
        self.spread = spread


class OrbitUnsettled(RuntimeError):
    """The orbit has neither settled nor been shown to cycle within max_steps steps."""

    def __init__(self, max_steps: int):
        super().__init__(f"orbit did not settle within {max_steps} iterations")
        self.max_steps = max_steps


_SINGULAR = "singular innovation: P_pred[1, 1] + R = 0"


@dataclasses.dataclass(frozen=True)
class SteadyState:
    """Fixed point of the q = 1 covariance/gain recursion."""

    P11_pred: float
    P11: float
    P01_pred: float
    P01: float
    beta0: float
    beta1: float
    h: float
    sigma: float
    R: float


def closed_form(h: float, sigma: float, R: float) -> SteadyState:
    """Evaluate the closed-form steady states.

    With s = sigma^2 h and root = sqrt(4 sigma^2 R h + sigma^4 h^2):

        P11_pred = (s + root) / 2
        P11      = (s + root) R / (s + root + 2R)
        P01_pred = (s^2 + (2R + s) root + 4 R s) h / (2 (s + root))
        P01      = R root h / (s + root)
        beta0    = root h / (s + root)
        beta1    = (s + root) / (s + root + 2R)

    Raises ValueError, not OverflowError, where a float power overflows
    (sigma or h far too large), and for an infinite R.
    """
    if not (h > 0.0 and sigma > 0.0):
        raise ValueError("h and sigma must be positive")
    if not R >= 0.0:
        raise ValueError("R must be non-negative")
    _finite(h, R)
    try:
        s = sigma**2 * h
        root = math.sqrt(4.0 * sigma**2 * R * h + sigma**4 * h**2)
    except OverflowError:
        raise ValueError(f"the closed form overflows at h = {h:g}") from None
    return SteadyState(
        P11_pred=0.5 * (s + root),
        P11=(s + root) * R / (s + root + 2.0 * R),
        P01_pred=(s**2 + (2.0 * R + s) * root + 4.0 * R * s) / (2.0 * (s + root)) * h,
        P01=R * root / (s + root) * h,
        beta0=root / (s + root) * h,
        beta1=(s + root) / (s + root + 2.0 * R),
        h=h,
        sigma=sigma,
        R=R,
    )


def orbit_limit(
    h: float,
    sigma: float,
    R: float,
    tol: float = 1e-13,
    max_steps: int = 200_000,
    prefix: Optional[filtering.CovarianceTrack] = None,
) -> SteadyState:
    """Iterate the covariance pass from zero until the six tracked quantities settle below tol.

    Returns the first step whose changes are all below tol.  Raises
    OrbitCycle once the orbit has repeated a state and then run one full
    period without settling (it never will), SingularInnovation if it
    reaches a singular innovation first, and OrbitUnsettled if it has not
    settled after ``max_steps`` steps; an infinite R raises ValueError at once.

    The orbit is read from a prefix (see the module docstring): ``prefix``,
    this orbit's zero-start entry of ``order_bound_prefixes``, or, where
    there is none or its bound cut it before a repeat or a singular step, a
    prefix of its own over at most ``max_steps`` steps.
    """
    _finite(h, R)
    if prefix is None or (prefix.first is None and not prefix.singular):
        start = [ibm_transition(1, sigma, h)], [R], [np.zeros((2, 2))], [max_steps]
        (prefix,) = filtering.covariance_prefixes(*start)
    P_pred, P, beta = prefix.P_pred, prefix.P_post, prefix.beta
    n = len(beta)
    # After a repeat of step i at step n - 1, steps i + 1, ..., n - 1 over again.
    period = 0 if prefix.first is None else n - 1 - prefix.first
    # One row per step, one column per quantity, in SteadyState order.
    rows = np.empty((min(n + period, max_steps), 6))
    columns = (P_pred[:, 1, 1], P[:, 1, 1], P_pred[:, 0, 1], P[:, 0, 1], beta[:, 0], beta[:, 1])
    for column, values in enumerate(columns):
        rows[:n, column] = values[: len(rows)]
    rows[n:] = rows[n - period : len(rows) - period]
    with np.errstate(over="ignore", invalid="ignore"):
        # Settled when every change is below tol (a NaN change never is).
        settled = (abs(np.diff(rows, axis=0)) < tol).all(axis=1)
    if settled.any():
        return SteadyState(*rows[1 + settled.argmax()].tolist(), h=h, sigma=sigma, R=R)
    if period and len(rows) == len(beta) + period:
        raise OrbitCycle(period, float(np.ptp(rows[-period:], axis=0).max()), tol)
    if prefix.singular and len(rows) < max_steps:
        raise filtering.SingularInnovation(_SINGULAR)
    raise OrbitUnsettled(max_steps)


def _finite(h: float, R: float) -> float:
    """R, refused if infinite: every gain is then 0, no orbit settles and the closed form is NaN."""
    if math.isinf(R):
        raise ValueError(f"R must be finite, not {R!r} at h = {h!r}")
    return R


ORDER_BOUND_QUANTITIES = ("P11_pred", "P11", "abs_P01", "abs_beta0", "one_minus_beta1")


def predicted_exponent(quantity: str, p: float) -> float:
    """Predicted h-order of the maximal quantity under R = K_R h^p."""
    if quantity == "P11_pred":
        return min(1.0, (p + 1.0) / 2.0)
    if quantity == "P11":
        return max(p, (p + 1.0) / 2.0)
    if quantity == "abs_P01":
        return p + 1.0
    if quantity == "abs_beta0":
        return 1.0
    if quantity == "one_minus_beta1":
        return max(p - 1.0, 0.0)
    raise KeyError(f"unknown quantity {quantity!r}")


@dataclasses.dataclass
class OrderBoundFit:
    """Measured h-order of one maximal covariance/gain quantity."""

    quantity: str
    predicted: float
    fitted: Optional[float]
    exact_zero: bool
    max_values: np.ndarray


#: Horizon of each order-bound orbit, and how many of the largest steps a fit
#: drops as pre-asymptotic.
ORDER_BOUND_T = 1.0
ORDER_BOUND_DROP_LARGEST = 1


def order_bound_prefixes(h_grid: Sequence[float], sigma: float, p: float, K_R: float) -> list:
    """Each h's orbit from a zero start, over the grid's longest mesh.

    Checks the grid and refuses an infinite R, then returns each h's orbit
    as a prefix, up to its first repeated closed block, its first singular
    innovation or the grid's longest mesh, round(ORDER_BOUND_T/h) steps at
    the least h, whichever comes first, from one stacked pass of the grid.
    ``verify_order_bounds`` takes its maxima over these, each cut to its own
    mesh, and ``orbit_limit`` reads each orbit from its entry.
    """
    hs, noise = _checked_grid(h_grid), PowerLawNoise(K_R=K_R, p=p)
    steps = round(ORDER_BOUND_T / hs[-1])
    passes = [
        (ibm_transition(1, sigma, h), _finite(h, noise.evaluate(h)), np.zeros((2, 2)), steps)
        for h in hs
    ]
    return filtering.covariance_prefixes(*zip(*passes))


def _checked_grid(h_grid: Sequence[float]) -> list:
    hs = [float(h) for h in h_grid]
    if len(hs) < 4:
        raise InsufficientGrid("need at least 4 step sizes")
    if any(a <= b for a, b in zip(hs, hs[1:])):
        raise InsufficientGrid("step sizes must be strictly decreasing")
    if hs[0] / hs[-1] < 100.0:
        raise InsufficientGrid("step sizes must span at least 2 decades")
    return hs


def verify_order_bounds(
    h_grid: Sequence[float], sigma: float, p: float, K_R: float, prefixes: Optional[list] = None
) -> list:
    """Fit the h-orders of max-over-mesh covariance/gain quantities.

    For each h the recursion runs from a zero start over the mesh of
    round(ORDER_BOUND_T/h) steps, the five bounded quantities are maximized
    over it, and a log-log line is fitted over the grid (the largest
    ``ORDER_BOUND_DROP_LARGEST`` steps are excluded as pre-asymptotic).
    Quantities that vanish identically (R = 0) are flagged exact_zero
    instead of fitted.

    The passes of the whole grid run side by side, as one stack
    (``order_bound_prefixes``, or ``prefixes`` if the caller has built
    them).  Each stops at the first step whose closed block repeats that
    of an earlier step, or at the end of the longest mesh if that comes
    first, and each h takes its maxima over its first round(ORDER_BOUND_T/h)
    rows.  Every later step of the mesh would repeat one of the steps
    already run (see the module docstring), and a maximum does not depend
    on order, so the maxima equal those over the whole mesh bit for bit.
    """
    hs = _checked_grid(h_grid)
    if prefixes is None:
        prefixes = order_bound_prefixes(hs, sigma, p, K_R)
    maxima = np.empty((len(hs), len(ORDER_BOUND_QUANTITIES)))
    for row, (h, prefix) in enumerate(zip(hs, prefixes)):
        n = round(ORDER_BOUND_T / h)
        if prefix.singular and len(prefix.rows) < n:
            raise filtering.SingularInnovation(f"h = {h!r}: {_SINGULAR}")
        P_pred, P, beta = prefix.P_pred[:n], prefix.P_post[:n], prefix.beta[:n]
        # One column per ORDER_BOUND_QUANTITIES entry.
        columns = (
            P_pred[:, 1, 1], P[:, 1, 1], abs(P[:, 0, 1]), abs(beta[:, 0]), abs(1.0 - beta[:, 1])
        )
        maxima[row] = [values.max() for values in columns]
    fits = []
    keep = slice(ORDER_BOUND_DROP_LARGEST, None)
    for col, quantity in enumerate(ORDER_BOUND_QUANTITIES):
        values = maxima[:, col]
        if np.all(values == 0.0):
            fitted = None
            exact_zero = True
        elif np.any(values[keep] <= 0.0):
            fitted = None
            exact_zero = False
        else:
            fitted = float(np.polyfit(np.log(hs[keep]), np.log(values[keep]), 1)[0])
            exact_zero = False
        fits.append(
            OrderBoundFit(
                quantity=quantity,
                predicted=predicted_exponent(quantity, p),
                fitted=fitted,
                exact_zero=exact_zero,
                max_values=values,
            )
        )
    return fits
