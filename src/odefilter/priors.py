"""Gauss-Markov process priors and their exact one-step transitions.

The solver models the IVP solution and its first ``q`` derivatives as a
``q``-times integrated Brownian motion (IBM) or integrated
Ornstein-Uhlenbeck process (IOUP).  Both are linear SDEs with a companion
drift matrix, so the state mean and covariance propagate over a step ``h``
through an exact matrix pair ``(A(h), Q(h))``:

    m(t + h) = A(h) m(t),        P(t + h) = A(h) P(t) A(h)^T + Q(h).

``PriorSpec`` holds the continuous-time model (drift ``F``, diffusion
``L``), and ``PriorSpec.transition`` builds the discrete pair from it:
IBM uses its polynomial closed form, and every other prior the generic
``lti_transition`` (a Van Loan block exponential over a short step, then
exact doubling).  The quadrature oracle that cross-checks both lives with
the tests (``tests/oracles.py``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import math

import numpy as np

__all__ = [
    "IBM",
    "IOUP",
    "PriorSpec",
    "TransitionModel",
    "ibm_transition",
    "lti_transition",
]

IBM = "ibm"
IOUP = "ioup"


@dataclasses.dataclass(frozen=True)
class PriorSpec:
    """Hyperparameters of the Gauss-Markov prior.

    ``q`` is the number of modeled derivatives, ``kind`` selects IBM
    (``theta`` must be 0) or IOUP (``theta`` > 0), and ``sigma`` scales the
    driving Brownian motion.
    """

    q: int
    kind: str = IBM
    theta: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        if self.q < 0:
            raise ValueError(f"q must be a non-negative integer, got {self.q}")
        if self.kind not in (IBM, IOUP):
            raise ValueError(f"kind must be {IBM!r} or {IOUP!r}, got {self.kind!r}")
        if self.kind == IBM and self.theta != 0.0:
            raise ValueError("IBM prior requires theta = 0")
        if self.kind == IOUP and not self.theta > 0.0:
            raise ValueError("IOUP prior requires theta > 0")
        if not self.sigma > 0.0:
            raise ValueError("sigma must be positive")

    def drift_matrix(self) -> np.ndarray:
        """Companion drift F of the prior SDE: ones on the superdiagonal, F_qq = -theta."""
        F = np.eye(self.q + 1, k=1)
        F[self.q, self.q] = -self.theta
        return F

    def diffusion_vector(self) -> np.ndarray:
        """Diffusion column L: sigma acts on the top derivative only."""
        L = np.zeros(self.q + 1)
        L[self.q] = 1.0
        return L

    def transition(self, h: float) -> "TransitionModel":
        """(A, Q) for a step of size h: IBM in closed form, others by Van Loan."""
        if self.kind == IBM:
            return ibm_transition(self.q, self.sigma, h)
        return lti_transition(self.drift_matrix(), self.diffusion_vector(), self.sigma, h)


@dataclasses.dataclass(frozen=True)
class TransitionModel:
    """Discrete-time transition pair (A, Q) for a fixed step size h.

    ``filtering.covariance_prefixes`` stacks the pairs of several cells along
    a leading cell axis of h, A and Q.
    """

    h: float
    A: np.ndarray
    Q: np.ndarray


def _finite(transition):
    """Raise ValueError, not OverflowError or a non-finite pair, where (A, Q) overflows."""

    @functools.wraps(transition)
    def checked(*args, **kwargs) -> TransitionModel:
        with contextlib.suppress(OverflowError):  # a float power, such as sigma**2
            tm = transition(*args, **kwargs)
            if np.isfinite(tm.A).all() and np.isfinite(tm.Q).all():
                return tm
        h = inspect.signature(transition).bind(*args, **kwargs).arguments["h"]
        raise ValueError(f"(A, Q) overflows at h = {h:g}")

    return checked


@_finite
def ibm_transition(q: int, sigma: float, h: float) -> TransitionModel:
    """Exact (A, Q) for the q-times integrated Brownian motion.

    A is the Taylor/Pascal matrix; Q has the polynomial closed form
    ``Q_ij = sigma^2 h^(2q+1-i-j) / ((2q+1-i-j) (q-i)! (q-j)!)``.

    Raises ValueError if (A, Q) is not finite (sigma or h far too large).
    """
    _check_step(sigma, h)
    n = q + 1
    A = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            A[i, j] = h ** (j - i) / math.factorial(j - i)
    Q = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            k = 2 * q + 1 - i - j
            Q[i, j] = sigma**2 * h**k / (k * math.factorial(q - i) * math.factorial(q - j))
    return TransitionModel(h=h, A=A, Q=Q)


@_finite
def lti_transition(F: np.ndarray, L: np.ndarray, sigma: float, h: float) -> TransitionModel:
    """(A, Q) for the linear time-invariant SDE dx = F x dt + sigma L dW.

    Van Loan (1978): the block exponential of ``[[F, L L^T], [0, -F^T]] tau``
    holds ``A(tau)`` and ``Q(tau) A(tau)^(-T)``.  Over a whole step the
    ``-F^T`` block grows like ``exp(|F| h)`` and forming Q from it cancels,
    so the unit-sigma block is only exponentiated over a short step
    ``tau = h / 2^s`` that brings its 1-norm below 1/4 (``_expm`` then does
    no squaring), and the pair is doubled s times, ``Q <- A Q A^T + Q``,
    ``A <- A A``.  For companion drifts with non-negative off-diagonal
    entries (IBM, IOUP) A and Q are entrywise non-negative, so doubling
    only adds non-negative terms and keeps every entry to float64 relative
    accuracy.  Q is built for unit sigma and scaled by sigma^2 at the end,
    so sigma never sets s.

    Raises ValueError if (A, Q) is not finite (sigma or h |F| far too large).
    """
    _check_step(sigma, h)
    F = np.asarray(F, dtype=float)
    n = F.shape[0]
    L = np.asarray(L, dtype=float).reshape(n, -1)
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = F
    block[:n, n:] = L @ L.T
    block[n:, n:] = -F.T
    norm = h * float(np.max(np.sum(np.abs(block), axis=0)))
    if not math.isfinite(norm):
        raise ValueError(f"step h = {h:g} is too large for this drift")
    s = max(0, math.frexp(norm)[1] + 2)  # norm / 2^s < 1/4, exactly
    E = _expm(block * math.ldexp(h, -s))
    A = E[:n, :n]
    Q = E[:n, n:] @ A.T
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            Q = A @ Q @ A.T + Q
            A = A @ A
        Q = sigma**2 * (0.5 * (Q + Q.T))
    return TransitionModel(h=h, A=A, Q=Q)


def _check_step(sigma: float, h: float) -> None:
    if not h > 0.0:
        raise ValueError("h must be positive")
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")


def _expm(M: np.ndarray) -> np.ndarray:
    """Matrix exponential of a (stack of) small matrices.

    Scaling-and-squaring with a Taylor polynomial.  After scaling the
    1-norm below 0.25 the k-th term is below 0.25^k / k!, and terms are
    summed until one no longer changes any entry, so the tiny entries of a
    Van Loan block on a short step keep their float64 relative accuracy
    (a fixed degree would only bound the error relative to the norm).
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[-1]
    norm = float(np.max(np.sum(np.abs(M), axis=-2))) if M.size else 0.0
    squarings = max(0, math.ceil(math.log2(norm / 0.25))) if norm > 0.25 else 0
    X = M / 2.0**squarings
    eye = np.broadcast_to(np.eye(n), M.shape).copy()
    result = eye.copy()
    term = eye
    for k in range(1, 200):  # the terms underflow to zero long before k = 200
        term = term @ X / k
        updated = result + term
        if np.array_equal(updated, result):
            break
        result = updated
    for _ in range(squarings):
        result = result @ result
    return result
