"""Gauss-Markov process priors and their exact one-step transitions.

The solver models the IVP solution and its first ``q`` derivatives as a
``q``-times integrated Brownian motion (IBM) or integrated
Ornstein-Uhlenbeck process (IOUP).  Both are linear SDEs with a companion
drift matrix, so the state mean and covariance propagate over a step ``h``
through an exact matrix pair ``(A(h), Q(h))``:

    m(t + h) = A(h) m(t),        P(t + h) = A(h) P(t) A(h)^T + Q(h).

This module builds the continuous-time model (drift ``F``, diffusion ``L``)
and the discrete pair: IBM uses its polynomial closed form, and every other
prior the generic ``lti_transition`` (a Van Loan block exponential over a
short step, then exact doubling).  It also exposes a quadrature-based
oracle used to cross-check both, and extends the model to coupled output
dimensions via Kronecker products.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np

__all__ = [
    "IBM",
    "IOUP",
    "DimensionMismatch",
    "MultiDimDrift",
    "PriorSpec",
    "TransitionModel",
    "companion_matrix",
    "ibm_transition",
    "ioup_transition",
    "kron_extend",
    "lti_transition",
    "transition_oracle",
]

IBM = "ibm"
IOUP = "ioup"


class DimensionMismatch(ValueError):
    """Kronecker factor matrices disagree in size."""


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
        """Companion drift F of the prior SDE."""
        a = [0.0] * self.q + [-self.theta]
        return companion_matrix(self.q, a)

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
    """Discrete-time transition pair (A, Q) for a fixed step size h."""

    h: float
    A: np.ndarray
    Q: np.ndarray


@dataclasses.dataclass(frozen=True)
class MultiDimDrift:
    """Kronecker-coupled drift/diffusion for dependent output dimensions."""

    Kx: np.ndarray
    Keps: np.ndarray
    F_big: np.ndarray
    L_big: np.ndarray


def companion_matrix(q: int, a: Sequence[float]) -> np.ndarray:
    """Companion matrix: ones on the superdiagonal, ``a`` as last row."""
    if q < 0:
        raise ValueError("q must be non-negative")
    a = np.asarray(a, dtype=float)
    if a.shape != (q + 1,):
        raise ValueError(f"a must have length q+1 = {q + 1}, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("a must be finite")
    F = np.zeros((q + 1, q + 1))
    for i in range(q):
        F[i, i + 1] = 1.0
    F[q, :] = a
    return F


def ibm_transition(q: int, sigma: float, h: float) -> TransitionModel:
    """Exact (A, Q) for the q-times integrated Brownian motion.

    A is the Taylor/Pascal matrix; Q has the polynomial closed form
    ``Q_ij = sigma^2 h^(2q+1-i-j) / ((2q+1-i-j) (q-i)! (q-j)!)``.
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


def ioup_transition(q: int, theta: float, sigma: float, h: float) -> TransitionModel:
    """(A, Q) for the q-times integrated Ornstein-Uhlenbeck process.

    A thin caller of ``lti_transition`` on the IOUP drift and diffusion.
    """
    return PriorSpec(q, IOUP, theta, sigma).transition(h)


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

    Raises ValueError if (A, Q) is not finite (h |F| far too large).
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
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(Q))):
        raise ValueError(f"(A, Q) overflows at h = {h:g}")
    return TransitionModel(h=h, A=A, Q=Q)


def transition_oracle(
    F: np.ndarray, L: np.ndarray, sigma: float, h: float, nodes: int = 50
) -> TransitionModel:
    """Numerical (A, Q) straight from the SDE definition; test oracle only.

    A = expm(h F), and Q integrates expm(F(h-tau)) sigma^2 L L^T
    expm(F(h-tau))^T over [0, h] with Gauss-Legendre quadrature.  The
    default 50 nodes are exact for the polynomial IBM integrand up to
    q = 4 and converged for IOUP at the tested theta*h <= 5.  This path is
    deliberately independent of the closed form and of the Van Loan block
    above; it shares only ``_expm``.
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
