"""Benchmark initial value problems with exact solutions and derivative chains.

Each problem bundles the vector field, the initial value, a horizon, a
closed-form solution, and analytic total derivatives of the solution map:
``derivatives[0]`` is the identity, ``derivatives[1]`` the vector field f,
and ``derivatives[i]`` the i-th total derivative obtained by the chain
rule along the flow.  The scalar problems have polynomial vector fields,
so the whole derivative chain is generated exactly from coefficient arrays
(g_i = g_{i-1}' f: a derivative's coefficients, then a convolution); the
linear system uses matrix powers.

``f`` and each derivative map take a stack of states ``(..., d)`` to the same
shape, pointwise (each packaged problem's ``f`` is its ``derivatives[1]``), so
a sweep evaluates the field of all its cells in one call; ``exact`` maps times
``(N,)`` to ``(N, d)``.  ``exact`` maps ``math`` over each column: numpy's
vectorized transcendentals may round differently, while a product or sum it
forms on the way is the same float64 operation as Python's.  It runs in
chunks of ``_CHUNK`` points, so that the Python floats it makes never span
the whole mesh.

The tests check each closed-form solution against the ODE by finite
differences, and against an independent RK4 oracle (``tests/oracles.py``).
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable, Optional

import numpy as np

__all__ = [
    "IVProblem",
    "MissingDerivative",
    "PROBLEMS",
    "get_problem",
    "linear_rotation",
    "logistic",
    "riccati",
]

#: Highest total derivative generated for the packaged problems (supports q <= 5).
DERIVATIVE_DEPTH = 6

#: Points per chunk of a packaged ``exact`` map.
_CHUNK = 1024


class MissingDerivative(LookupError):
    """The problem does not supply the requested total derivative."""


@dataclasses.dataclass(frozen=True)
class IVProblem:
    """An autonomous IVP x' = f(x), x(0) = x0, on [0, T]."""

    name: str
    d: int
    f: Callable[[np.ndarray], np.ndarray]  # maps (..., d) -> (..., d)
    derivatives: tuple  # maps (..., d) -> (..., d)
    x0: np.ndarray
    T: float
    exact: Optional[Callable[[np.ndarray], np.ndarray]] = None  # times (N,) -> (N, d)

    def derivative(self, i: int) -> Callable[[np.ndarray], np.ndarray]:
        """i-th total derivative map (0 = identity, 1 = f)."""
        if not 0 <= i < len(self.derivatives):
            raise MissingDerivative(
                f"problem {self.name!r} supplies derivatives up to order "
                f"{len(self.derivatives) - 1}, requested {i}"
            )
        return self.derivatives[i]


def _horner(coef: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The polynomial with coefficients ``coef`` (lowest first) as a pointwise map on arrays.

    Runs numpy's Horner loop ``c0 = c[-1] + x * 0``, ``c0 = c[i] + c0 * x``
    of ``Polynomial.__call__``, bit for bit, without its per-call array
    set-up or its domain map ``0 + 1 x``, which changes only the sign of a
    zero x: then each ``c[i] + c0 * x`` adds a zero to c[i], the same bits
    for either sign unless c[i] is -0.0.
    """
    if np.signbit(coef[coef == 0.0]).any():
        raise ValueError("a polynomial map needs no -0.0 coefficient")
    *rest, last = coef.tolist()
    rest.reverse()

    def g(x):
        v = np.asarray(x, dtype=float)
        c0 = last + v * 0
        for c in rest:
            c0 = c + c0 * v
        return c0

    return g


def _trim(coef: np.ndarray) -> np.ndarray:
    """``coef`` without its trailing zeros, one coefficient kept at least."""
    nonzero = np.flatnonzero(coef)
    return coef[: nonzero[-1] + 1] if len(nonzero) else coef[:1]


def _derivative_chain(f: np.ndarray, depth: int) -> list:
    """The coefficients of g_0 = x, g_1 = f, ..., g_depth, where g_i = g_{i-1}' f.

    Each step is ``Polynomial.deriv`` then ``*`` on the coefficients
    (``polyder``'s ``j c[j]``, then ``polymul``'s ``np.convolve`` and trim),
    so for an f whose last coefficient is nonzero the chain equals
    ``Polynomial``'s bit for bit.
    """
    chain = [np.array([0.0, 1.0]), f]
    for _ in range(2, depth + 1):
        c = chain[-1]
        chain.append(_trim(np.convolve(c[1:] * np.arange(1, len(c)), f)))
    return chain


def _polynomial_problem(
    name: str,
    f_coef: list,
    x0: float,
    T: float,
    exact: Callable[[np.ndarray], np.ndarray],
    depth: int = DERIVATIVE_DEPTH,
) -> IVProblem:
    """Scalar problem with a polynomial field (coefficients lowest first); its chain is exact."""
    derivatives = tuple(_horner(c) for c in _derivative_chain(np.array(f_coef), depth))
    return IVProblem(
        name=name,
        d=1,
        f=derivatives[1],
        derivatives=derivatives,
        x0=np.array([x0]),
        T=T,
        exact=exact,
    )


def _in_chunks(d: int, exact_chunk: Callable[[np.ndarray], np.ndarray]):
    """The ``exact`` map, times (N,) to (N, d), that calls ``exact_chunk`` on ``_CHUNK`` times."""

    def exact(ts: np.ndarray) -> np.ndarray:
        out = np.empty((len(ts), d))
        for start in range(0, len(ts), _CHUNK):
            out[start : start + _CHUNK] = exact_chunk(ts[start : start + _CHUNK])
        return out

    return exact


def logistic() -> IVProblem:
    """Logistic growth x' = 3 x (1 - x), x(0) = 0.1, on [0, 1.5]."""
    lam0, lam1, x0 = 3.0, 1.0, 0.1

    def exact(ts: np.ndarray) -> np.ndarray:
        e = np.fromiter(map(math.exp, (lam0 * ts).tolist()), float, len(ts))[:, None]
        return lam1 * x0 * e / (lam1 + x0 * (e - 1.0))

    return _polynomial_problem(
        "logistic", [0.0, lam0, -lam0 / lam1], x0, 1.5, _in_chunks(1, exact)
    )


def riccati() -> IVProblem:
    """x' = -x^3 / 2, x(0) = 1, on [0, 1]; solution (t + 1)^(-1/2)."""

    def exact(ts: np.ndarray) -> np.ndarray:
        return np.array([(t + 1.0) ** -0.5 for t in ts.tolist()])[:, None]

    return _polynomial_problem("riccati", [0.0, 0.0, 0.0, -0.5], 1.0, 1.0, _in_chunks(1, exact))


def linear_rotation() -> IVProblem:
    """Planar rotation x' = [[0, -pi], [pi, 0]] x, one revolution per two units."""
    rot = np.array([[0.0, -math.pi], [math.pi, 0.0]])
    powers = [np.linalg.matrix_power(rot, i) for i in range(DERIVATIVE_DEPTH + 1)]

    def exact(ts: np.ndarray) -> np.ndarray:
        angles = (math.pi * ts).tolist()
        sin, cos = (np.fromiter(map(g, angles), float, len(ts)) for g in (math.sin, math.cos))
        return np.column_stack((-sin, cos))

    # Every power of the rotation has one nonzero per row (the other entry
    # is +0.0), so each entry of x @ M.T is one product plus a signed zero:
    # bit-equal to M @ x point by point, in any order.
    derivatives = tuple((lambda x, M=M: np.asarray(x, dtype=float) @ M.T) for M in powers)

    return IVProblem(
        name="linear",
        d=2,
        f=derivatives[1],
        derivatives=derivatives,
        x0=np.array([0.0, 1.0]),
        T=10.0,
        exact=_in_chunks(2, exact),
    )


PROBLEMS = {
    "logistic": logistic,
    "linear": linear_rotation,
    "riccati": riccati,
}


@functools.lru_cache(maxsize=None)
def get_problem(name: str) -> IVProblem:
    """The packaged problem ``name``, built once per process.

    Every call with the same name returns the same instance, so its ``x0``
    is made read-only.
    """
    try:
        factory = PROBLEMS[name]
    except KeyError:
        known = ", ".join(sorted(PROBLEMS))
        raise KeyError(f"unknown problem {name!r}; known problems: {known}") from None
    problem = factory()
    problem.x0.setflags(write=False)
    return problem
