"""Benchmark initial value problems and a classical reference integrator.

Each problem bundles the vector field, the initial value, a horizon, a
closed-form solution, and analytic total derivatives of the solution map:
``derivatives[0]`` is the identity, ``derivatives[1]`` the vector field f,
and ``derivatives[i]`` the i-th total derivative obtained by the chain
rule along the flow.  The scalar problems have polynomial vector fields,
so the whole derivative chain is generated exactly by polynomial algebra;
the linear system uses matrix powers.

Closed-form solutions are validated at load time against the ODE by
finite differences, and ``reference_solve`` provides an independent RK4
oracle for anything a test does not want to trust.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import Polynomial

__all__ = [
    "IVProblem",
    "MissingDerivative",
    "OracleNotConverged",
    "PROBLEMS",
    "ReferenceSolution",
    "get_problem",
    "linear_rotation",
    "logistic",
    "reference_solve",
    "riccati",
]

#: Highest total derivative generated for the packaged problems (supports q <= 5).
DERIVATIVE_DEPTH = 6


class MissingDerivative(LookupError):
    """The problem does not supply the requested total derivative."""


class OracleNotConverged(RuntimeError):
    """The reference integrator's Richardson self-check exceeded 1e-8."""


@dataclasses.dataclass(frozen=True)
class IVProblem:
    """An autonomous IVP x' = f(x), x(0) = x0, on [0, T]."""

    name: str
    d: int
    f: Callable[[np.ndarray], np.ndarray]
    derivatives: tuple
    x0: np.ndarray
    T: float
    exact: Optional[Callable[[float], np.ndarray]] = None

    def derivative(self, i: int) -> Callable[[np.ndarray], np.ndarray]:
        """i-th total derivative map (0 = identity, 1 = f)."""
        if not 0 <= i < len(self.derivatives):
            raise MissingDerivative(
                f"problem {self.name!r} supplies derivatives up to order "
                f"{len(self.derivatives) - 1}, requested {i}"
            )
        return self.derivatives[i]

    @property
    def max_derivative(self) -> int:
        return len(self.derivatives) - 1

    def validate(self, probes: int = 100, fd_step: float = 1e-5) -> None:
        """Check the closed-form solution and the derivative chain.

        The exact solution must satisfy the ODE to 1e-8 under central
        differences, and derivatives[1] must coincide with f on the probe
        points.
        """
        if self.exact is None:
            return
        ts = np.linspace(fd_step, self.T - fd_step, probes)
        for t in ts:
            x = np.asarray(self.exact(t), dtype=float)
            dx = (np.asarray(self.exact(t + fd_step)) - np.asarray(self.exact(t - fd_step))) / (
                2.0 * fd_step
            )
            residual = np.linalg.norm(dx - self.f(x))
            if not residual <= 1e-8:
                raise ValueError(
                    f"exact solution of {self.name!r} violates the ODE at t={t:g} "
                    f"(residual {residual:.3e})"
                )
            if not np.allclose(self.derivative(1)(x), self.f(x), rtol=1e-12, atol=1e-12):
                raise ValueError(f"derivatives[1] of {self.name!r} differs from f at t={t:g}")


def _polynomial_problem(
    name: str,
    f_poly: Polynomial,
    x0: float,
    T: float,
    exact: Callable[[float], np.ndarray],
    depth: int = DERIVATIVE_DEPTH,
) -> IVProblem:
    """Scalar problem with a polynomial field; derivative chain is exact."""
    chain = [Polynomial([0.0, 1.0]), f_poly]
    for _ in range(2, depth + 1):
        chain.append(chain[-1].deriv() * f_poly)

    def as_map(poly):
        return lambda x: np.asarray(poly(np.asarray(x, dtype=float)), dtype=float).reshape(-1)

    problem = IVProblem(
        name=name,
        d=1,
        f=as_map(f_poly),
        derivatives=tuple(as_map(p) for p in chain),
        x0=np.array([x0]),
        T=T,
        exact=exact,
    )
    problem.validate()
    return problem


def logistic() -> IVProblem:
    """Logistic growth x' = 3 x (1 - x), x(0) = 0.1, on [0, 1.5]."""
    lam0, lam1, x0 = 3.0, 1.0, 0.1

    def exact(t: float) -> np.ndarray:
        e = math.exp(lam0 * t)
        return np.array([lam1 * x0 * e / (lam1 + x0 * (e - 1.0))])

    return _polynomial_problem(
        "logistic", Polynomial([0.0, lam0, -lam0 / lam1]), x0, 1.5, exact
    )


def riccati() -> IVProblem:
    """x' = -x^3 / 2, x(0) = 1, on [0, 1]; solution (t + 1)^(-1/2)."""

    def exact(t: float) -> np.ndarray:
        return np.array([(t + 1.0) ** -0.5])

    return _polynomial_problem("riccati", Polynomial([0.0, 0.0, 0.0, -0.5]), 1.0, 1.0, exact)


def linear_rotation() -> IVProblem:
    """Planar rotation x' = [[0, -pi], [pi, 0]] x, one revolution per two units."""
    rot = np.array([[0.0, -math.pi], [math.pi, 0.0]])
    powers = [np.linalg.matrix_power(rot, i) for i in range(DERIVATIVE_DEPTH + 1)]

    def exact(t: float) -> np.ndarray:
        return np.array([-math.sin(math.pi * t), math.cos(math.pi * t)])

    problem = IVProblem(
        name="linear",
        d=2,
        f=lambda x: rot @ np.asarray(x, dtype=float),
        derivatives=tuple(
            (lambda x, M=M: M @ np.asarray(x, dtype=float)) for M in powers
        ),
        x0=np.array([0.0, 1.0]),
        T=10.0,
        exact=exact,
    )
    problem.validate()
    return problem


PROBLEMS = {
    "logistic": logistic,
    "linear": linear_rotation,
    "riccati": riccati,
}


@functools.lru_cache(maxsize=None)
def get_problem(name: str) -> IVProblem:
    """The packaged problem ``name``, built and validated once per process.

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


@dataclasses.dataclass
class ReferenceSolution:
    """Dense RK4 solution table with cubic Hermite interpolation."""

    ts: np.ndarray
    xs: np.ndarray
    fs: np.ndarray
    richardson_error: float

    def __call__(self, t: float) -> np.ndarray:
        ts, xs, fs = self.ts, self.xs, self.fs
        if not ts[0] <= t <= ts[-1]:
            raise ValueError(f"t={t:g} outside the table range [{ts[0]:g}, {ts[-1]:g}]")
        k = min(int(np.searchsorted(ts, t, side="right")) - 1, len(ts) - 2)
        k = max(k, 0)
        h = ts[k + 1] - ts[k]
        s = (t - ts[k]) / h
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        return h00 * xs[k] + h10 * h * fs[k] + h01 * xs[k + 1] + h11 * h * fs[k + 1]


def _rk4_table(f, x0: np.ndarray, T: float, n_steps: int):
    h = T / n_steps
    xs = np.empty((n_steps + 1, len(x0)))
    xs[0] = x0
    x = np.array(x0, dtype=float)
    for n in range(n_steps):
        k1 = f(x)
        k2 = f(x + 0.5 * h * k1)
        k3 = f(x + 0.5 * h * k2)
        k4 = f(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        xs[n + 1] = x
    return np.linspace(0.0, T, n_steps + 1), xs


def reference_solve(problem: IVProblem, h_ref: float) -> ReferenceSolution:
    """Fixed-step RK4 oracle at step h_ref, self-checked by Richardson.

    Runs at h_ref and h_ref/2 and compares on the shared nodes; the
    discrepancy is reported on the result and must come in below 1e-8 for
    the table to count as an oracle (OracleNotConverged otherwise).  The
    finer run backs the returned table.
    """
    if not h_ref > 0.0:
        raise ValueError("h_ref must be positive")
    if h_ref > 1e-4 * problem.T:
        raise ValueError(f"h_ref must be <= 1e-4 * T = {1e-4 * problem.T:g}")
    n_steps = int(round(problem.T / h_ref))
    x0 = np.asarray(problem.x0, dtype=float)
    _, coarse = _rk4_table(problem.f, x0, problem.T, n_steps)
    ts, fine = _rk4_table(problem.f, x0, problem.T, 2 * n_steps)
    with np.errstate(invalid="ignore"):
        estimate = float(np.max(np.linalg.norm(coarse - fine[::2], axis=1)))
    if not estimate < 1e-8:
        raise OracleNotConverged(
            f"Richardson estimate {estimate:.3e} for {problem.name!r} at h_ref={h_ref:g} "
            "exceeds 1e-8"
        )
    fs = np.stack([problem.f(x) for x in fine])
    return ReferenceSolution(ts=ts, xs=fine, fs=fs, richardson_error=estimate)
