"""Measurement-variance models for the derivative data y = f(m_pred).

A run evaluates its model once for the chosen step size; R stays constant
along the mesh.  The power law ``R = K_R * h**p`` (with ``h**inf`` taken as
0) is the family the convergence analysis is parameterized by: p >= q is
the permissible regime, and the benchmarks deliberately cross that line.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Union

__all__ = [
    "ConstantNoise",
    "NoiseModel",
    "PowerLawNoise",
    "ZeroNoise",
    "parse_noise",
]


@dataclasses.dataclass(frozen=True)
class ZeroNoise:
    """Noiseless data: R = 0."""

    def evaluate(self, h: float) -> float:
        return 0.0

    @property
    def p(self) -> float:
        return math.inf

    @property
    def K_R(self) -> float:
        return 0.0


@dataclasses.dataclass(frozen=True)
class ConstantNoise:
    """Fixed variance R independent of the step size."""

    R: float

    def __post_init__(self):
        if not self.R >= 0.0:
            raise ValueError("R must be non-negative")

    def evaluate(self, h: float) -> float:
        return self.R

    @property
    def p(self) -> float:
        return math.inf if self.R == 0.0 else 0.0

    @property
    def K_R(self) -> float:
        return self.R


@dataclasses.dataclass(frozen=True)
class PowerLawNoise:
    """R = K_R * h**p, with h**inf defined as 0."""

    K_R: float
    p: float

    def __post_init__(self):
        if not self.K_R >= 0.0:
            raise ValueError("K_R must be non-negative")
        if math.isnan(self.p) or self.p < 0.0:
            raise ValueError("p must lie in [0, inf]")

    def evaluate(self, h: float) -> float:
        if not h > 0.0:
            raise ValueError("h must be positive")
        if math.isinf(self.p):
            return 0.0
        return self.K_R * h**self.p


NoiseModel = Union[ZeroNoise, ConstantNoise, PowerLawNoise]


def parse_noise(spec: str) -> NoiseModel:
    """Parse the CLI syntax ``zero``, ``const:<R>``, or ``power:<p>:<K_R>``."""
    parts = spec.strip().split(":")
    kind = parts[0].lower()
    try:
        if kind == "zero" and len(parts) == 1:
            return ZeroNoise()
        if kind == "const" and len(parts) == 2:
            return ConstantNoise(R=float(parts[1]))
        if kind == "power" and len(parts) == 3:
            return PowerLawNoise(p=float(parts[1]), K_R=float(parts[2]))
    except ValueError as exc:
        raise ValueError(f"bad noise spec {spec!r}: {exc}") from None
    raise ValueError(f"bad noise spec {spec!r}; expected zero, const:<R>, or power:<p>:<K_R>")
