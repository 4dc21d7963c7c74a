"""The measurement-variance model for the derivative data y = f(m_pred).

A run evaluates its model once for the chosen step size; R stays constant
along the mesh.  Every model is a power law ``R = K_R * h**p`` (with
``h**inf`` taken as 0), the family the convergence analysis is
parameterized by: p >= q is the permissible regime, and the benchmarks
deliberately cross that line.  Noiseless data is the p = inf case and a
step-independent variance R > 0 the p = 0 case.
"""

from __future__ import annotations

import dataclasses
import math

__all__ = ["PowerLawNoise", "parse_noise"]


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


def parse_noise(spec: str) -> PowerLawNoise:
    """Parse the CLI syntax ``zero``, ``const:<R>``, or ``power:<p>:<K_R>``.

    ``zero`` is ``(K_R, p) = (0, inf)``; ``const:<R>`` is ``(R, 0)``, or
    ``(R, inf)`` when R = 0, so that R = 0 is noiseless data whatever its
    spelling.
    """
    parts = spec.strip().split(":")
    kind = parts[0].lower()
    try:
        if kind == "zero" and len(parts) == 1:
            return PowerLawNoise(K_R=0.0, p=math.inf)
        if kind == "const" and len(parts) == 2:
            R = float(parts[1])
            return PowerLawNoise(K_R=R, p=math.inf if R == 0.0 else 0.0)
        if kind == "power" and len(parts) == 3:
            return PowerLawNoise(p=float(parts[1]), K_R=float(parts[2]))
    except ValueError as exc:
        raise ValueError(f"bad noise spec {spec!r}: {exc}") from None
    raise ValueError(f"bad noise spec {spec!r}; expected zero, const:<R>, or power:<p>:<K_R>")
