"""Named-residual reports returned by the verification operations."""

from __future__ import annotations

from .geom import Value


class ResidualMap(Value):
    """Queries over a ``residuals`` map of named residuals: the base of the
    report types that hold one."""

    __slots__ = ()

    residuals: dict[str, float]

    def worst(self) -> tuple[str, float]:
        """Name and magnitude of the largest checked residual."""
        name = max(self.residuals, key=lambda k: abs(self.residuals[k]))
        return name, abs(self.residuals[name])

    def max_residual(self) -> float:
        return max(abs(v) for v in self.residuals.values())

    def passes(self, tol: float) -> bool:
        return self.max_residual() <= tol


class VerificationReport(ResidualMap):
    """A map of named residuals, each a checked equality expected to sit at
    rounding level."""

    __slots__ = ("residuals",)

    def __init__(self, residuals: dict[str, float]) -> None:
        self.residuals = residuals

