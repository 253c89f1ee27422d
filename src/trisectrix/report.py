"""Named-residual reports returned by the verification operations."""

from __future__ import annotations

from .geom import Value


class VerificationReport(Value):
    """A map of named residuals, each a checked equality expected to sit at
    rounding level."""

    __slots__ = ("residuals",)

    def __init__(self, residuals: dict[str, float]) -> None:
        self.residuals = residuals

    def worst(self) -> tuple[str, float]:
        """Name and magnitude of the largest checked residual, the first in
        key order among equal ones. A NaN residual is worse than any number:
        the first NaN one is named, with magnitude NaN."""
        name, largest = "", -1.0
        for key, value in self.residuals.items():
            value = abs(value)
            if value > largest:
                name, largest = key, value
            elif value != value:
                return key, value
        return name, largest

    def max_residual(self) -> float:
        """The largest residual's magnitude, NaN if any residual is NaN."""
        return self.worst()[1]

    def passes(self, tol: float) -> bool:
        """Whether every residual is at most ``tol``; a NaN one never is."""
        for value in self.residuals.values():
            if not abs(value) <= tol:
                return False
        return True
