"""Named-residual reports returned by the verification operations."""

from __future__ import annotations

from dataclasses import dataclass, field


class ResidualMap:
    """Queries over a ``residuals`` map of named residuals, for the report
    dataclasses that hold one."""

    residuals: dict[str, float]

    def worst(self) -> tuple[str, float]:
        """Name and magnitude of the largest checked residual."""
        name = max(self.residuals, key=lambda k: abs(self.residuals[k]))
        return name, abs(self.residuals[name])

    def max_residual(self) -> float:
        return max(abs(v) for v in self.residuals.values())

    def passes(self, tol: float) -> bool:
        return self.max_residual() <= tol


@dataclass(frozen=True)
class VerificationReport(ResidualMap):
    """A map of named residuals, each expected to sit at rounding level.

    ``residuals`` carry the checked equalities; ``informational`` entries are
    diagnostics that are reported but deliberately not held to a tolerance
    (for example the alternative reading of an ambiguously placed point).
    """

    residuals: dict[str, float]
    informational: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict[str, float]:
        """Flat copy including informational entries, for serialization."""
        out = dict(self.residuals)
        for name, value in self.informational.items():
            out[f"{name} (informational)"] = value
        return out
