"""Angle trisection via a two-circle intersection locus.

Planar primitives, the locus construction and its bisection solver, the
origami fold reconstruction, independent verification oracles, and
deterministic JSON/CSV/SVG emitters.
"""

from .errors import (
    AngleOutOfRange,
    MaxIterationsExceeded,
    MismatchDetected,
    ParameterOutOfRange,
    TrisectrixError,
)
from .geom import (
    Angle,
    Point2,
    SQRT3,
    distance,
)
from .locus import (
    LocusParams,
    LocusPoint,
    TrisectionResult,
    locus_point,
    locus_relation_residual,
    sample_locus,
    trisect,
    verify_trisection,
)
from .oracles import (
    ChordDiagram,
    CrossValidationReport,
    chord_diagram,
    chord_residuals,
    cross_validate,
    oracle_theta,
)
from .origami import AbeConstruction, abe_construct, abe_verify
from .render import render_svg
from .report import VerificationReport

__version__ = "0.1.0"

__all__ = [
    "Angle",
    "AngleOutOfRange",
    "AbeConstruction",
    "ChordDiagram",
    "CrossValidationReport",
    "LocusParams",
    "LocusPoint",
    "MaxIterationsExceeded",
    "MismatchDetected",
    "ParameterOutOfRange",
    "Point2",
    "SQRT3",
    "TrisectionResult",
    "TrisectrixError",
    "VerificationReport",
    "abe_construct",
    "abe_verify",
    "chord_diagram",
    "chord_residuals",
    "cross_validate",
    "distance",
    "locus_point",
    "locus_relation_residual",
    "oracle_theta",
    "render_svg",
    "sample_locus",
    "trisect",
    "verify_trisection",
]
