"""Exact-formula planar primitives: points and angles.

Everything here is a pure function of its inputs, so identical inputs
always produce bit-identical outputs, which the CSV/SVG emitters rely on
for golden-file stability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .errors import AngleOutOfRange

TWO_PI = 2.0 * math.pi
SQRT3 = math.sqrt(3.0)


def as_float(value: float) -> float:
    """``float(value)``, reading an int beyond the float range as the
    infinity of its sign, so a range check rejects it as it rejects inf."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def wrap_signed(radians: float) -> float:
    """Normalize an angle difference into (-pi, pi]."""
    r = math.fmod(radians, TWO_PI)
    if r > math.pi:
        r -= TWO_PI
    elif r <= -math.pi:
        r += TWO_PI
    return r


@dataclass(slots=True)
class Angle:
    """A plane angle stored in radians, in [0, 2*pi).

    Construction rejects a value outside that range (NaN and infinities
    included) instead of reducing it, so 450 degrees is never read as 90.
    Degrees exist only at CLI boundaries.
    """

    radians: float

    def __post_init__(self) -> None:
        r = self.radians
        if type(r) is float and 0.0 <= r < TWO_PI:
            return
        r = as_float(r)
        if not 0.0 <= r < TWO_PI:
            raise ValueError(f"angle must lie in [0, 2*pi) radians, got {r!r}")
        self.radians = r

    @classmethod
    def from_degrees(cls, degrees: float) -> "Angle":
        return cls(math.radians(degrees))

    @property
    def degrees(self) -> float:
        return math.degrees(self.radians)


AngleLike = Union[Angle, float, int]


def as_angle(value: AngleLike) -> Angle:
    """Coerce a raw radian value (or pass an Angle through) to an Angle."""
    if isinstance(value, Angle):
        return value
    return Angle(as_float(value))


def target_angle(value: AngleLike, domain: str, quarter_turn: bool = True) -> Angle:
    """``value`` as an Angle if it lies in (0, pi/2], or in (0, pi/2) without
    ``quarter_turn``; otherwise AngleOutOfRange, its message ``domain``
    followed by the value in degrees. A raw number is checked as given, so
    450 degrees is out of range, not 90."""
    r = value.radians if isinstance(value, Angle) else as_float(value)
    if not (0.0 < r < 0.5 * math.pi or (quarter_turn and r == 0.5 * math.pi)):
        raise AngleOutOfRange(f"{domain}, got {math.degrees(r):.6g}")
    return value if isinstance(value, Angle) else Angle(r)


@dataclass(slots=True)
class Point2:
    """A point in construction coordinates (dimensionless units)."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"coordinates must be finite, got ({self.x!r}, {self.y!r})")


ORIGIN = Point2(0.0, 0.0)


def distance(p: Point2, q: Point2) -> float:
    """Euclidean distance between two points."""
    return math.hypot(p.x - q.x, p.y - q.y)
