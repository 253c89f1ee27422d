"""Exact-formula planar primitives: points and angles.

Everything here is a pure function of its inputs, so identical inputs
always produce bit-identical outputs, which the CSV/SVG emitters rely on
for golden-file stability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .errors import DegeneratePoint

TWO_PI = 2.0 * math.pi
SQRT3 = math.sqrt(3.0)


def wrap_angle(radians: float) -> float:
    """Normalize an angle in radians into [0, 2*pi)."""
    r = math.fmod(radians, TWO_PI)
    return r + TWO_PI if r < 0.0 else r


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
    """A plane angle stored in radians, normalized into [0, 2*pi).

    Construction normalizes, so downstream code never sees a negative or
    wrapped-past-full-turn value. Degrees exist only at CLI boundaries.
    """

    radians: float

    def __post_init__(self) -> None:
        r = self.radians
        # wrap_angle maps a float already in range to itself.
        if type(r) is float and 0.0 <= r < TWO_PI:
            return
        r = float(r)
        if not math.isfinite(r):
            raise ValueError(f"angle must be finite, got {r!r}")
        self.radians = wrap_angle(r)

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
    return Angle(float(value))


def raw_radians(value: AngleLike) -> float:
    """Radians of ``value`` as given: an Angle's stored value, or a raw
    number unwrapped, so a domain check sees 450 degrees as 450, not 90."""
    if isinstance(value, Angle):
        return value.radians
    return float(value)


@dataclass(slots=True)
class Point2:
    """A point in construction coordinates (dimensionless units)."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"coordinates must be finite, got ({self.x!r}, {self.y!r})")


ORIGIN = Point2(0.0, 0.0)


def polar_radians(p: Point2) -> float:
    """Angle of ``p`` about the origin in radians, normalized to [0, 2*pi).

    Raises DegeneratePoint for the origin itself, which has no direction.
    """
    if p.x == 0.0 and p.y == 0.0:
        raise DegeneratePoint("polar angle of the origin is undefined")
    return wrap_angle(math.atan2(p.y, p.x))


def distance(p: Point2, q: Point2) -> float:
    """Euclidean distance between two points."""
    return math.hypot(p.x - q.x, p.y - q.y)
