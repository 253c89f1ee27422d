"""Exact-formula planar primitives: points, circles, rays, and angles.

Everything here is a pure function of its inputs. Branch ordering is
deterministic, so identical inputs always produce bit-identical outputs,
which the CSV/SVG emitters rely on for golden-file stability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .errors import ConcentricCircles, DegeneratePoint, NoIntersection

TWO_PI = 2.0 * math.pi
SQRT3 = math.sqrt(3.0)

# Discriminant band, relative to the squared dominant length, inside which a
# circle pair is reported as tangent (a single intersection point).
TANGENCY_EPS = 1e-10


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


@dataclass(frozen=True)
class Angle:
    """A plane angle stored in radians, normalized into [0, 2*pi).

    Arithmetic re-normalizes, so downstream code never sees a negative or
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
        object.__setattr__(self, "radians", wrap_angle(r))

    @classmethod
    def from_degrees(cls, degrees: float) -> "Angle":
        return cls(math.radians(degrees))

    @property
    def degrees(self) -> float:
        return math.degrees(self.radians)

    def __float__(self) -> float:
        return self.radians

    def __add__(self, other: "AngleLike") -> "Angle":
        return Angle(self.radians + as_angle(other).radians)

    def __sub__(self, other: "AngleLike") -> "Angle":
        return Angle(self.radians - as_angle(other).radians)

    def __mul__(self, factor: float) -> "Angle":
        return Angle(self.radians * factor)

    __rmul__ = __mul__

    def __truediv__(self, divisor: float) -> "Angle":
        return Angle(self.radians / divisor)


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


@dataclass(frozen=True)
class Point2:
    """A point in construction coordinates (dimensionless units)."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"coordinates must be finite, got ({self.x!r}, {self.y!r})")


ORIGIN = Point2(0.0, 0.0)


@dataclass(frozen=True)
class Circle:
    """A circle given by center and strictly positive radius."""

    center: Point2
    radius: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise ValueError(f"radius must be finite and positive, got {self.radius!r}")


@dataclass(frozen=True)
class Ray:
    """A ray from an origin point along a direction angle in [0, 2*pi)."""

    origin: Point2
    direction_angle: Angle

    def __post_init__(self) -> None:
        if not isinstance(self.direction_angle, Angle):
            object.__setattr__(self, "direction_angle", as_angle(self.direction_angle))


X_AXIS_RAY = Ray(ORIGIN, Angle(0.0))


def polar_radians(p: Point2) -> float:
    """Angle of ``p`` about the origin in radians, normalized to [0, 2*pi).

    Raises DegeneratePoint for the origin itself, which has no direction.
    """
    if p.x == 0.0 and p.y == 0.0:
        raise DegeneratePoint("polar angle of the origin is undefined")
    return wrap_angle(math.atan2(p.y, p.x))


def polar_angle(p: Point2) -> Angle:
    """:func:`polar_radians` as an Angle."""
    return Angle(polar_radians(p))


def distance(p: Point2, q: Point2) -> float:
    """Euclidean distance between two points."""
    return math.hypot(p.x - q.x, p.y - q.y)


def midpoint(p: Point2, q: Point2) -> Point2:
    return Point2(0.5 * (p.x + q.x), 0.5 * (p.y + q.y))


def rotate(p: Point2, angle: AngleLike) -> Point2:
    """Rotate ``p`` about the origin by ``angle`` counterclockwise."""
    a = as_angle(angle).radians
    c, s = math.cos(a), math.sin(a)
    return Point2(c * p.x - s * p.y, s * p.x + c * p.y)


def foot_of_perpendicular(p: Point2, r: Ray) -> Point2:
    """Orthogonal projection of ``p`` onto the line carrying the ray ``r``."""
    a = r.direction_angle.radians
    ux, uy = math.cos(a), math.sin(a)
    t = (p.x - r.origin.x) * ux + (p.y - r.origin.y) * uy
    return Point2(r.origin.x + t * ux, r.origin.y + t * uy)


def _polar_about(center: Point2, p: Point2) -> float:
    return wrap_angle(math.atan2(p.y - center.y, p.x - center.x))


def circle_circle_intersections(c1: Circle, c2: Circle) -> list[Point2]:
    """Intersection points of two circles via the radical-line reduction.

    Subtracting the two circle equations gives the radical line; the foot of
    that line along the center axis sits at ``(r1^2 - r2^2 + d^2) / (2d)``
    from the first center, and the half-chord height ``h`` comes from the
    discriminant. The discriminant is evaluated as the sorted four-factor
    product (the numerically stable triangle-area form) so widely different
    radii do not cancel catastrophically.

    When two points exist they are returned ordered by ascending polar angle
    about ``c1.center``. A discriminant within ``TANGENCY_EPS`` of zero
    (relative to the squared dominant length) is reported as a single tangent
    point.

    Raises ConcentricCircles when the centers coincide and NoIntersection
    when the circles are separated or nested.
    """
    dx = c2.center.x - c1.center.x
    dy = c2.center.y - c1.center.y
    d = math.hypot(dx, dy)
    if d == 0.0:
        raise ConcentricCircles("circles share a center; intersection is degenerate")

    r1, r2 = c1.radius, c2.radius
    x, y, z = sorted((r1, r2, d), reverse=True)
    # Only the z - (x - y) factor can go negative; it is the triangle margin.
    disc = ((x + (y + z)) * (z - (x - y)) * (z + (x - y)) * (x + (y - z))) / (4.0 * d * d)
    band = TANGENCY_EPS * x * x
    if disc < -band:
        raise NoIntersection(
            f"circles do not intersect (separation {d!r}, radii {r1!r}, {r2!r})"
        )

    afoot = (r1 * r1 - r2 * r2 + d * d) / (2.0 * d)
    ux, uy = dx / d, dy / d
    bx = c1.center.x + afoot * ux
    by = c1.center.y + afoot * uy
    if disc <= band:
        return [Point2(bx, by)]

    h = math.sqrt(disc)
    first = Point2(bx - h * uy, by + h * ux)
    second = Point2(bx + h * uy, by - h * ux)
    points = [first, second]
    points.sort(key=lambda p: _polar_about(c1.center, p))
    return points
