"""Exact-formula planar primitives: points and angles, and ``Value``, the
base of the library's value types.

Everything here is a pure function of its inputs, so identical inputs
always produce bit-identical outputs, which the CSV/SVG emitters rely on
for golden-file stability.
"""

from __future__ import annotations

import math
from math import isfinite

from .errors import AngleOutOfRange

TWO_PI = 2.0 * math.pi
_HALF_PI = 0.5 * math.pi
SQRT3 = math.sqrt(3.0)


def as_float(value: float) -> float:
    """``float(value)``, reading an int beyond the float range as the
    infinity of its sign, so a range check rejects it as it rejects inf, and
    a signalling NaN (``Decimal("sNaN")``, which ``float`` refuses) as NaN,
    so the caller's NaN check names the parameter. Text is not a number: a
    str, bytes or bytearray raises TypeError, where ``float`` would parse it."""
    if isinstance(value, (str, bytes, bytearray)):
        raise TypeError(f"expected a number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf
    except ValueError:
        if getattr(value, "is_snan", bool)():
            return math.nan
        raise


def as_positive(value: float, name: str) -> float:
    """``as_float(value)`` if that is finite and positive, else ValueError
    "<name> must be finite and positive, got <value>". The slow path of the
    fold and tol checks, which take a float already in range as it is; one
    check, so their messages cannot drift apart."""
    number = as_float(value)
    if not (math.isfinite(number) and number > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")
    return number


class Value:
    """Base of the library's value types. A subclass names its fields in
    ``__slots__`` and sets them in ``__init__``; this supplies the repr.
    Values compare and hash by identity, as plain objects do: compare their
    fields or reprs to compare contents.

    Callers may pass fields by keyword; the library passes them by position,
    as a keyword call costs 2-3x as much on CPython 3.11 (TrisectionResult:
    918 against 297 ns), its keywords going through a dict into ``__init__``."""

    __slots__ = ()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


def wrap_signed(radians: float) -> float:
    """Normalize an angle difference into (-pi, pi]."""
    r = math.fmod(radians, TWO_PI)
    if r > math.pi:
        r -= TWO_PI
    elif r <= -math.pi:
        r += TWO_PI
    return r


class Angle(Value):
    """A plane angle stored in radians, in [0, 2*pi).

    Construction rejects a value outside that range (NaN and infinities
    included) instead of reducing it, so 450 degrees is never read as 90.
    Degrees exist only at CLI boundaries.
    """

    __slots__ = ("radians",)

    def __init__(self, radians: float) -> None:
        self.radians = radians
        self.__post_init__()

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


AngleLike = Angle | float | int


def target_radians(value: AngleLike) -> float:
    """``value`` in radians, as a float, if it lies in (0, pi/2]; otherwise
    AngleOutOfRange "trisection target must lie in (0, 90] degrees, got
    <degrees>", one wording for every route. A raw number is checked as
    given, so 450 degrees is out of range, not 90. A plain float is taken as
    it is, the solver's common case; any other number goes through
    ``as_float``."""
    if type(value) is float:
        r = value
    elif isinstance(value, Angle):
        r = value.radians
    else:
        r = as_float(value)
    if not 0.0 < r <= _HALF_PI:
        raise AngleOutOfRange(
            f"trisection target must lie in (0, 90] degrees, got {math.degrees(r):.6g}")
    return r


class Point2(Value):
    """A point in construction coordinates (dimensionless units)."""

    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y
        self.__post_init__()

    def __post_init__(self) -> None:
        if not (isfinite(self.x) and isfinite(self.y)):
            raise ValueError(f"coordinates must be finite, got ({self.x!r}, {self.y!r})")


def distance(p: Point2, q: Point2) -> float:
    """Euclidean distance between two points."""
    return math.hypot(p.x - q.x, p.y - q.y)
