"""The two-circle intersection locus and the numerical trisector built on it.

Fix a fold spacing ``a`` and slide the point J = (b, a) along the line
``y = a``. Two circles are coupled to J:

    circle 1:  center O = (0, 0), radius |OJ| = sqrt(a^2 + b^2)
    circle 2:  center J,          radius 2a

J itself lies on circle 1, so the two always meet; the counterclockwise
intersection point Q traces a curve as b grows. Because the chord JQ of
circle 1 has fixed length 2a, the central angle it subtends is exactly twice
the angle of J, which puts Q at three times J's polar angle: the curve is a
trisectrix. With J at angle phi/3 and |OQ| = |OJ|, its polar form is
r = a / sin(phi/3). Intersecting it with the ray at a target angle therefore
solves the trisection, and the distance |OQ| at the crossing is the unit
length at which the assumed fold spacing equals the sine of the trisected
angle.

The crossing is found by plain bisection on the polar angle of Q, which is
strictly decreasing in b; the bracket starts at b = sqrt(3)*a, where Q sits
straight overhead at (0, 2a), and the upper end is found by doubling b until
the angle falls below the target. The same chord argument gives Q's polar
angle as 3*atan(a/b), so the sign of every step far from the crossing is
known in advance: such a step takes its branch without evaluating the curve,
and only the last few midpoints, near the crossing, are evaluated. The steps,
iterates and results are those of bisection that evaluates every midpoint.
"""

from __future__ import annotations

import itertools
import math
import sys

from .errors import MaxIterationsExceeded, ParameterOutOfRange
from .geom import (_HALF_PI, SQRT3, Angle, AngleLike, Point2, Value, as_float, as_positive,
                   target_radians)
from .report import VerificationReport

DEFAULT_TOL = 1e-12

# Relative slack on the b >= sqrt(3)*a lower bound, so a bound computed by a
# caller through a different (equally valid) floating expression is not
# rejected over the last bit.
_LOWER_BOUND_SLACK = 1e-12

# Doubling steps before the upper-bracket search gives up (2**64 scale).
_MAX_DOUBLINGS = 64

# Rounding bound behind trisect's skipped steps. Computed f(b) differs from
# 3*atan(a/b) - target by about 1e-14 rad at most (Q's coordinates to a few
# ulp of |OQ|, then atan2 and the subtraction), and the rounding of the skip
# thresholds (the angle sum, the division by 3, tan, a/tan) moves them by
# under 1e-15 rad in angle. A margin of 1e-12 rad leaves more than 100x slack,
# so a step outside the thresholds always takes the branch its evaluation
# would; were a threshold wrong, the result would still come only from an
# evaluated |f| <= stop, and the bracket would collapse instead. The margin
# also keeps target - stop - _SKIP_MARGIN, when positive, at least 2**-92
# (the grid of floats above 1e-12), so a/tan of a third of it stays finite.
_SKIP_MARGIN = 1e-12

# The fold range, about [1.77e-103, 4.45e89]. trisect evaluates the curve
# for b up to the end of its doubling bracket, 2**_MAX_DOUBLINGS * sqrt(3) * a.
# Over that whole bracket its smallest product is 4a^3 (2a * (b^2 - a^2) at
# the curve start) and its largest is about 2a * b^2 at the far end; the
# range keeps both normal floats, so no product underflows to a subnormal or
# zero or overflows to inf.
_B_RATIO_MAX = 2.0 ** _MAX_DOUBLINGS * SQRT3
FOLD_MIN = (sys.float_info.min / 4.0) ** (1.0 / 3.0)
FOLD_MAX = (sys.float_info.max / (2.0 * _B_RATIO_MAX * _B_RATIO_MAX)) ** (1.0 / 3.0)


class LocusParams(Value):
    """Curve parameters: ``a`` is the fold spacing, the radius of circle 2
    being ``2a``. Raises ValueError unless ``a`` is positive and finite, and
    ParameterOutOfRange outside [FOLD_MIN, FOLD_MAX]. A fold that is not a
    float goes through ``as_float`` and is stored converted, so text raises
    its TypeError and a ``Decimal`` or ``Fraction`` fold solves as its float."""

    __slots__ = ("a",)

    def __init__(self, a: float) -> None:
        self.a = a
        if not (type(a) is float and FOLD_MIN <= a <= FOLD_MAX):
            fold = as_positive(a, "fold spacing a")
            if not FOLD_MIN <= fold <= FOLD_MAX:
                raise ParameterOutOfRange(
                    f"fold spacing a must lie in [{FOLD_MIN:.3g}, {FOLD_MAX:.3g}], got {a!r}"
                )
            self.a = fold


class LocusPoint(Value):
    """One sample of the curve: the parameter b, the point Q, satisfaction
    residuals for both circle equations and the curve's linear relation
    (all absolute values), and Q's polar angle."""

    __slots__ = ("b", "q", "residual_circle1", "residual_circle2",
                 "residual_locus_relation", "q_polar_angle")

    def __init__(self, b: float, q: Point2, residual_circle1: float,
                 residual_circle2: float, residual_locus_relation: float,
                 q_polar_angle: Angle) -> None:
        self.b = b
        self.q = q
        self.residual_circle1 = residual_circle1
        self.residual_circle2 = residual_circle2
        self.residual_locus_relation = residual_locus_relation
        self.q_polar_angle = q_polar_angle


class TrisectionResult(Value):
    """Solved trisection: the target in radians, as the float the domain
    check returned (as both constructions store theirs), the trisected
    angle, the curve parameter at the crossing, the unit length
    |ON| = |OJ|, the crossing point N, and solver diagnostics."""

    __slots__ = ("three_theta", "theta", "b_star", "unit_length", "n_point",
                 "iterations", "final_bracket_width", "angle_residual")

    def __init__(self, three_theta: float, theta: Angle, b_star: float,
                 unit_length: float, n_point: Point2, iterations: int,
                 final_bracket_width: float, angle_residual: float) -> None:
        self.three_theta = three_theta
        self.theta = theta
        self.b_star = b_star
        self.unit_length = unit_length
        self.n_point = n_point
        self.iterations = iterations
        self.final_bracket_width = final_bracket_width
        self.angle_residual = angle_residual


def _check_b(a: float, b: float, name: str = "b") -> None:
    """ParameterOutOfRange naming ``name`` unless the curve has a finite
    point at ``b``. For b >= sqrt(3)*a a point's largest products are b*b
    and 2a*(b*b - a*a) (_q_coords); the second is inf or NaN whenever the
    first is, so it alone is checked."""
    lower = SQRT3 * a
    if not b >= lower * (1.0 - _LOWER_BOUND_SLACK):
        raise ParameterOutOfRange(
            f"parameter {name} must be at least sqrt(3)*a = {lower!r}, got {b!r}"
        )
    if not math.isfinite(2.0 * a * (b * b - a * a)):
        limit = math.sqrt(sys.float_info.max / max(2.0 * a, 1.0))
        raise ParameterOutOfRange(
            f"parameter {name} must be finite and at most about {limit:.3g} at fold "
            f"a={a!r}, where the curve's products overflow, got {b!r}"
        )


def _q_coords(a: float, b: float) -> tuple[float, float]:
    """Counterclockwise intersection point of the two circles.

    Q is built from J's side as the chord endpoint: with d the angle of J,
    the chord direction is d + (pi/2 + d) rotated twice, giving
    Q = J + 2a*(-sin 2d, cos 2d). Using 2ab/(a^2+b^2) and
    (b^2-a^2)/(a^2+b^2) for the double angle keeps every term free of
    cancellation: at any b/a ratio each coordinate lies within 4 ulp of
    |OJ| of the exact intersection, and each residual column of
    :func:`locus_point` within 4 ulp of a^2 + b^2 of its exact value
    (``tests/test_exact.py``). Every point of the curve, the solver's
    included, comes from here.

    Only + - * / appear, with no float literal, so rational ``a`` and ``b``
    (``fractions.Fraction``) give Q exactly, and the paper's identities can
    be checked with no tolerance. For floats 2a is exact, so (2a)*(2a)
    rounds the same 4a^2 as 4.0*a*a would.
    """
    t = a + a
    dd = a * a + b * b
    qx = b - t * t * b / dd
    qy = a + t * (b * b - a * a) / dd
    return qx, qy


def locus_point(params: LocusParams, b: float) -> LocusPoint:
    """Evaluate the curve at parameter ``b >= sqrt(3)*a``.

    The counterclockwise branch is returned: the one that starts at
    (0, 2a) when b = sqrt(3)*a and sweeps down toward the base ray as b
    grows. Raises ParameterOutOfRange below the start of the curve, where
    the construction leaves its working regime, and where the point's
    products overflow. A ``b`` that is not a float goes through ``as_float``.
    """
    if type(b) is not float:
        b = as_float(b)
    a = params.a
    _check_b(a, b)
    qx, qy = _q_coords(a, b)
    q = Point2(qx, qy)
    dd = a * a + b * b
    return LocusPoint(
        b,
        q,
        abs((qx * qx + qy * qy) - dd),
        abs((qx - b) * (qx - b) + (qy - a) * (qy - a) - 4.0 * a * a),
        abs(locus_relation_residual(params, b, q)),
        Angle(math.atan2(qy, qx)),
    )


def locus_relation_residual(params: LocusParams, b: float, q: Point2) -> float:
    """Signed residual of the curve's linear relation b*x + a*y = b^2 - a^2.

    The relation is the radical line of the two circles, so points produced
    by :func:`locus_point` satisfy it to rounding level. It is a diagnostic,
    not a solve equation: b varies along the curve.
    """
    a = params.a
    return b * q.x + a * q.y - (b * b - a * a)


def sample_locus(params: LocusParams, b_min: float, b_max: float, n: int) -> list[LocusPoint]:
    """Evaluate ``n`` uniformly spaced parameters over [b_min, b_max].

    Endpoints are included exactly; the b's never decrease and stay inside
    [b_min, b_max]. Sampling is deterministic: the same arguments always
    produce bit-identical points. Bounds that are not floats go through
    ``as_float``.
    """
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n!r}")
    b_min, b_max = as_float(b_min), as_float(b_max)
    a = params.a
    _check_b(a, b_min, "b_min")
    _check_b(a, b_max, "b_max")
    if not b_min < b_max:
        raise ParameterOutOfRange(
            f"need b_min < b_max, got b_min={b_min!r}, b_max={b_max!r}"
        )
    points = []
    last = n - 1
    b = b_min
    for i in range(n):
        t = i / last
        # The two products round apart, so over a range a few ulp wide the
        # sum can step back or leave the range: b is held at or above the
        # last one and at or below b_max.
        b = min(max(b, b_min * (1.0 - t) + b_max * t), b_max)
        points.append(locus_point(params, b))
    return points


def _result(t3: float, a: float, b: float, qx: float, qy: float, iterations: int,
            width: float, f_val: float) -> TrisectionResult:
    """The trisection at parameter ``b`` with the solver's diagnostics: its
    crossing N is the point (qx, qy) the solver evaluated there."""
    return TrisectionResult(
        t3,
        Angle(math.atan2(a, b)),
        b,
        math.hypot(a, b),
        Point2(qx, qy),
        iterations,
        width,
        f_val,
    )


def trisect(
    three_theta: AngleLike,
    params: LocusParams,
    tol: float = DEFAULT_TOL,
) -> TrisectionResult:
    """Solve for the parameter b* where the curve crosses the target ray.

    Bisection on f(b) = angle(Q(b)) - three_theta, bracketed by two
    points with opposite sign of f: the lower bracket is the curve start
    b = sqrt(3)*a (angle 90 degrees, at or above any valid target) and the
    upper bracket is found by doubling b until the angle drops below the
    target. f is strictly decreasing in b, so the bracket always contains
    the single crossing. Stops once |f| <= tol (radians); ``iterations``
    counts bisection steps, at most 55, so no step budget is needed: the
    crossing lies in (hi/2, hi] for the doubled upper bracket hi, and each
    step halves a bracket under hi wide until it spans two adjacent floats,
    over hi * 2**-54 apart; one step is spare for midpoint rounding. A step
    whose sign f = 3*atan(a/b) - target settles beyond rounding doubt takes
    its branch without evaluating f.

    ``tol`` bounds Q's polar angle, not theta: theta = atan2(a, b*) carries
    its own rounding, so |3*theta - target| is guaranteed only to
    max(tol, 1e-12). A returned result can fail
    ``verify_trisection(...).passes(tol)``: below about 1e-16 rad through
    its angle, and at any tol through its lengths and curve relation, which
    are absolute (see :func:`verify_trisection`). A ``tol`` that is not a float
    goes through ``as_float``, so a ``Decimal`` or ``Fraction`` solves as
    its float.

    Raises AngleOutOfRange for targets outside (0, 90] degrees, and
    MaxIterationsExceeded (best result attached) if 64 doublings find no upper
    bracket or the bracket shrinks to two adjacent floats before reaching tol.
    """
    target = target_radians(three_theta)
    if not (type(tol) is float and 0.0 < tol < math.inf):
        tol = as_positive(tol, "tol")

    a = params.a
    # Stop at half of tol so residuals re-measured downstream from the
    # returned coordinates (which tripling the angle can stretch slightly)
    # cannot straddle the tol boundary.
    stop = 0.5 * tol

    # By the chord identity f(b) = 3*atan(a/b) - target exactly, so below
    # b_pos every f > stop + _SKIP_MARGIN and above b_neg every
    # f < -(stop + _SKIP_MARGIN); a step there takes its branch without an
    # evaluation. Neither end exists once its angle leaves (0, pi/2).
    upper = target + stop + _SKIP_MARGIN
    b_pos = a / math.tan(upper / 3.0) if upper < _HALF_PI else 0.0
    lower = target - stop - _SKIP_MARGIN
    b_neg = a / math.tan(lower / 3.0) if lower > 0.0 else math.inf

    lo = SQRT3 * a
    if lo >= b_pos:
        qx, qy = _q_coords(a, lo)
        f_lo = math.atan2(qy, qx) - target
        if abs(f_lo) <= stop:
            return _result(target, a, lo, qx, qy, 0, 0.0, f_lo)

    hi = lo
    for _ in range(_MAX_DOUBLINGS):
        hi *= 2.0
        if hi < b_pos:
            continue
        if hi > b_neg:
            break
        qx, qy = _q_coords(a, hi)
        f_hi = math.atan2(qy, qx) - target
        if abs(f_hi) <= stop:
            return _result(target, a, hi, qx, qy, 0, 0.0, f_hi)
        if f_hi < 0.0:
            break
    else:
        # No step broke out, and the last one was evaluated, as b_pos is at
        # most a/tan(1e-12/3), about 3e12*a, far below the final
        # hi = 2**64 * sqrt(3) * a: qx, qy and f_hi are hi's.
        raise MaxIterationsExceeded(
            f"no upper bracket below target {math.degrees(target)!r} deg within "
            f"{_MAX_DOUBLINGS} doublings",
            result=_result(target, a, hi, qx, qy, 0, hi - lo, f_hi),
        )

    # An endpoint moves only to a skipped mid on its own side, or to an
    # evaluated mid in [b_pos, b_neg] whose f has the endpoint's sign. By the
    # _SKIP_MARGIN bound, hi thus stays over ~1e-12 rad of angle (over 6e-13*b,
    # far more than an ulp) above b_pos and lo as far below b_neg, so only an
    # evaluated mid can repeat an endpoint: the bracket has collapsed. The
    # loop has no step bound: the bracket halves until tol or collapse.
    for iteration in itertools.count(1):
        mid = 0.5 * (lo + hi)
        if mid < b_pos:
            lo = mid
        elif mid > b_neg:
            hi = mid
        elif mid == lo or mid == hi:
            break
        else:
            qx, qy = _q_coords(a, mid)
            f_mid = math.atan2(qy, qx) - target
            if abs(f_mid) <= stop:
                return _result(target, a, mid, qx, qy, iteration, hi - lo, f_mid)
            if f_mid > 0.0:
                lo = mid
            else:
                hi = mid
    lx, ly = _q_coords(a, lo)
    hx, hy = _q_coords(a, hi)
    f_lo, f_hi = math.atan2(ly, lx) - target, math.atan2(hy, hx) - target
    b, qx, qy, f_b = (lo, lx, ly, f_lo) if abs(f_lo) <= abs(f_hi) else (hi, hx, hy, f_hi)
    raise MaxIterationsExceeded(
        f"bisection bracket collapsed after {iteration - 1} iterations "
        f"before reaching tol={tol!r} rad (|residual| = {abs(f_b)!r})",
        result=_result(target, a, b, qx, qy, iteration - 1, hi - lo, f_b),
    )


def verify_trisection(r: TrisectionResult, params: LocusParams) -> VerificationReport:
    """Re-measure the solved trisection's defining relationships.

    Residuals: the tripled angle against the target, the chord |NJ| against
    2a, |ON| against the unit length, the normalized fold spacing against
    sin(theta), and the curve relation at N. For results produced by
    :func:`trisect` the angle and the ratio are <= max(tol, 1e-12). The two
    lengths are absolute, their rounding growing with the fold, and the
    relation's with b*^2, so they can exceed a tol in radians away from
    fold 1 (at fold 1 and tol 1e-12, the relation reads 3.6e-12 at 1 degree).
    """
    a = params.a
    b = r.b_star
    n = r.n_point
    residuals = {
        "three_theta_vs_target": abs(3.0 * r.theta.radians - r.three_theta),
        # |NJ| with J = (b*, a), and |ON|.
        "jn_vs_2a": abs(math.hypot(n.x - b, n.y - a) - 2.0 * a),
        "on_vs_unit_length": abs(math.hypot(n.x, n.y) - r.unit_length),
        "fold_ratio_vs_sin_theta": abs(a / r.unit_length - math.sin(r.theta.radians)),
        "locus_relation_at_n": abs(locus_relation_residual(params, b, n)),
    }
    return VerificationReport(residuals)
