"""Hisashi Abe's origami trisection, reconstructed and checked coordinate-wise.

The fold brings the corner of the sheet onto the first crease while a second
marked point lands on the far side of the given angle; the crease directions
then trisect the angle. Rather than simulating the fold search, the module
synthesizes the known end state of that construction for a given angle and
verifies every equal-segment and equal-angle relationship it promises, all
measured from the coordinates (never assumed).

Point legend, with ``t`` the trisected angle and the given angle ``3t``
opening counterclockwise from the positive x axis:

    O  corner of the sheet, the angle vertex, at the origin
    D  marked point on the y axis at height ``2 sin t`` (second crease height)
    S  midpoint of O and D, on the first crease ``y = sin t``
    H  image of O after the fold: on the first crease, on the unit circle
    C  image of D after the fold: on the far ray, on the unit circle
    G  midpoint of H and C (image of S), defining the middle trisecting ray
    P  foot of the perpendicular dropped from H onto the base ray
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import AngleOutOfRange
from .geom import (
    Angle,
    AngleLike,
    ORIGIN,
    Point2,
    as_angle,
    polar_radians,
    raw_radians,
)
from .report import VerificationReport


@dataclass(frozen=True)
class AbeConstruction:
    """The named point set and trisecting angles of the fold's end state.

    ``alpha``, ``beta``, ``gamma`` are the three angles between consecutive
    trisecting rays, measured from the constructed points. ``unit_length`` is
    the measured distance O-H (the fold is normalized so it equals 1).
    """

    three_theta: Angle
    theta: Angle
    O: Point2
    D: Point2
    S: Point2
    H: Point2
    C: Point2
    G: Point2
    P: Point2
    alpha: Angle
    beta: Angle
    gamma: Angle
    unit_length: float


def abe_construct(three_theta: AngleLike) -> AbeConstruction:
    """Build the fold end state for a given angle in (0, pi/2), exclusive.

    H sits on the first crease ``y = sin t`` (the corner maps onto it) and C
    sits on the ray at the full angle (the marked point maps onto it); both
    land on the unit circle, which is what makes the three angles equal.
    """
    t3_rad = raw_radians(three_theta)
    if not 0.0 < t3_rad < 0.5 * math.pi:
        raise AngleOutOfRange(
            f"origami construction requires an angle in (0, 90) degrees exclusive, "
            f"got {math.degrees(t3_rad):.6g}"
        )
    t3 = as_angle(three_theta)
    t = t3_rad / 3.0
    sin_t, cos_t = math.sin(t), math.cos(t)
    cx, cy = math.cos(t3_rad), math.sin(t3_rad)
    gx, gy = 0.5 * (cos_t + cx), 0.5 * (sin_t + cy)

    # H, G and C lie in the upper half-plane, where atan2 is already in
    # [0, 2*pi): these are their polar angles.
    alpha = math.atan2(sin_t, cos_t)
    g = math.atan2(gy, gx)

    return AbeConstruction(
        three_theta=t3,
        theta=Angle(t),
        O=ORIGIN,
        D=Point2(0.0, 2.0 * sin_t),
        S=Point2(0.0, sin_t),
        H=Point2(cos_t, sin_t),
        C=Point2(cx, cy),
        G=Point2(gx, gy),
        # The foot of the perpendicular from H onto the base ray.
        P=Point2(cos_t, 0.0),
        alpha=Angle(alpha),
        beta=Angle(g - alpha),
        gamma=Angle(math.atan2(cy, cx) - g),
        unit_length=math.hypot(cos_t, sin_t),
    )


def abe_verify(c: AbeConstruction) -> VerificationReport:
    """Measure every claimed relationship of the fold from the points.

    Angles are re-measured with atan2 rather than read from the stored
    fields, so a tampered or perturbed construction is flagged. All checked
    residuals sit at rounding level (<= 1e-12) for constructions produced by
    :func:`abe_construct`.

    Two readings of the point P exist in classical presentations of the
    fold: with P the foot of the perpendicular from H, the lengths O-P and
    H-P behave as expected (cos t and sin t), while the alternative reading
    "C-P equals sin t" does not hold for any point on the base ray. Both are
    reported; the alternative is informational only.
    """
    t = c.theta.radians
    t3 = c.three_theta.radians
    sin_t, cos_t = math.sin(t), math.cos(t)

    alpha = polar_radians(c.H)
    g = polar_radians(c.G)
    beta = g - alpha
    gamma = polar_radians(c.C) - g

    ox, oy = c.O.x, c.O.y
    dx, dy = c.D.x, c.D.y
    sx, sy = c.S.x, c.S.y
    hx, hy = c.H.x, c.H.y
    cx, cy = c.C.x, c.C.y
    gx, gy = c.G.x, c.G.y
    px, py = c.P.x, c.P.y
    hypot = math.hypot
    residuals = {
        "oh_vs_oc": abs(hypot(ox - hx, oy - hy) - hypot(ox - cx, oy - cy)),
        "hc_vs_od": abs(hypot(hx - cx, hy - cy) - hypot(ox - dx, oy - dy)),
        "os_vs_sd": abs(hypot(ox - sx, oy - sy) - hypot(sx - dx, sy - dy)),
        "hg_vs_gc": abs(hypot(hx - gx, hy - gy) - hypot(gx - cx, gy - cy)),
        "alpha_vs_beta": abs(alpha - beta),
        "beta_vs_gamma": abs(beta - gamma),
        "op_vs_cos_theta": abs(hypot(ox - px, oy - py) - cos_t),
        "hp_vs_sin_theta": abs(hypot(hx - px, hy - py) - sin_t),
        # Perpendicular distance of C from the ray at the full angle.
        "c_on_target_ray": abs(cx * math.sin(t3) - cy * math.cos(t3)),
        "angle_sum_vs_three_theta": abs(alpha + beta + gamma - t3),
        "h_on_first_crease": abs(hy - sin_t),
    }
    informational = {
        "cp_vs_sin_theta": abs(hypot(cx - px, cy - py) - sin_t),
    }
    return VerificationReport(residuals=residuals, informational=informational)
