"""Hisashi Abe's origami trisection, reconstructed and checked coordinate-wise.

The fold brings the corner of the sheet onto the first crease while a second
marked point lands on the far side of the given angle; the crease directions
then trisect the angle. Rather than simulating the fold search, the module
synthesizes the known end state of that construction for a given angle and
verifies every equal-segment and equal-angle relationship it promises, all
measured from the coordinates (never assumed).

Point legend, with ``t`` the trisected angle and the given angle ``3t``
opening counterclockwise from the positive x axis:

    O  corner of the sheet, the angle vertex: the frame origin, not stored
    D  marked point on the y axis at height ``2 sin t`` (second crease height)
    S  midpoint of O and D, on the first crease ``y = sin t``
    H  image of O after the fold: on the first crease, on the unit circle
    C  image of D after the fold: on the far ray, on the unit circle
    G  midpoint of H and C (image of S), defining the middle trisecting ray
    P  foot of the perpendicular dropped from H onto the base ray
"""

from __future__ import annotations

import math

from .geom import Angle, AngleLike, Point2, Value, target_angle
from .report import VerificationReport


class AbeConstruction(Value):
    """The named point set and trisecting angles of the fold's end state.

    ``alpha``, ``beta``, ``gamma`` are the three angles between consecutive
    trisecting rays, measured from the constructed points. ``unit_length`` is
    the measured distance O-H (the fold is normalized so it equals 1).
    """

    __slots__ = ("three_theta", "theta", "D", "S", "H", "C", "G", "P", "alpha", "beta",
                 "gamma", "unit_length")

    def __init__(self, three_theta: Angle, theta: Angle, D: Point2, S: Point2,
                 H: Point2, C: Point2, G: Point2, P: Point2, alpha: Angle,
                 beta: Angle, gamma: Angle, unit_length: float) -> None:
        self.three_theta = three_theta
        self.theta = theta
        self.D = D
        self.S = S
        self.H = H
        self.C = C
        self.G = G
        self.P = P
        self.alpha = alpha
        self.beta = beta
        self.gamma = gamma
        self.unit_length = unit_length


def abe_construct(three_theta: AngleLike) -> AbeConstruction:
    """Build the fold end state for a given angle in (0, pi/2), exclusive.

    H sits on the first crease ``y = sin t`` (the corner maps onto it) and C
    sits on the ray at the full angle (the marked point maps onto it); both
    land on the unit circle, which is what makes the three angles equal.
    """
    t3 = target_angle(
        three_theta,
        "origami construction requires an angle in (0, 90) degrees exclusive",
        False,
    )
    t3_rad = t3.radians
    t = t3_rad / 3.0
    sin_t, cos_t = math.sin(t), math.cos(t)
    cx, cy = math.cos(t3_rad), math.sin(t3_rad)
    gx, gy = 0.5 * (cos_t + cx), 0.5 * (sin_t + cy)

    # H, G and C lie in the upper half-plane, where atan2 is already in
    # [0, 2*pi): these are their polar angles.
    alpha = math.atan2(sin_t, cos_t)
    g = math.atan2(gy, gx)

    return AbeConstruction(
        t3,
        Angle(t),
        Point2(0.0, 2.0 * sin_t),
        Point2(0.0, sin_t),
        Point2(cos_t, sin_t),
        Point2(cx, cy),
        Point2(gx, gy),
        # P, the foot of the perpendicular from H onto the base ray.
        Point2(cos_t, 0.0),
        Angle(alpha),
        Angle(g - alpha),
        Angle(math.atan2(cy, cx) - g),
        math.hypot(cos_t, sin_t),
    )


def abe_verify(c: AbeConstruction) -> VerificationReport:
    """Measure every claimed relationship of the fold from the points.

    Angles are re-measured with atan2 rather than read from the stored
    fields, so a tampered or perturbed construction is flagged. An H, G or
    C moved to the origin or below the base line is flagged the same way,
    and nothing raises. All checked residuals sit at rounding level (<= 1e-12) for
    constructions produced by :func:`abe_construct`, whose H, G and C lie
    in the upper half-plane. Distances from O, the origin, are the hypot of
    the point itself.
    """
    t = c.theta.radians
    t3 = c.three_theta.radians
    sin_t, cos_t = math.sin(t), math.cos(t)

    dx, dy = c.D.x, c.D.y
    sx, sy = c.S.x, c.S.y
    hx, hy = c.H.x, c.H.y
    cx, cy = c.C.x, c.C.y
    gx, gy = c.G.x, c.G.y
    px, py = c.P.x, c.P.y

    alpha = math.atan2(hy, hx)
    g = math.atan2(gy, gx)
    beta = g - alpha
    gamma = math.atan2(cy, cx) - g
    hypot = math.hypot
    residuals = {
        "oh_vs_oc": abs(hypot(hx, hy) - hypot(cx, cy)),
        "hc_vs_od": abs(hypot(hx - cx, hy - cy) - hypot(dx, dy)),
        "os_vs_sd": abs(hypot(sx, sy) - hypot(sx - dx, sy - dy)),
        "hg_vs_gc": abs(hypot(hx - gx, hy - gy) - hypot(gx - cx, gy - cy)),
        "alpha_vs_beta": abs(alpha - beta),
        "beta_vs_gamma": abs(beta - gamma),
        "op_vs_cos_theta": abs(hypot(px, py) - cos_t),
        "hp_vs_sin_theta": abs(hypot(hx - px, hy - py) - sin_t),
        # Perpendicular distance of C from the ray at the full angle.
        "c_on_target_ray": abs(cx * math.sin(t3) - cy * math.cos(t3)),
        "angle_sum_vs_three_theta": abs(alpha + beta + gamma - t3),
        "h_on_first_crease": abs(hy - sin_t),
    }
    return VerificationReport(residuals)
