"""Hisashi Abe's origami trisection, reconstructed and checked coordinate-wise.

The fold brings the corner of the sheet onto the first crease while a second
marked point lands on the far side of the given angle; the crease directions
then trisect the angle. Rather than simulating the fold search, the module
synthesizes the known end state of that construction for a given angle and
verifies every equal-segment and equal-angle relationship it promises, all
measured from the coordinates (never assumed).

Point legend, with ``t`` the trisected angle and the given angle ``3t``
opening counterclockwise from the positive x axis. Each stored point is an
``(x, y)`` pair of floats:

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

from .geom import Angle, AngleLike, Value, target_angle
from .report import VerificationReport


class AbeConstruction(Value):
    """The target angle and the named points of the fold's end state,
    normalized so that H and C lie on the unit circle. Each point is an
    ``(x, y)`` tuple of floats, unchecked when stored: a NaN coordinate shows
    as a NaN residual of :func:`abe_verify`, which fails the report. No
    angle or length is stored: :func:`fold_angles` and :func:`abe_verify`
    measure them."""

    __slots__ = ("three_theta", "D", "S", "H", "C", "G", "P")

    def __init__(self, three_theta: Angle, D: tuple[float, float],
                 S: tuple[float, float], H: tuple[float, float], C: tuple[float, float],
                 G: tuple[float, float], P: tuple[float, float]) -> None:
        self.three_theta = three_theta
        self.D = D
        self.S = S
        self.H = H
        self.C = C
        self.G = G
        self.P = P


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

    return AbeConstruction(
        t3,
        (0.0, 2.0 * sin_t),
        (0.0, sin_t),
        (cos_t, sin_t),
        (cx, cy),
        (0.5 * (cos_t + cx), 0.5 * (sin_t + cy)),
        # P, the foot of the perpendicular from H onto the base ray.
        (cos_t, 0.0),
    )


def fold_angles(c: AbeConstruction) -> tuple[float, float, float]:
    """(alpha, beta, gamma) in radians, measured with atan2: the base ray to
    the ray through H, that ray to G's, and G's to C's. alpha is the fold's
    trisected angle. Any point is measured, so a moved one shows in
    :func:`abe_verify`'s angle residuals instead of raising."""
    hx, hy = c.H
    gx, gy = c.G
    cx, cy = c.C
    alpha = math.atan2(hy, hx)
    g = math.atan2(gy, gx)
    return alpha, g - alpha, math.atan2(cy, cx) - g


def abe_verify(c: AbeConstruction) -> VerificationReport:
    """Measure every claimed relationship of the fold from the points.

    The three angles come from :func:`fold_angles` and theta is the stored
    target divided by three, so a tampered or perturbed point is flagged.
    An H, G or C moved to the origin or below the base line is flagged the
    same way, and nothing raises; a NaN coordinate of any point gives a NaN
    residual, which no tolerance passes. All checked residuals sit at rounding
    level (<= 1e-12) for constructions produced by :func:`abe_construct`,
    whose H, G and C lie in the upper half-plane. Distances from O, the
    origin, are the hypot of the point itself.
    """
    t3 = c.three_theta.radians
    t = t3 / 3.0
    sin_t, cos_t = math.sin(t), math.cos(t)

    dx, dy = c.D
    sx, sy = c.S
    hx, hy = c.H
    cx, cy = c.C
    gx, gy = c.G
    px, py = c.P

    alpha, beta, gamma = fold_angles(c)
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
