"""Hisashi Abe's origami trisection, reconstructed and checked coordinate-wise.

The fold brings the corner of the sheet onto the first crease while a second
marked point lands on the far side of the given angle; the crease directions
then trisect the angle. Rather than simulating the fold search, the module
synthesizes the known end state of that construction for a given angle and
verifies every equal-segment and equal-angle relationship it promises, all
measured from the coordinates (never assumed).

Point legend, with ``t`` the trisected angle and the given angle ``3t``
opening counterclockwise from the positive x axis. The construction stores
``3t`` in radians, as a float, and each point as an ``(x, y)`` pair of
floats:

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

from .geom import AngleLike, Value, target_radians
from .report import VerificationReport


class AbeConstruction(Value):
    """The target angle and the named points of the fold's end state,
    normalized so that H and C lie on the unit circle. The target is the
    float in radians that the domain check returned, and each point an
    ``(x, y)`` tuple of floats; none is checked when stored: a NaN shows as
    a NaN residual of :func:`abe_verify`, which fails the report. No other
    angle and no length is stored: :func:`fold_angles` and
    :func:`abe_verify` measure them."""

    __slots__ = ("three_theta", "D", "S", "H", "C", "G", "P")

    def __init__(self, three_theta: float, D: tuple[float, float],
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
    """Build the fold end state for a given angle in (0, pi/2].

    H sits on the first crease ``y = sin t`` (the corner maps onto it) and C
    sits on the ray at the full angle (the marked point maps onto it); both
    land on the unit circle, which is what makes the three angles equal. At
    exactly pi/2, D = (0, 1) already lies on that ray, so the crease passes
    through D and C = D, up to rounding.
    """
    t3 = target_radians(three_theta)
    t = t3 / 3.0
    sin_t, cos_t = math.sin(t), math.cos(t)
    cx, cy = math.cos(t3), math.sin(t3)

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
    target divided by three, so a moved H, C or P is flagged, as are G
    turned off its ray and D or S moved along the y axis. These moves are
    not: G moved along its own ray (G halved toward O passes at 1e-12, its
    worst residual 5.6e-17 at 60 degrees); S moved along the first crease,
    off the y axis, which keeps |OS| = |SD| exactly; and D or S turned about
    O, which keeps |OD| and moves ``os_vs_sd`` only to second order (3.4e-13
    for a turn of 1e-6 rad at 60 degrees). An H, G or C moved to the origin
    or below the base line is flagged, and nothing raises; a NaN coordinate
    of any point gives a NaN residual, which no tolerance passes. All checked
    residuals sit at rounding level (<= 1e-12) for constructions produced by
    :func:`abe_construct`, whose H, G and C lie in the upper half-plane. Each
    segment is the ``math.dist`` of its two points; a distance from O, the
    origin, is the ``math.hypot`` of the point.
    """
    t3 = c.three_theta
    t = t3 / 3.0
    sin_t, cos_t = math.sin(t), math.cos(t)

    alpha, beta, gamma = fold_angles(c)
    dist, hypot = math.dist, math.hypot
    cx, cy = c.C
    residuals = {
        "oh_vs_oc": abs(hypot(*c.H) - hypot(*c.C)),
        "hc_vs_od": abs(dist(c.H, c.C) - hypot(*c.D)),
        "os_vs_sd": abs(hypot(*c.S) - dist(c.S, c.D)),
        "hg_vs_gc": abs(dist(c.H, c.G) - dist(c.G, c.C)),
        "alpha_vs_beta": abs(alpha - beta),
        "beta_vs_gamma": abs(beta - gamma),
        "op_vs_cos_theta": abs(hypot(*c.P) - cos_t),
        "hp_vs_sin_theta": abs(dist(c.H, c.P) - sin_t),
        # Perpendicular distance of C from the ray at the full angle.
        "c_on_target_ray": abs(cx * math.sin(t3) - cy * math.cos(t3)),
        "angle_sum_vs_three_theta": abs(alpha + beta + gamma - t3),
        "h_on_first_crease": abs(c.H[1] - sin_t),
    }
    return VerificationReport(residuals)
