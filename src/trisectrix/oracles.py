"""Independent verifiers for the trisection pipeline.

Three ways of trisecting that share no code with the locus solver: the
closed-form division by three, the triple-angle cosine identity, and the
inscribed-chord diagram in which the three arcs of a trisected angle cut
equal chords on a half-unit circle. Cross-validation runs all of them plus
the origami reconstruction against the same target and reports every
residual.
"""

from __future__ import annotations

import math

from .errors import MismatchDetected
from .geom import _HALF_PI, Angle, AngleLike, Point2, Value, as_angle, target_angle
from .locus import LocusParams, trisect, verify_trisection
from .origami import abe_construct, abe_verify
from .report import ResidualMap


class ChordDiagram(Value):
    """Chord construction for a target angle: the segment from the vertex A
    (the frame origin, so not stored) to F on the unit circle is a diameter
    of a half-unit circle centered at J; the trisecting rays cut that circle
    at K and L, and the arcs F-K, K-L, L-E all subtend equal chords of length
    sin(three_theta/3).

    E is the foot of F on the base line; G is the unit-circle point at the
    trisected angle, whose height above the base (``fold_BG``) is the crease
    spacing used by the origami fold.
    """

    __slots__ = ("three_theta", "E", "F", "G", "J", "K", "L", "chord_FK", "chord_KL",
                 "chord_LE", "fold_BG")

    def __init__(self, three_theta: Angle, E: Point2, F: Point2, G: Point2, J: Point2,
                 K: Point2, L: Point2, chord_FK: float, chord_KL: float,
                 chord_LE: float, fold_BG: float) -> None:
        self.three_theta = three_theta
        self.E = E
        self.F = F
        self.G = G
        self.J = J
        self.K = K
        self.L = L
        self.chord_FK = chord_FK
        self.chord_KL = chord_KL
        self.chord_LE = chord_LE
        self.fold_BG = fold_BG


def oracle_theta(three_theta: AngleLike) -> Angle:
    """Ground-truth trisected angle: one floating division by three."""
    return Angle(as_angle(three_theta).radians / 3.0)


def triple_angle_residual(theta: AngleLike, three_theta: AngleLike) -> float:
    """|cos(three_theta) - (4 cos^3(theta) - 3 cos(theta))|.

    Zero exactly when theta is a true trisection of three_theta; an
    algebraic check with no geometry in common with the other verifiers.
    """
    c = math.cos(as_angle(theta).radians)
    return abs(math.cos(as_angle(three_theta).radians) - (4.0 * c * c * c - 3.0 * c))


def chord_diagram(three_theta: AngleLike) -> ChordDiagram:
    """Construct the chord diagram for a target angle in (0, 90] degrees.

    K and L are the second intersections of the half-unit circle with the
    rays at two thirds and one third of the target: for a ray through A with
    unit direction u, the chord from A ends at 2(u . J)u since A itself lies
    on the circle. At exactly 90 degrees E closes onto A and the three
    chords are all one half.
    """
    t3 = target_angle(three_theta, "chord diagram requires an angle in (0, 90] degrees")
    t3_rad = t3.radians
    t = t3_rad / 3.0

    fx, fy = math.cos(t3_rad), math.sin(t3_rad)
    # J is the midpoint of A (the origin) and F.
    jx, jy = 0.5 * fx, 0.5 * fy
    gx, gy = math.cos(t), math.sin(t)
    # K and L are the second hits of the rays at 2t and t; G is on the
    # second of them.
    ux, uy = math.cos(2.0 * t), math.sin(2.0 * t)
    s = 2.0 * (ux * jx + uy * jy)
    kx, ky = s * ux, s * uy
    s = 2.0 * (gx * jx + gy * jy)
    lx, ly = s * gx, s * gy

    return ChordDiagram(
        t3,
        Point2(fx, 0.0),
        Point2(fx, fy),
        Point2(gx, gy),
        Point2(jx, jy),
        Point2(kx, ky),
        Point2(lx, ly),
        math.hypot(fx - kx, fy - ky),
        math.hypot(kx - lx, ky - ly),
        math.hypot(lx - fx, ly),
        # fold_BG, the perpendicular distance from G to the base line.
        abs(gy),
    )


def chord_residuals(d: ChordDiagram) -> dict[str, float]:
    """Residuals of the diagram against its closed forms: all five marked
    points at distance 1/2 from J, the three chords and the crease spacing
    at sin(theta), and |GF| at 2 sin(theta)."""
    t = d.three_theta.radians / 3.0
    sin_t = math.sin(t)
    jx, jy = d.J.x, d.J.y
    fx, fy = d.F.x, d.F.y
    hypot = math.hypot
    return {
        "ja_radius": abs(hypot(jx, jy) - 0.5),
        "jf_radius": abs(hypot(jx - fx, jy - fy) - 0.5),
        "je_radius": abs(hypot(jx - d.E.x, jy - d.E.y) - 0.5),
        "jk_radius": abs(hypot(jx - d.K.x, jy - d.K.y) - 0.5),
        "jl_radius": abs(hypot(jx - d.L.x, jy - d.L.y) - 0.5),
        "fk_vs_sin_theta": abs(d.chord_FK - sin_t),
        "kl_vs_sin_theta": abs(d.chord_KL - sin_t),
        "le_vs_sin_theta": abs(d.chord_LE - sin_t),
        "bg_vs_sin_theta": abs(d.fold_BG - sin_t),
        "gf_vs_2sin_theta": abs(hypot(d.G.x - fx, d.G.y - fy) - 2.0 * sin_t),
    }


class CrossValidationReport(ResidualMap):
    """The locus solver's trisected angle and every route's residual, keyed
    by source.

    At exactly 90 degrees no ``origami_*``, ``theta_origami_vs_oracle`` or
    ``theta_locus_vs_origami`` residual appears: the fold construction sits
    on the excluded boundary of its open domain there, while the locus
    solver and the chord diagram still cover the target.
    """

    __slots__ = ("theta_locus", "residuals")

    def __init__(self, theta_locus: Angle, residuals: dict[str, float]) -> None:
        self.theta_locus = theta_locus
        self.residuals = residuals


# Report keys of each route's residuals, in the order the route returns
# them: the route's own names with its prefix added once, here, so that
# cross_validate builds no key string per call. zip pairs them with the
# route's values by position, so a route that adds, drops or renames a
# residual must change its tuple too; a test holds the two to one order.
_TRISECTION_KEYS = tuple("trisection_" + n for n in (
    "three_theta_vs_target", "jn_vs_2a", "on_vs_unit_length",
    "fold_ratio_vs_sin_theta", "locus_relation_at_n",
))
_ORIGAMI_KEYS = tuple("origami_" + n for n in (
    "oh_vs_oc", "hc_vs_od", "os_vs_sd", "hg_vs_gc", "alpha_vs_beta", "beta_vs_gamma",
    "op_vs_cos_theta", "hp_vs_sin_theta", "c_on_target_ray",
    "angle_sum_vs_three_theta", "h_on_first_crease",
))
_CHORD_KEYS = tuple("chord_" + n for n in (
    "ja_radius", "jf_radius", "je_radius", "jk_radius", "jl_radius",
    "fk_vs_sin_theta", "kl_vs_sin_theta", "le_vs_sin_theta", "bg_vs_sin_theta",
    "gf_vs_2sin_theta",
))


def cross_validate(three_theta: AngleLike, a: float, tol: float) -> CrossValidationReport:
    """Trisect the same target through every available route and compare.

    Runs the locus solver, the origami reconstruction, the closed-form
    oracle, the triple-angle identity, and the chord diagram, then collects
    their residuals into one flat report. Raises MismatchDetected (report
    attached) if any two of the trisected-angle estimates disagree by more
    than ``tol``, comparing locus with oracle, then locus with origami, then
    oracle with origami; domain and convergence errors from the individual
    routes propagate unchanged.

    The report's keys come in a fixed order: ``theta_locus_vs_oracle``,
    ``triple_angle_identity`` and ``triple_angle_locus``; ``trisection_``
    and each ``verify_trisection`` key; below 90 degrees,
    ``theta_origami_vs_oracle``, ``theta_locus_vs_origami``, then
    ``origami_`` and each ``abe_verify`` key; last ``chord_`` and each
    ``chord_residuals`` key, each route's keys in the route's own order.
    """
    params = LocusParams(a)
    # trisect checks the target domain; the routes below reuse its Angle.
    result = trisect(three_theta, params, tol)
    t3 = result.three_theta
    theta_locus = result.theta
    theta_oracle = oracle_theta(t3)
    locus, oracle = theta_locus.radians, theta_oracle.radians
    gap = abs(locus - oracle)

    residuals: dict[str, float] = {
        "theta_locus_vs_oracle": gap,
        "triple_angle_identity": triple_angle_residual(theta_oracle, t3),
        "triple_angle_locus": triple_angle_residual(theta_locus, t3),
    }
    residuals.update(zip(_TRISECTION_KEYS, verify_trisection(result, params).residuals.values()))
    if t3.radians < _HALF_PI:
        construction = abe_construct(t3)
        origami = construction.alpha.radians
        origami_gap = abs(origami - oracle)
        cross_gap = abs(locus - origami)
        residuals["theta_origami_vs_oracle"] = origami_gap
        residuals["theta_locus_vs_origami"] = cross_gap
        residuals.update(zip(_ORIGAMI_KEYS, abe_verify(construction).residuals.values()))
    else:
        # No fold estimate at 90 degrees; tol > 0, so these never mismatch.
        origami_gap = cross_gap = 0.0
    residuals.update(zip(_CHORD_KEYS, chord_residuals(chord_diagram(t3)).values()))

    report = CrossValidationReport(theta_locus, residuals)
    if gap > tol:
        first, second = "locus", "oracle"
    elif cross_gap > tol:
        first, second, gap = "locus", "origami", cross_gap
    elif origami_gap > tol:
        first, second, gap = "oracle", "origami", origami_gap
    else:
        return report
    raise MismatchDetected(
        f"trisected-angle estimates {first} and {second} differ by "
        f"{gap!r} rad (> tol {tol!r}) at target {t3.degrees:.6g} deg",
        report=report,
    )
