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
from .geom import _HALF_PI, Angle, AngleLike, Value, target_radians
from .locus import LocusParams, trisect, verify_trisection
from .origami import abe_construct, abe_verify, fold_angles
from .report import ResidualMap


class ChordDiagram(Value):
    """Chord construction for a target angle: the segment from the vertex A
    (the frame origin, so not stored) to F on the unit circle is a diameter
    of a half-unit circle centered at J; the trisecting rays cut that circle
    at K and L, and the arcs F-K, K-L, L-E all subtend equal chords of length
    sin(three_theta/3).

    E is the foot of F on the base line; G is the unit-circle point at the
    trisected angle, whose height above the base is the crease spacing used
    by the origami fold. The diagram stores its target as the float in
    radians that the domain check returned, and otherwise only points, each
    an ``(x, y)`` tuple of floats: every length is measured from them by
    :func:`chord_residuals`.
    """

    __slots__ = ("three_theta", "E", "F", "G", "J", "K", "L")

    def __init__(self, three_theta: float, E: tuple[float, float],
                 F: tuple[float, float], G: tuple[float, float], J: tuple[float, float],
                 K: tuple[float, float], L: tuple[float, float]) -> None:
        self.three_theta = three_theta
        self.E = E
        self.F = F
        self.G = G
        self.J = J
        self.K = K
        self.L = L


def oracle_theta(three_theta: AngleLike) -> Angle:
    """Ground-truth trisected angle: one floating division by three of a
    target checked as given, AngleOutOfRange outside (0, 90] degrees."""
    t3 = target_radians(three_theta, "division oracle requires an angle in (0, 90] degrees")
    return Angle(t3 / 3.0)


def triple_angle_residual(theta: AngleLike, three_theta: AngleLike) -> float:
    """|cos(three_theta) - (4 cos^3(theta) - 3 cos(theta))|.

    Zero exactly when theta is a true trisection of three_theta; an
    algebraic check with no geometry in common with the other verifiers.
    Both angles are checked as given: AngleOutOfRange outside (0, 90]
    degrees, or [0, 90] for theta, as the third of the least subnormal
    target, 5e-324, rounds to 0.
    """
    t = target_radians(theta, "triple-angle identity requires theta in [0, 90] degrees",
                       zero=True)
    t3 = target_radians(three_theta, "triple-angle identity requires an angle in (0, 90] degrees")
    c = math.cos(t)
    return abs(math.cos(t3) - (4.0 * c * c * c - 3.0 * c))


def chord_diagram(three_theta: AngleLike) -> ChordDiagram:
    """Construct the chord diagram for a target angle in (0, 90] degrees.

    K and L are the second intersections of the half-unit circle with the
    rays at two thirds and one third of the target: for a ray through A with
    unit direction u, the chord from A ends at 2(u . J)u since A itself lies
    on the circle. At exactly 90 degrees E closes onto A and the three
    chords are all one half.
    """
    t3 = target_radians(three_theta, "chord diagram requires an angle in (0, 90] degrees")
    t = t3 / 3.0

    fx, fy = math.cos(t3), math.sin(t3)
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
        (fx, 0.0),
        (fx, fy),
        (gx, gy),
        (jx, jy),
        (kx, ky),
        (lx, ly),
    )


def chord_residuals(d: ChordDiagram) -> dict[str, float]:
    """Residuals of the diagram against its closed forms, all measured from
    its ``(x, y)`` points, so a moved or NaN coordinate shows in a residual
    that reads it: all five marked points at distance 1/2 from J, the three
    chords FK, KL, LE and the crease spacing (G's height above the base
    line) at sin(theta), and |GF| at 2 sin(theta). Each segment is the
    ``math.dist`` of its two points; |JA| is ``math.hypot`` of J."""
    sin_t = math.sin(d.three_theta / 3.0)
    dist = math.dist
    return {
        "ja_radius": abs(math.hypot(*d.J) - 0.5),
        "jf_radius": abs(dist(d.J, d.F) - 0.5),
        "je_radius": abs(dist(d.J, d.E) - 0.5),
        "jk_radius": abs(dist(d.J, d.K) - 0.5),
        "jl_radius": abs(dist(d.J, d.L) - 0.5),
        "fk_vs_sin_theta": abs(dist(d.F, d.K) - sin_t),
        "kl_vs_sin_theta": abs(dist(d.K, d.L) - sin_t),
        "le_vs_sin_theta": abs(dist(d.L, d.E) - sin_t),
        "bg_vs_sin_theta": abs(abs(d.G[1]) - sin_t),
        "gf_vs_2sin_theta": abs(dist(d.G, d.F) - 2.0 * sin_t),
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


# Report keys of each route's residuals: the names one call of the route
# returns, in its order, with the route's prefix added once, here, so that
# cross_validate builds no key string per call. Every call of a route
# returns the same names in the same order, so zip pairs these keys with
# any later call's values.
_TRISECTION_KEYS = tuple("trisection_" + name for name in verify_trisection(
    trisect(1.0, LocusParams(1.0)), LocusParams(1.0)).residuals)
_ORIGAMI_KEYS = tuple("origami_" + name for name in abe_verify(abe_construct(1.0)).residuals)
_CHORD_KEYS = tuple("chord_" + name for name in chord_residuals(chord_diagram(1.0)))


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
    # trisect checks the target domain; the routes below take its float.
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
    if t3 < _HALF_PI:
        construction = abe_construct(t3)
        origami = fold_angles(construction)[0]
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
        f"{gap!r} rad (> tol {tol!r}) at target {math.degrees(t3):.6g} deg",
        report=report,
    )
