"""Independent verifiers for the trisection pipeline.

Three ways of checking a trisection that share no code with the locus
solver: the closed-form division by three, the triple-angle cosine identity
cos 3t = 4 cos^3 t - 3 cos t, and the inscribed-chord diagram in which the
three arcs of a trisected angle cut equal chords on a half-unit circle.
Cross-validation runs all of them plus the origami reconstruction against
the same target and reports every residual; the identity is one of its
routes, evaluated for the oracle's and the solver's theta.
"""

from __future__ import annotations

import math

from .errors import MismatchDetected
from .geom import Angle, AngleLike, Value, as_float, target_radians
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


def oracle_theta(three_theta: AngleLike) -> float:
    """Ground-truth trisected angle in radians, as a float: one floating
    division by three of a target checked as given, AngleOutOfRange outside
    (0, 90] degrees."""
    t3 = target_radians(three_theta)
    return t3 / 3.0


def _identity_residual(theta: float, cos_t3: float) -> float:
    """|cos(3t) - (4 cos^3(theta) - 3 cos(theta))|, given cos(3t): zero
    exactly when theta is a true trisection of the target 3t; an algebraic
    check with no geometry in common with the other verifiers."""
    c = math.cos(theta)
    return abs(cos_t3 - (4.0 * c * c * c - 3.0 * c))


def chord_diagram(three_theta: AngleLike) -> ChordDiagram:
    """Construct the chord diagram for a target angle in (0, 90] degrees.

    K and L are the second intersections of the half-unit circle with the
    rays at two thirds and one third of the target: for a ray through A with
    unit direction u, the chord from A ends at 2(u . J)u since A itself lies
    on the circle. At exactly 90 degrees E closes onto A and the three
    chords are all one half.
    """
    t3 = target_radians(three_theta)
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
    by source."""

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
# A cross_validate report's keys, in order.
_KEYS = (("theta_locus_vs_oracle", "triple_angle_identity", "triple_angle_locus")
         + _TRISECTION_KEYS + ("theta_origami_vs_oracle", "theta_locus_vs_origami")
         + _ORIGAMI_KEYS + _CHORD_KEYS)


def cross_validate(three_theta: AngleLike, a: float, tol: float) -> CrossValidationReport:
    """Trisect the same target through every route and compare.

    Runs the locus solver, the origami reconstruction, the closed-form
    oracle, the triple-angle identity, and the chord diagram, then collects
    their residuals into one flat report. Raises MismatchDetected (report
    attached) if any two of the trisected-angle estimates disagree by more
    than ``tol``, comparing locus with oracle, then locus with origami, then
    oracle with origami; domain and convergence errors from the individual
    routes propagate unchanged.

    Each piece of work runs once: the target is checked by the routes that
    build from it, the identity takes one cosine of it for both thetas, and
    the fold's estimate is H's polar angle, which ``abe_verify`` checks.

    The report's keys come in a fixed order: ``theta_locus_vs_oracle``,
    ``triple_angle_identity`` and ``triple_angle_locus``; ``trisection_``
    and each ``verify_trisection`` key; ``theta_origami_vs_oracle`` and
    ``theta_locus_vs_origami``; ``origami_`` and each ``abe_verify`` key;
    last ``chord_`` and each ``chord_residuals`` key, each route's keys in
    the route's own order. Every target in the domain gets every key.
    """
    params = LocusParams(a)
    # trisect checks the target domain and tol; the routes below take the
    # target's float, and the gaps are compared with tol's.
    result = trisect(three_theta, params, tol)
    if type(tol) is not float:
        tol = as_float(tol)
    t3 = result.three_theta
    theta_locus = result.theta
    locus = theta_locus.radians
    oracle = oracle_theta(t3)
    gap = abs(locus - oracle)
    cos_t3 = math.cos(t3)
    values = [gap, _identity_residual(oracle, cos_t3), _identity_residual(locus, cos_t3)]
    values += verify_trisection(result, params).residuals.values()
    construction = abe_construct(t3)
    # The fold's estimate: H's polar angle, fold_angles' alpha.
    hx, hy = construction.H
    origami = math.atan2(hy, hx)
    origami_gap = abs(origami - oracle)
    cross_gap = abs(locus - origami)
    values += origami_gap, cross_gap
    values += abe_verify(construction).residuals.values()
    values += chord_residuals(chord_diagram(t3)).values()

    report = CrossValidationReport(theta_locus, dict(zip(_KEYS, values)))
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
