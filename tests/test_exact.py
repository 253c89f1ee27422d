"""The paper's identities, checked exactly: the curve formula uses only
+ - * /, so over rationals each identity holds with ``==``, no tolerance.
Floats are rationals too, so the exact intersection certifies every float
curve point and its residual columns, and the paper's cubic every solve."""

import copy
import math
from fractions import Fraction

from hypothesis import assume, example, given, settings, strategies as st

from test_locus import wide_targets
from test_oracles import _log_uniform

from trisectrix.errors import MaxIterationsExceeded
from trisectrix.geom import SQRT3, Angle, Point2
from trisectrix.locus import FOLD_MAX, FOLD_MIN, LocusParams, _q_coords, locus_point, trisect

positive = st.fractions(min_value=Fraction(1, 10**6), max_value=10**6, max_denominator=10**6)


@given(a=positive, ratio=st.fractions(min_value=Fraction(173, 100), max_value=10**6,
                                      max_denominator=10**6))
def test_curve_point_satisfies_the_paper_identities_exactly(a, ratio):
    # b/a >= sqrt(3): the curve starts at b = sqrt(3)*a.
    assume(ratio * ratio >= 3)
    b = a * ratio
    x, y = _q_coords(a, b)
    assert type(x) is Fraction and type(y) is Fraction
    r2 = x * x + y * y
    # Circle 1 about O through J = (b, a), and circle 2 of radius 2a about J.
    assert r2 == a * a + b * b
    assert (x - b) * (x - b) + (y - a) * (y - a) == 4 * a * a
    # Their radical line.
    assert b * x + a * y == b * b - a * a
    # Q lies on the ray at three times J's angle: along (1 + i*s)^3, s = a/b.
    s = a / b
    u, v = 1 - 3 * s * s, s * (3 - s * s)
    assert x * v == y * u
    assert x * u + y * v > 0
    # The b-free locus equation, and the cubic (x^2 + y^2)(3a - y) = 4a^3.
    assert (r2 - 2 * a * a - a * y) ** 2 == x * x * (r2 - a * a)
    assert r2 * (3 * a - y) == 4 * a ** 3
    # The fold: the crease that takes O onto J, the perpendicular bisector of
    # OJ, takes D = (0, 2a) onto Q.
    k = 1 - 4 * a * a / (a * a + b * b)
    assert (k * b, 2 * a + k * a) == (x, y)


def _is_the_exact_point(q, a, b, scale):
    """Whether each coordinate of the float point ``q`` is within 4 ulp of
    ``scale`` of the exact Q at the float fold ``a`` and parameter ``b``."""
    x, y = _q_coords(Fraction(a), Fraction(b))
    bound = 4 * Fraction(math.ulp(scale))
    return abs(Fraction(q.x) - x) <= bound and abs(Fraction(q.y) - y) <= bound


def _exact_columns(p, a):
    """Whether each residual column of the locus point ``p`` at fold ``a`` is
    within 4 ulp of a^2 + b^2 of the exact residual of its float Q."""
    x, y, fa, b = Fraction(p.q.x), Fraction(p.q.y), Fraction(a), Fraction(p.b)
    exact = (x * x + y * y - (fa * fa + b * b),
             (x - b) * (x - b) + (y - fa) * (y - fa) - 4 * fa * fa,
             b * x + fa * y - (b * b - fa * fa))
    columns = (p.residual_circle1, p.residual_circle2, p.residual_locus_relation)
    bound = 4 * Fraction(math.ulp(a * a + p.b * p.b))
    return [abs(Fraction(got) - abs(want)) <= bound for got, want in zip(columns, exact)]


@given(ab=st.tuples(_log_uniform(FOLD_MIN, FOLD_MAX), _log_uniform(SQRT3, 1e12)).map(
    lambda t: (t[0], t[0] * t[1])))
# The curve start (0, 2a), and (cos 60, sin 60) at a = sin 20, b = cos 20.
@example(ab=(1.0, SQRT3))
@example(ab=(math.sin(math.radians(20.0)), math.cos(math.radians(20.0))))
@settings(deadline=None, max_examples=500)
def test_every_curve_point_is_the_exact_one_to_4_ulp(ab):
    a, b = ab
    p = locus_point(LocusParams(a), b)
    assert _is_the_exact_point(p.q, a, b, math.hypot(a, b))
    assert _exact_columns(p, a) == [True] * 3


def _certificate(r, a, angle_term):
    """Whether the cubic certifies b*, theta and the unit length of the
    result ``r`` at fold ``a``, given the budget ``angle_term`` of the stop
    on theta: a triple of bools, in that order.

    Q's direction is (1 + i*s)^3, so on the float ray (cos phi, sin phi) of
    the target the crossing is the root of p(s) = y(1 - 3s^2) - x*s(3 - s^2),
    which is strictly decreasing on [0, 1]; p(s - delta) >= 0 >= p(s + delta),
    evaluated over Fractions, puts the root within delta of s. An error d in
    theta = atan s is an error (1 + s^2)*d in s. The budget d is the stop's
    share plus 4 ulp of theta and 2.3e-16 for the rounding of cos phi and
    sin phi, padded by a relative 1e-9. b* is certified through s = a/b*,
    theta through s = tan theta, one rounding (one ulp of theta) more.

    The true |OJ|^2 is a^2(1 + 1/s0^2) at the root s0, which falls as s0
    grows: with s0 in [s - delta, s + delta] for s = a/b*, the unit length
    squared lies between its values at the two ends, widened by 2**-51 for
    the rounding of hypot; below s = delta only the lower end bounds it."""
    phi, theta = r.three_theta, r.theta.radians
    x, y = Fraction(math.cos(phi)), Fraction(math.sin(phi))
    d = angle_term + 4 * math.ulp(theta) + 2.3e-16

    def p(s):
        return y * (1 - 3 * s * s) - x * s * (3 - s * s)

    def within(s, d):
        delta = (1 + s * s) * Fraction(d * (1 + 1e-9))
        return p(s - delta) >= 0 >= p(s + delta), delta

    s = Fraction(a) / Fraction(r.b_star)
    b_star_ok, delta = within(s, d)
    theta_ok, _ = within(Fraction(math.tan(theta)), d + math.ulp(theta))
    u2, a2, eta = Fraction(r.unit_length) ** 2, Fraction(a) ** 2, Fraction(1, 2**51)
    unit_ok = u2 >= a2 * (1 + 1 / (s + delta) ** 2) * (1 - eta) and (
        s <= delta or u2 <= a2 * (1 + 1 / (s - delta) ** 2) * (1 + eta))
    return b_star_ok, theta_ok, unit_ok


def _fixed_solve_examples(test):
    # Fixed solves, so N, |ON| and |NJ| are certified at every run: 7, 33, 61
    # and 90 degrees at folds 0.3, 1 and 2.7, and 1.1 rad at tol 1e-13 at
    # powers of two of fold 1 and at 3.7, which no power of two reaches.
    solves = [(math.radians(d), a, 1e-12) for d in (7.0, 33.0, 61.0, 90.0) for a in (0.3, 1.0, 2.7)]
    for target, a, tol in solves + [(1.1, a, 1e-13) for a in (1.0, 0.25, 0.5, 2.0, 8.0, 3.7)]:
        test = example(target=target, a=a, tol=tol)(test)
    return test


@given(
    target=wide_targets,
    a=_log_uniform(FOLD_MIN, FOLD_MAX),
    # The wide tols end in the stop test; the tiny ones reach the collapse
    # of the bracket to two adjacent floats.
    tol=_log_uniform(1e-12, 1e-3) | _log_uniform(1e-18, 1e-12),
)
@example(target=math.radians(7.0), a=1.0, tol=1e-17)
@example(target=math.radians(1e-298), a=1.0, tol=1e-320)
# The default tol at fold 1: at 60 degrees, at both ends of [0.001, pi/2],
# and at 2 degrees, where a stop at tol in place of tol/2 breaks tol/6.
@example(target=math.radians(60.0), a=1.0, tol=1e-12)
@example(target=math.radians(2.0), a=1.0, tol=1e-12)
@example(target=0.001, a=1.0, tol=1e-12)
@example(target=math.pi / 2.0, a=1.0, tol=1e-12)
@_fixed_solve_examples
@settings(deadline=None, max_examples=500)
def test_every_solve_is_certified_by_the_cubic(target, a, tol):
    # A result stops within tol/2 of the target on 3*theta, so within tol/6
    # on theta; a result attached to MaxIterationsExceeded (the bracket's
    # collapse, or no upper bracket) is as far off as its angle_residual.
    try:
        r = trisect(target, LocusParams(a), tol)
        angle_term = tol / 6
    except MaxIterationsExceeded as exc:
        r = exc.result
        angle_term = abs(r.angle_residual) / 3
    assert _certificate(r, a, angle_term) == (True, True, True)
    assert _is_the_exact_point(r.n_point, a, r.b_star, r.unit_length)


def test_certificate_rejects_a_moved_crossing():
    # The budget is tight enough to see b*, theta or the unit length moved
    # by a relative 1e-9, the point check to see N moved as far, and the
    # column check to see a residual column moved by 2**-40 * (a^2 + b^2).
    a, tol = 1.0, 1e-12
    r = trisect(math.radians(60.0), LocusParams(a), tol)
    assert _certificate(r, a, tol / 6) == (True, True, True)
    for factor in (1.0 - 1e-9, 1.0 + 1e-9):
        moved = [copy.copy(r) for _ in range(3)]
        moved[0].b_star *= factor
        moved[1].theta = Angle(r.theta.radians * factor)
        moved[2].unit_length *= factor
        assert [_certificate(m, a, tol / 6)[i] for i, m in enumerate(moved)] == [False] * 3
        n = Point2(r.n_point.x * factor, r.n_point.y * factor)
        assert not _is_the_exact_point(n, a, r.b_star, r.unit_length)
    p = locus_point(LocusParams(a), r.b_star)
    shift = math.ldexp(a * a + p.b * p.b, -40)
    for i, name in enumerate(("residual_circle1", "residual_circle2", "residual_locus_relation")):
        moved = copy.copy(p)
        setattr(moved, name, getattr(p, name) + shift)
        assert _exact_columns(moved, a) == [j != i for j in range(3)]
