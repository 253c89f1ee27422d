"""The paper's identities, checked exactly: the curve formula uses only
+ - * /, so over rationals each identity holds with ``==``, no tolerance.
Floats are rationals too, so the paper's cubic certifies every solve
exactly."""

import math
from fractions import Fraction

from hypothesis import assume, example, given, settings, strategies as st

from test_oracles import _log_uniform

from trisectrix.errors import MaxIterationsExceeded
from trisectrix.locus import FOLD_MAX, FOLD_MIN, LocusParams, _q_coords, trisect

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
    # The b-free locus equation.
    assert (r2 - 2 * a * a - a * y) ** 2 == x * x * (r2 - a * a)
    # The fold: the crease that takes O onto J, the perpendicular bisector of
    # OJ, takes D = (0, 2a) onto Q.
    k = 1 - 4 * a * a / (a * a + b * b)
    assert (k * b, 2 * a + k * a) == (x, y)


def _certified(a, b_star, phi, theta, angle_term):
    """Whether the crossing at ``b_star`` is certified for the target
    ``phi``: the root of the paper's cubic on the float ray (cos phi,
    sin phi) lies within delta of s = a/b*, the slope of J.

    Q's direction is (1 + i*s)^3, so on the ray through (x, y) the crossing
    is the root of p(s) = y(1 - 3s^2) - x*s(3 - s^2), which is strictly
    decreasing on [0, 1]; p(s - delta) >= 0 >= p(s + delta), evaluated over
    Fractions, puts the root within delta of s. An error d in theta = atan s
    is an error (1 + s^2)*d in s, and d is ``angle_term`` (the solver's stop
    on 3*theta, divided by 3) plus 4 ulp of theta and 2.3e-16 for the
    rounding of cos phi and sin phi, padded by a relative 1e-9."""
    x, y = Fraction(math.cos(phi)), Fraction(math.sin(phi))
    s = Fraction(a) / Fraction(b_star)
    d = angle_term + 4 * math.ulp(theta) + 2.3e-16
    delta = (1 + s * s) * Fraction(d * (1 + 1e-9))

    def p(s):
        return y * (1 - 3 * s * s) - x * s * (3 - s * s)

    return p(s - delta) >= 0 >= p(s + delta)


@given(
    target=st.floats(min_value=0.0, max_value=math.pi / 2.0, exclude_min=True)
    | _log_uniform(1e-300, math.pi / 2.0),
    a=_log_uniform(FOLD_MIN, FOLD_MAX),
    # The wide tols end in the stop test; the tiny ones reach the collapse
    # of the bracket to two adjacent floats.
    tol=_log_uniform(1e-12, 1e-3) | _log_uniform(1e-18, 1e-14),
)
@example(target=math.radians(7.0), a=1.0, tol=1e-17)
@example(target=math.radians(1e-298), a=1.0, tol=1e-320)
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
    assert _certified(a, r.b_star, r.three_theta, r.theta.radians, angle_term)


def test_certificate_rejects_a_moved_crossing():
    # The budget is tight enough to see a b* moved by a relative 1e-9.
    target, tol = math.radians(60.0), 1e-12
    r = trisect(target, LocusParams(1.0), tol)
    assert _certified(1.0, r.b_star, target, r.theta.radians, tol / 6)
    for factor in (1.0 - 1e-9, 1.0 + 1e-9):
        assert not _certified(1.0, r.b_star * factor, target, r.theta.radians, tol / 6)
