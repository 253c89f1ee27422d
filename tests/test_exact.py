"""The paper's identities, checked exactly: the curve formula uses only
+ - * /, so over rationals each identity holds with ``==``, no tolerance."""

from fractions import Fraction

from hypothesis import assume, given, strategies as st

from trisectrix.locus import _q_coords

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
