"""Tests for the planar primitives: angles, polar angles and distances."""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from trisectrix.errors import DegeneratePoint
from trisectrix.geom import (
    Angle,
    ORIGIN,
    Point2,
    SQRT3,
    as_angle,
    distance,
    polar_radians,
    wrap_angle,
    wrap_signed,
)

TWO_PI = 2.0 * math.pi

coords = st.floats(min_value=-100.0, max_value=100.0,
                   allow_nan=False, allow_infinity=False)


class TestAngle:
    def test_normalizes_into_full_turn(self):
        assert Angle(-0.5).radians == pytest.approx(TWO_PI - 0.5, abs=1e-15)
        assert Angle(TWO_PI).radians == 0.0
        assert Angle(3.0 * math.pi).radians == pytest.approx(math.pi, abs=1e-12)

    def test_degrees_round_trip(self):
        a = Angle.from_degrees(60.0)
        assert a.degrees == pytest.approx(60.0, abs=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Angle(float("nan"))
        with pytest.raises(ValueError):
            Angle(float("inf"))
        with pytest.raises(ValueError):
            Angle(float("-inf"))

    def test_stored_value_is_wrapped_float_bit_for_bit(self):
        # In-range floats skip normalization; every input must still store
        # exactly what wrap_angle gives, as a plain float.
        class Radians(float):
            pass

        values = [0, 1, 7, -3, True, False, -0.0, 0.0, 1e-300, 1.5,
                  math.nextafter(TWO_PI, 0.0), TWO_PI, math.nextafter(TWO_PI, 10.0),
                  -1e-300, -0.5, -TWO_PI, 7.0, 100.0, 1e300, -1e300, Radians(1.5)]
        for x in values:
            got = Angle(x).radians
            assert type(got) is float
            assert got.hex() == wrap_angle(float(x)).hex(), x

    def test_as_angle_coerces_floats(self):
        assert as_angle(1.5).radians == 1.5
        a = Angle(0.7)
        assert as_angle(a) is a


class TestDomainTypes:
    def test_point_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Point2(float("nan"), 0.0)
        with pytest.raises(ValueError):
            Point2(0.0, float("inf"))


class TestPolarAngle:
    def test_positive_x_axis(self):
        assert polar_radians(Point2(1.0, 0.0)) == 0.0

    def test_positive_y_axis(self):
        assert polar_radians(Point2(0.0, 2.0)) == pytest.approx(
            math.pi / 2.0, abs=1e-15
        )

    def test_thirty_degrees(self):
        # tan(30 deg) = 1/sqrt(3); oracle is the arctangent of that ratio.
        expected = math.atan(1.0 / SQRT3)
        got = polar_radians(Point2(SQRT3, 1.0))
        assert got == pytest.approx(expected, abs=1e-15)
        assert got == pytest.approx(math.pi / 6.0, abs=1e-15)

    def test_origin_rejected(self):
        with pytest.raises(DegeneratePoint):
            polar_radians(Point2(0.0, 0.0))

    @given(x=coords, y=coords, phi=st.floats(min_value=-10.0, max_value=10.0))
    @settings(deadline=None)
    def test_rotation_shifts_polar_angle(self, x, y, phi):
        assume(math.hypot(x, y) > 1e-6)
        c, s = math.cos(phi), math.sin(phi)
        before = polar_radians(Point2(x, y))
        after = polar_radians(Point2(c * x - s * y, s * x + c * y))
        assert abs(wrap_signed(after - (before + phi))) <= 1e-12


class TestDistance:
    def test_three_four_five(self):
        assert distance(Point2(0.0, 0.0), Point2(3.0, 4.0)) == 5.0

    def test_identity(self):
        assert distance(Point2(1.0, 1.0), Point2(1.0, 1.0)) == 0.0

    @pytest.mark.parametrize("theta_deg", [0.0, 17.0, 45.0, 90.0, 133.0, 270.0])
    def test_unit_circle(self, theta_deg):
        t = math.radians(theta_deg)
        assert distance(ORIGIN, Point2(math.cos(t), math.sin(t))) == pytest.approx(
            1.0, abs=1e-15
        )

    @given(ax=coords, ay=coords, bx=coords, by=coords, cx=coords, cy=coords)
    @settings(deadline=None)
    def test_triangle_inequality(self, ax, ay, bx, by, cx, cy):
        p, q, r = Point2(ax, ay), Point2(bx, by), Point2(cx, cy)
        assert distance(p, r) <= distance(p, q) + distance(q, r) + 1e-12
