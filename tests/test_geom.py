"""Tests for the planar primitives: angles, the target domain and distances."""

import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from trisectrix.errors import AngleOutOfRange, ParameterOutOfRange, TrisectrixError
from trisectrix.geom import (
    Angle,
    Point2,
    as_float,
    distance,
    target_radians,
    wrap_signed,
)
from trisectrix.locus import LocusParams, locus_point, sample_locus, trisect
from trisectrix.oracles import chord_diagram, cross_validate, oracle_theta
from trisectrix.origami import abe_construct

TWO_PI = 2.0 * math.pi

coords = st.floats(min_value=-100.0, max_value=100.0,
                   allow_nan=False, allow_infinity=False)


class TestAngle:
    def test_rejects_outside_full_turn(self):
        # Rejected, not reduced: 3*pi is never read as pi.
        for x in (-0.5, -1e-300, TWO_PI, 3.0 * math.pi, 7.0, 1e300, -1e300):
            with pytest.raises(ValueError, match=r"\[0, 2\*pi\)"):
                Angle(x)

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

    def test_stored_value_is_input_float_bit_for_bit(self):
        # In-range floats skip the conversion; every accepted input must
        # still store exactly float(x), as a plain float.
        class Radians(float):
            pass

        values = [0, 1, True, False, -0.0, 0.0, 1e-300, 1.5,
                  math.nextafter(TWO_PI, 0.0), Radians(1.5)]
        for x in values:
            got = Angle(x).radians
            assert type(got) is float
            assert got.hex() == float(x).hex(), x
        for x in (7, -3, TWO_PI, math.nextafter(TWO_PI, 10.0), -TWO_PI, Radians(7.0)):
            with pytest.raises(ValueError):
                Angle(x)

    @given(x=st.floats())
    @settings(deadline=None, max_examples=500)
    def test_any_float_is_stored_exactly_or_rejected(self, x):
        # NaN and the infinities included: never a different value.
        try:
            got = Angle(x).radians
        except ValueError:
            assert not 0.0 <= x < TWO_PI
        else:
            assert got.hex() == x.hex()


class TestDomainTypes:
    def test_point_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Point2(float("nan"), 0.0)
        with pytest.raises(ValueError):
            Point2(0.0, float("inf"))


class TestTargetRadians:
    def test_checks_the_value_as_given(self):
        radians = target_radians(Angle(0.5))
        assert type(radians) is float and radians == 0.5
        one = target_radians(1)
        assert type(one) is float and one == 1.0
        assert target_radians(0.5 * math.pi) == 0.5 * math.pi
        domain = r"^trisection target must lie in \(0, 90\] degrees, got "
        with pytest.raises(AngleOutOfRange, match=domain + "450$"):
            target_radians(math.radians(450.0))
        with pytest.raises(AngleOutOfRange, match=domain + "nan$"):
            target_radians(math.nan)
        with pytest.raises(AngleOutOfRange):
            target_radians(Angle(0.0))


# Each entry point that converts a number, with the error an infinity or a
# NaN there raises.
NUMERIC_ENTRY_POINTS = {
    "Angle": (Angle, ValueError),
    "LocusParams": (LocusParams, ValueError),
    "trisect target": (lambda v: trisect(v, LocusParams(1.0)), AngleOutOfRange),
    "trisect tol": (lambda v: trisect(1.0, LocusParams(1.0), tol=v), ValueError),
    "chord_diagram": (chord_diagram, AngleOutOfRange),
    "abe_construct": (abe_construct, AngleOutOfRange),
    "cross_validate target": (lambda v: cross_validate(v, 1.0, 1e-10), AngleOutOfRange),
    "cross_validate a": (lambda v: cross_validate(1.0, v, 1e-10), ValueError),
    "cross_validate tol": (lambda v: cross_validate(1.0, 1.0, v), ValueError),
    "locus_point b": (lambda v: locus_point(LocusParams(1.0), v), ParameterOutOfRange),
    "sample_locus b_max": (lambda v: sample_locus(LocusParams(1.0), 2.0, v, 3),
                           ParameterOutOfRange),
    "oracle_theta": (oracle_theta, AngleOutOfRange),
}


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("entry", sorted(NUMERIC_ENTRY_POINTS))
def test_int_beyond_float_range_raises_as_infinity(entry, sign):
    # 10**400 has no float; it is rejected as the infinity of its sign is,
    # not with float()'s OverflowError.
    call, error = NUMERIC_ENTRY_POINTS[entry]
    for value in (sign * math.inf, sign * 10**400):
        with pytest.raises(error) as info:
            call(value)
        assert info.type is error


def _numeric_outcome(call, value) -> str:
    try:
        return repr(call(value))
    except (TrisectrixError, ValueError) as exc:
        return type(exc).__name__


@pytest.mark.parametrize("entry", sorted(NUMERIC_ENTRY_POINTS))
def test_decimal_and_fraction_act_as_their_float(entry):
    # A Decimal or Fraction is converted once, so the routes' float
    # arithmetic never meets it: each gives the float call's result, or its
    # error type. A NaN or infinite Decimal raises the entry's documented
    # error, not the TypeError of mixing Decimal with float; a signalling NaN
    # gets the entry's own message, not float()'s refusal to convert it.
    call, error = NUMERIC_ENTRY_POINTS[entry]
    for value in (Decimal("0.5"), Decimal("1"), Decimal("2.5"), Decimal("1e-10"),
                  Fraction(1, 3), Fraction(7, 2)):
        assert _numeric_outcome(call, value) == _numeric_outcome(call, float(value)), value
    for value in (Decimal("NaN"), Decimal("sNaN"), Decimal("Infinity"),
                  Decimal("-Infinity")):
        with pytest.raises(error) as info:
            call(value)
        assert info.type is error
        assert "signaling NaN" not in str(info.value)


def test_int_beyond_float_range_reads_as_its_signed_infinity():
    assert as_float(10**400) == math.inf
    assert as_float(-10**400) == -math.inf


class _Unconvertible:
    def __float__(self):
        raise ValueError("no float for this value")


def test_conversion_error_reaches_the_caller():
    # Only a signalling NaN is read as NaN; any other ValueError of float()
    # reaches the caller unchanged.
    for call in (LocusParams, lambda tol: trisect(1.0, LocusParams(1.0), tol)):
        with pytest.raises(ValueError, match="^no float for this value$"):
            call(_Unconvertible())


@pytest.mark.parametrize("entry", sorted(NUMERIC_ENTRY_POINTS))
def test_text_is_not_a_number(entry):
    # float() would parse text, reading "0.5" as an angle; every entry point
    # that takes a number raises TypeError naming the text's type instead.
    call, _ = NUMERIC_ENTRY_POINTS[entry]
    for text in ("0.5", "1.0", " 1.0 ", b"1.0", bytearray(b"1.0")):
        with pytest.raises(TypeError, match=rf"^expected a number, got {type(text).__name__}$"):
            call(text)


class TestWrapSigned:
    @pytest.mark.parametrize("radians,wrapped", [
        (3.1, 3.1), (math.pi, math.pi), (-math.pi, math.pi),
        (math.nextafter(math.pi, 4.0), -3.1415926535897927),
        (TWO_PI, 0.0), (3.0 * math.pi, math.pi), (-3.1, -3.1),
    ])
    def test_wraps_into_half_open_turn(self, radians, wrapped):
        # (-pi, pi]: pi stays, -pi becomes pi, and only values past pi wrap.
        assert wrap_signed(radians) == wrapped


class TestDistance:
    def test_three_four_five(self):
        assert distance(Point2(0.0, 0.0), Point2(3.0, 4.0)) == 5.0

    def test_identity(self):
        assert distance(Point2(1.0, 1.0), Point2(1.0, 1.0)) == 0.0

    @pytest.mark.parametrize("theta_deg", [0.0, 17.0, 45.0, 90.0, 133.0, 270.0])
    def test_unit_circle(self, theta_deg):
        t = math.radians(theta_deg)
        origin = Point2(0.0, 0.0)
        assert distance(origin, Point2(math.cos(t), math.sin(t))) == pytest.approx(
            1.0, abs=1e-15
        )

    @given(ax=coords, ay=coords, bx=coords, by=coords, cx=coords, cy=coords)
    @settings(deadline=None)
    def test_triangle_inequality(self, ax, ay, bx, by, cx, cy):
        p, q, r = Point2(ax, ay), Point2(bx, by), Point2(cx, cy)
        assert distance(p, r) <= distance(p, q) + distance(q, r) + 1e-12
