"""Tests for the planar primitives: angles, the target domain and distances."""

import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from test_oracles import _examples, _outcome

from trisectrix.errors import AngleOutOfRange, ParameterOutOfRange
from trisectrix.geom import (
    Angle,
    Point2,
    distance,
    target_radians,
    wrap_signed,
)
from trisectrix.locus import LocusParams, locus_point, sample_locus, trisect
from trisectrix.oracles import chord_diagram, cross_validate, oracle_theta
from trisectrix.origami import abe_construct

TWO_PI = 2.0 * math.pi

class _Float(float):
    """A float that is not ``type(x) is float``, so it is converted through
    ``as_float`` instead of being taken as it is."""


class TestAngle:
    def test_degrees_round_trip(self):
        a = Angle.from_degrees(60.0)
        assert a.degrees == pytest.approx(60.0, abs=1e-12)

    @given(x=st.floats())
    @_examples("x", -0.5, -1e-300, -0.0, 0.0, 1e-300, 1.5, math.nextafter(TWO_PI, 0.0),
               TWO_PI, math.nextafter(TWO_PI, 10.0), -TWO_PI, 3.0 * math.pi, 7.0, 1e300,
               -1e300, math.nan, math.inf, -math.inf)
    @settings(deadline=None, max_examples=500)
    def test_any_float_is_stored_exactly_or_rejected(self, x):
        # Exactly [0, 2*pi) is accepted and stored bit for bit as a plain
        # float, from a float subclass too; anything else is rejected, not
        # reduced, so 3*pi is never read as pi.
        for value in (x, _Float(x)):
            try:
                got = Angle(value).radians
            except ValueError as exc:
                assert not 0.0 <= x < TWO_PI
                assert str(exc) == f"angle must lie in [0, 2*pi) radians, got {x!r}"
            else:
                assert 0.0 <= x < TWO_PI
                assert type(got) is float and got.hex() == x.hex()


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


def _acts_as(call, number, forms) -> str:
    """``call(number)``'s outcome, after asserting that each form gives it
    too; only a message may echo the form as given."""
    expected = _outcome(call, number)
    for form in forms:
        # The echo: "got <value>" ending a message.
        echoed = expected.replace(f"got {number!r} |", f"got {form!r} |")
        assert _outcome(call, form) in (expected, echoed), form
    return expected


@pytest.mark.parametrize("entry", sorted(NUMERIC_ENTRY_POINTS))
@given(x=st.floats() | st.integers())
# Small ints and bools; floats whose forms include the Decimals 0.5 and 2.5,
# the Fraction 7/2 and the NaN and infinite Decimals; 1e-20, a tol that
# cross_validate's gaps exceed; a Decimal and a Fraction that no float equals.
@_examples("x", 0, 1, -3, 7, True, False, 0.0, 0.5, 2.5, 3.5, 1e-20,
           math.nan, math.inf, -math.inf, Decimal("1e-10"), Fraction(1, 3))
@settings(deadline=None, max_examples=100)
def test_decimal_and_fraction_act_as_their_float(entry, x):
    # A float subclass, a Decimal, a Fraction or an int gives the outcome of
    # the float it stands for. NaN and the infinities raise the entry's
    # documented error, in every form: a NaN or infinite Decimal not the
    # TypeError of mixing Decimal with float, and a signalling NaN not
    # float()'s refusal to convert it.
    call, error = NUMERIC_ENTRY_POINTS[entry]
    if type(x) is float:
        number, forms = x, [_Float(x), Decimal(x)]
        # A Fraction has no NaN, infinity or -0; the int 0 gives Fraction(0).
        forms += [Fraction(x)] if math.isfinite(x) and x else []
        forms += [Decimal("sNaN")] if math.isnan(x) else []
    else:
        try:
            number = float(x)
        except OverflowError:
            number = math.inf if x > 0 else -math.inf
        forms = [x] + ([Decimal(x), Fraction(x)] if isinstance(x, int) else [])
    expected = _acts_as(call, number, forms)
    if not math.isfinite(number):
        assert expected.startswith(f"{error.__name__}: ")


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("entry", sorted(NUMERIC_ENTRY_POINTS))
def test_int_beyond_float_range_raises_as_infinity(entry, sign):
    # 10**400 has no float; as an int, a Decimal or a Fraction it is rejected
    # as the infinity of its sign is, not with float()'s OverflowError.
    call, error = NUMERIC_ENTRY_POINTS[entry]
    big = sign * 10**400
    expected = _acts_as(call, sign * math.inf, [big, Decimal(big), Fraction(big)])
    assert expected.startswith(f"{error.__name__}: ")


@pytest.mark.parametrize("entry", sorted(NUMERIC_ENTRY_POINTS))
@given(x=st.floats() | st.integers())
@_examples("x", 0.5, 1.0)
@settings(deadline=None, max_examples=50)
def test_text_is_not_a_number(entry, x):
    # float() would parse "0.5" as an angle; every entry point that takes a
    # number raises TypeError naming the text's type instead.
    call, _ = NUMERIC_ENTRY_POINTS[entry]
    for text in (str(x), f" {x} ", str(x).encode(), bytearray(str(x).encode())):
        assert _outcome(call, text) == (
            f"TypeError: expected a number, got {type(text).__name__} | None")


class _Unconvertible:
    def __float__(self):
        raise ValueError("no float for this value")


def test_conversion_error_reaches_the_caller():
    # Only a signalling NaN is read as NaN; any other ValueError of float()
    # reaches the caller unchanged.
    for call in (LocusParams, lambda tol: trisect(1.0, LocusParams(1.0), tol)):
        with pytest.raises(ValueError, match="^no float for this value$"):
            call(_Unconvertible())


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
    # distance is math.hypot of the two differences; acceptance criterion 8
    # measures it against 2a at every solved trisection, where a sign flip
    # or a coordinate read twice shows.
    def test_three_four_five(self):
        assert distance(Point2(0.0, 0.0), Point2(3.0, 4.0)) == 5.0
