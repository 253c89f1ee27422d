"""Tests for the locus curve and the bisection trisector."""

import collections
import contextlib
import io
import itertools
import math
import os
import random
import re
import sys

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import pins
from test_oracles import _examples, _log_uniform, _outcome
from test_package import _mutable_parts, _route_outputs

import trisectrix
from trisectrix.cli import main
from trisectrix.errors import (
    AngleOutOfRange,
    MaxIterationsExceeded,
    MismatchDetected,
    ParameterOutOfRange,
    TrisectrixError,
)
from trisectrix.geom import Angle, Point2, SQRT3, wrap_signed
from trisectrix.locus import (
    _MAX_DOUBLINGS,
    FOLD_MAX,
    FOLD_MIN,
    LocusParams,
    LocusPoint,
    TrisectionResult,
    _q_coords,
    locus_point,
    locus_relation_residual,
    sample_locus,
    trisect,
    verify_trisection,
)
from trisectrix.oracles import cross_validate
from trisectrix.render import render_svg

# Targets over (0, pi/2]: uniform, or log-uniform down to the least subnormal.
wide_targets = (st.floats(min_value=0.0, max_value=math.pi / 2.0, exclude_min=True)
                | _log_uniform(5e-324, math.pi / 2.0))


class TestParams:
    @given(a=st.floats())
    @_examples("a", 0.0, -1.0, math.nan, math.inf, 1e-200, 1e-160, 1e-107,
               math.nextafter(FOLD_MIN, 0.0), FOLD_MIN, FOLD_MAX,
               math.nextafter(FOLD_MAX, math.inf), 1e96, 1e140, 1e155)
    @settings(deadline=None, max_examples=500)
    def test_any_float_fold_is_kept_exactly_or_rejected(self, a):
        # Exactly [FOLD_MIN, FOLD_MAX] is accepted and kept bit for bit. A
        # zero, negative or non-finite fold is a ValueError; a positive
        # finite one outside the range is ParameterOutOfRange.
        try:
            got = LocusParams(a).a
        except ParameterOutOfRange as exc:
            assert 0.0 < a < FOLD_MIN or FOLD_MAX < a < math.inf
            assert str(exc) == (f"fold spacing a must lie in [{FOLD_MIN:.3g}, "
                                f"{FOLD_MAX:.3g}], got {a!r}")
        except ValueError as exc:
            assert not 0.0 < a < math.inf
            assert str(exc) == f"fold spacing a must be finite and positive, got {a!r}"
        else:
            assert FOLD_MIN <= a <= FOLD_MAX
            assert got.hex() == a.hex()

    def test_range_ends_accepted(self):
        for a in (FOLD_MIN, FOLD_MAX):
            r = trisect(Angle.from_degrees(60.0), LocusParams(a))
            assert abs(r.theta.radians - math.radians(20.0)) <= 1e-12
        assert FOLD_MIN < 1e-102 and FOLD_MAX > 1e89


def _overflow_limit(a):
    """About the largest curve parameter at fold ``a``: past it b*b, or
    2a*(b*b - a*a) from fold 0.5 up, overflows."""
    return math.sqrt(sys.float_info.max / max(2.0 * a, 1.0))


def _rejection(a, b, name):
    """The ParameterOutOfRange message for the curve parameter ``b``, named
    ``name``, at fold ``a``, or None where the curve has a finite point:
    from sqrt(3)*a, less a relative slack of 1e-12 for a start computed by
    another expression, to where 2a*(b*b - a*a) overflows."""
    lower = SQRT3 * a
    if not b >= lower * (1.0 - 1e-12):
        return f"parameter {name} must be at least sqrt(3)*a = {lower!r}, got {b!r}"
    if math.isfinite(2.0 * a * (b * b - a * a)):
        return None
    return (f"parameter {name} must be finite and at most about {_overflow_limit(a):.3g} "
            f"at fold a={a!r}, where the curve's products overflow, got {b!r}")


@st.composite
def fold_and_parameters(draw, count):
    """A fold, spread evenly in its logarithm over the fold range, and
    ``count`` curve parameters for it: each any float, or one spread evenly
    in its logarithm from the curve's start to twice its overflow limit."""
    a = draw(_log_uniform(FOLD_MIN, FOLD_MAX))
    b = st.floats() | _log_uniform(SQRT3 * a, 2.0 * _overflow_limit(a))
    return (a, *(draw(b) for _ in range(count)))


class TestLocusPoint:
    @given(fold_and_b=fold_and_parameters(1))
    # At fold 1: below the start, NaN, just past the slack and just inside
    # it, and past where the products overflow.
    @_examples("fold_and_b", *((1.0, b) for b in (1.0, math.nan, SQRT3 * (1.0 - 1e-11),
                                                  SQRT3 * (1.0 - 1e-13), 1e154, 1e200)))
    @settings(deadline=None, max_examples=120)
    def test_any_float_b_gives_a_finite_point_or_is_rejected(self, fold_and_b):
        # Exactly the parameters _rejection accepts give a point, which keeps
        # b bit for bit and is finite throughout; every other float, NaN and
        # the infinities included, is rejected in its one wording. The limit
        # that wording names is where rejection starts: the float below it
        # gives a point and the float two above it does not.
        a, b = fold_and_b
        params = LocusParams(a)
        limit = _overflow_limit(a)
        below, above = math.nextafter(limit, 0.0), limit + 2.0 * math.ulp(limit)
        assert _rejection(a, below, "b") is None and _rejection(a, above, "b")
        for b in (b, below, above):
            try:
                lp = locus_point(params, b)
            except ParameterOutOfRange as exc:
                assert str(exc) == _rejection(a, b, "b")
            else:
                assert _rejection(a, b, "b") is None and lp.b.hex() == b.hex()
                assert all(math.isfinite(v) for v in (lp.q.x, lp.q.y, lp.residual_circle1,
                                                        lp.residual_circle2,
                                                        lp.residual_locus_relation))

    @given(a=st.floats(min_value=0.01, max_value=100.0),
           ratio=st.floats(min_value=1.0, max_value=1e4))
    @settings(deadline=None, max_examples=300)
    def test_polar_angle_triples_slider_angle(self, a, ratio):
        b = SQRT3 * a * ratio
        lp = locus_point(LocusParams(a), b)
        slider = math.atan2(a, b)
        assert abs(wrap_signed(lp.q_polar_angle.radians - 3.0 * slider)) <= 1e-12


class TestRelationResidual:
    def test_linear_in_x_displacement(self):
        params = LocusParams(1.0)
        b = 2.5
        q = locus_point(params, b).q
        displaced = Point2(q.x + 1e-6, q.y)
        res = locus_relation_residual(params, b, displaced)
        assert math.isclose(res, b * 1e-6, rel_tol=1e-6)


class TestSampleLocus:
    @given(curve=fold_and_parameters(2), n=st.integers(-1, 33))
    # As (a, b_min, b_max): a range at fold 0.4; and at fold 1, too few
    # samples, b_min below the start, with b_max in range or overflowing,
    # b_min overflowing, an empty range, and b_max non-finite, overflowing,
    # at the first rejected float, or the float below it.
    @example(curve=(0.4, 1.0, 7.0), n=33)
    @example(curve=(1.0, SQRT3, 10.0), n=1)
    @_examples("curve", (1.0, 1.0, 10.0), (1.0, 1.0, 1e300), (1.0, 1e200, 1e201),
               (1.0, SQRT3, SQRT3),
               *((1.0, SQRT3, b_max) for b_max in (math.inf, -math.inf, math.nan, 1e300,
                                                   1e200, 9.480751908109177e+153,
                                                   9.480751908109176e+153)), n=3)
    @settings(deadline=None, max_examples=120)
    def test_any_float_range_is_sampled_or_rejected(self, curve, n):
        # Fewer than 2 samples is a ValueError; then b_min and b_max are each
        # checked as locus_point checks b, b_min first, each under its own
        # name, and an empty range is rejected, each in its one wording.
        # Otherwise the n samples are locus_point's, at b's that ascend from
        # b_min to b_max exactly.
        a, b_min, b_max = curve
        params = LocusParams(a)
        if n < 2:
            expected = f"ValueError: need at least 2 samples, got {n!r}"
        else:
            message = (_rejection(a, b_min, "b_min") or _rejection(a, b_max, "b_max")
                       or (None if b_min < b_max else
                           f"need b_min < b_max, got b_min={b_min!r}, b_max={b_max!r}"))
            expected = message and f"ParameterOutOfRange: {message}"
        try:
            points = sample_locus(params, b_min, b_max, n)
        except (ValueError, ParameterOutOfRange) as exc:
            assert f"{type(exc).__name__}: {exc}" == expected
        else:
            assert expected is None
            bs = [p.b for p in points]
            assert len(bs) == n and bs[0] == b_min and bs[-1] == b_max and bs == sorted(bs)
            assert [repr(p) for p in points] == [repr(locus_point(params, b)) for b in bs]

    def test_endpoints_included_exactly(self):
        pts = sample_locus(LocusParams(1.0), SQRT3, 10.0, 2)
        assert pts[0].b == SQRT3
        assert pts[-1].b == 10.0
        assert abs(pts[0].q.x) <= 1e-12 and abs(pts[0].q.y - 2.0) <= 1e-12
        assert abs(
            pts[-1].q_polar_angle.radians - 3.0 * math.atan(1.0 / 10.0)
        ) <= 1e-12

    def test_ascending_b_descending_angle(self):
        for a in (0.7, 1.0):
            pts = sample_locus(LocusParams(a), SQRT3 * a, 25.0 * a, 100)
            bs = [p.b for p in pts]
            angles = [p.q_polar_angle.radians for p in pts]
            assert bs == sorted(bs) and len(set(bs)) == len(bs)
            assert all(x > y for x, y in zip(angles, angles[1:]))

    @given(b_min=st.floats(min_value=SQRT3, max_value=1e6), ulps=st.integers(1, 64),
           n=st.integers(2, 200))
    # b_min*(1 - t) + b_max*t rounds its two products apart: unclamped, one
    # sample here steps back, one falls below b_min and one rises above b_max.
    @example(b_min=SQRT3, ulps=1, n=8)
    @example(b_min=22.44334031593071, ulps=5, n=49)
    @example(b_min=63.93169842149594, ulps=1, n=30)
    @settings(deadline=None, max_examples=300)
    def test_narrow_range_ascends_from_b_min_to_b_max(self, b_min, ulps, n):
        b_max = b_min + ulps * math.ulp(b_min)
        bs = [p.b for p in sample_locus(LocusParams(1.0), b_min, b_max, n)]
        assert bs[0] == b_min and bs[-1] == b_max and bs == sorted(bs)

    def test_deterministic(self):
        first = sample_locus(LocusParams(0.4), 1.0, 7.0, 33)
        second = sample_locus(LocusParams(0.4), 1.0, 7.0, 33)
        assert [(p.b, p.q.x, p.q.y) for p in first] == [
            (p.b, p.q.x, p.q.y) for p in second
        ]


class TestTrisect:
    def test_rejects_bad_solver_arguments(self):
        with pytest.raises(ValueError):
            trisect(Angle.from_degrees(45.0), LocusParams(1.0), tol=0.0)

    @given(
        target=wide_targets,
        a=_log_uniform(FOLD_MIN, FOLD_MAX),
        tol=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    )
    @settings(deadline=None, max_examples=500)
    def test_bisection_ends_within_step_bound(self, target, a, tol):
        # The bound in trisect's docstring, which stands in for a step
        # budget: doubling leaves the crossing in (hi/2, hi], the bracket
        # starts under hi wide and halves each step, and adjacent floats
        # there lie over hi * 2**-54 apart, so 54 steps reach them and one
        # is spare for midpoint rounding. Measured worst over 900,000 random
        # draws (fold log-uniform; target uniform, log-uniform down to 5e-324
        # or within 2e-10 of pi/2; tol log-uniform from 5e-324 up to 1e-3 or
        # 1e300): 54 steps.
        try:
            r = trisect(target, LocusParams(a), tol=tol)
        except MaxIterationsExceeded as exc:
            r = exc.result
        assert r.iterations <= 55

    def test_result_matches_curve_formula_bit_for_bit(self):
        # The solver's reported crossing and residual must equal the values
        # of the curve formula, _q_coords, exactly.
        for deg in (0.5, 7.0, 33.3, 60.0, 89.9, 90.0):
            target = math.radians(deg)
            for a in (1e-3, 0.3, 1.0, 2.7, 1e4):
                for tol in (1e-15, 1e-12, 1e-9, 1e-4):
                    r = trisect(Angle(target), LocusParams(a), tol=tol)
                    qx, qy = _q_coords(a, r.b_star)
                    assert (r.n_point.x, r.n_point.y) == (qx, qy)
                    assert r.angle_residual == math.atan2(qy, qx) - target

    @given(
        target=wide_targets,
        m=st.floats(min_value=0.5, max_value=1.0, exclude_max=True),
        k=st.integers(min_value=math.frexp(FOLD_MIN)[1], max_value=math.frexp(FOLD_MAX)[1]),
        tol=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    )
    @example(target=math.radians(7.0), m=math.frexp(FOLD_MIN)[0], k=math.frexp(FOLD_MIN)[1],
             tol=1e-17)
    @example(target=math.radians(7.0), m=math.frexp(FOLD_MAX)[0], k=math.frexp(FOLD_MAX)[1],
             tol=1e-17)
    @settings(deadline=None, max_examples=300)
    def test_a_power_of_two_fold_only_scales_the_outputs(self, target, m, k, tol):
        # The fold m * 2**k scales the construction at fold m by exactly
        # 2**k, bit for bit, and needs no oracle: each length by 2**k, each
        # area-like residual by 4**k, and each angle, angle residual and step
        # count not at all, the results attached to MaxIterationsExceeded
        # included. Every product stays a normal float over the fold range,
        # so no scaling rounds.
        a = math.ldexp(m, k)
        assume(FOLD_MIN <= a <= FOLD_MAX)
        base, scaled = LocusParams(m), LocusParams(a)
        r0, error = _solved(target, base, tol)
        r1, scaled_error = _solved(target, scaled, tol)
        assert scaled_error == error
        n = r0.n_point
        assert repr(r1) == repr(TrisectionResult(
            r0.three_theta, r0.theta, math.ldexp(r0.b_star, k), math.ldexp(r0.unit_length, k),
            Point2(math.ldexp(n.x, k), math.ldexp(n.y, k)), r0.iterations,
            math.ldexp(r0.final_bracket_width, k), r0.angle_residual))
        assert repr(verify_trisection(r1, scaled).residuals) == repr(
            _scaled(verify_trisection(r0, base).residuals, k, _TRISECTION_POWERS))

        p0 = locus_point(base, r0.b_star)
        assert repr(locus_point(scaled, r1.b_star)) == repr(LocusPoint(
            math.ldexp(p0.b, k), Point2(math.ldexp(p0.q.x, k), math.ldexp(p0.q.y, k)),
            math.ldexp(p0.residual_circle1, 2 * k), math.ldexp(p0.residual_circle2, 2 * k),
            math.ldexp(p0.residual_locus_relation, 2 * k), p0.q_polar_angle))

        report, error = _cross_validated(target, m, tol)
        scaled_report, scaled_error = _cross_validated(target, a, tol)
        assert scaled_error == error
        if report is None:
            assert scaled_report is None
        else:
            assert scaled_report.theta_locus.radians == report.theta_locus.radians
            assert repr(scaled_report.residuals) == repr(
                _scaled(report.residuals, k, _CROSS_VALIDATION_POWERS))

    @given(
        target=st.floats(min_value=0.0, max_value=math.pi / 2.0, exclude_min=True),
        a=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    )
    @settings(deadline=None, max_examples=500)
    def test_total_over_positive_folds(self, target, a):
        # Every positive finite fold and every target ends in a result within
        # tol of a true trisection or in a library error, never in a
        # ZeroDivisionError, a NaN or a spurious non-convergence.
        try:
            r = trisect(target, LocusParams(a))
        except TrisectrixError:
            return
        assert abs(3.0 * r.theta.radians - target) <= 1e-12

    @given(
        target=st.floats(min_value=0.0, max_value=math.pi / 2.0, exclude_min=True),
        a=st.floats(min_value=FOLD_MIN, max_value=FOLD_MAX),
        tol=st.floats(min_value=0.0, max_value=1e-12, exclude_min=True),
    )
    @settings(deadline=None, max_examples=300)
    def test_tol_below_rounding_bounds_theta_to_1e_12(self, target, a, tol):
        # tol stops Q's polar angle; theta = atan2(a, b*) adds its own
        # rounding, so a returned result is within max(tol, 1e-12) of a true
        # trisection even when it misses a tol below rounding.
        params = LocusParams(a)
        try:
            r = trisect(target, params, tol=tol)
        except MaxIterationsExceeded:
            return
        assert abs(r.angle_residual) <= 0.5 * tol
        residuals = verify_trisection(r, params).residuals
        assert residuals["three_theta_vs_target"] <= 1e-12


# The power of the fold's scale each residual moves by, where it is not 0:
# lengths by the scale, the curve relation at N (a difference of squares) by
# its square.
_TRISECTION_POWERS = {"jn_vs_2a": 1, "on_vs_unit_length": 1, "locus_relation_at_n": 2}
_CROSS_VALIDATION_POWERS = {"trisection_" + name: power
                            for name, power in _TRISECTION_POWERS.items()}


def _scaled(residuals, k, powers):
    """``residuals`` with each scaled by 2**k to the power ``powers`` gives it."""
    return {name: math.ldexp(value, powers.get(name, 0) * k)
            for name, value in residuals.items()}


def _solved(target, params, tol):
    """trisect's result and '', or the result its MaxIterationsExceeded
    attaches and the error's text."""
    try:
        return trisect(target, params, tol=tol), ""
    except MaxIterationsExceeded as exc:
        return exc.result, str(exc)


def _cross_validated(target, a, tol):
    """cross_validate's report and '', or the report its MismatchDetected
    attaches (None after a MaxIterationsExceeded) and the error's text."""
    try:
        return cross_validate(target, a, tol), ""
    except MismatchDetected as exc:
        return exc.report, str(exc)
    except MaxIterationsExceeded as exc:
        return None, str(exc)


class TestVerifyTrisection:
    def test_solved_results_pass(self):
        params = LocusParams(1.0)
        for deg in (15.0, 45.0, 75.0, 90.0):
            r = trisect(Angle.from_degrees(deg), params)
            report = verify_trisection(r, params)
            assert report.passes(1e-12), report.worst()

    def test_spot_check_off_unit_fold(self):
        params = LocusParams(0.3)
        r = trisect(Angle.from_degrees(75.0), params, tol=1e-11)
        report = verify_trisection(r, params)
        assert report.passes(1e-11)
        assert abs(r.theta.degrees - 25.0) <= 1e-9


def _reference_trisect(three_theta, params, tol=1e-12):
    """Plain bisection that evaluates the curve at every midpoint: the
    solver as it was before it skipped provable steps, kept verbatim (bar a
    step budget that no input reached, every bracket collapsing within 55
    steps) as the oracle the fast path must reproduce bit for bit."""
    target = (three_theta.radians if isinstance(three_theta, Angle)
              else float(three_theta))
    if not 0.0 < target <= 0.5 * math.pi:
        raise AngleOutOfRange(
            f"trisection target must lie in (0, 90] degrees, "
            f"got {math.degrees(target):.6g}"
        )
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol!r}")

    a = params.a
    stop = 0.5 * tol

    def build(b, iterations, width, f_val):
        qx, qy = _q_coords(a, b)
        return TrisectionResult(
            three_theta=target,
            theta=Angle(math.atan2(a, b)),
            b_star=b,
            unit_length=math.hypot(a, b),
            n_point=Point2(qx, qy),
            iterations=iterations,
            final_bracket_width=width,
            angle_residual=f_val,
        )

    aa = a * a
    four_aa = 4.0 * a * a
    two_a = 2.0 * a
    atan2 = math.atan2

    def f(b):
        dd = aa + b * b
        return atan2(a + two_a * (b * b - aa) / dd, b - four_aa * b / dd) - target

    lo = SQRT3 * a
    f_lo = f(lo)
    if abs(f_lo) <= stop:
        return build(lo, 0, 0.0, f_lo)

    hi = lo
    f_hi = f_lo
    for _ in range(_MAX_DOUBLINGS):
        hi *= 2.0
        f_hi = f(hi)
        if abs(f_hi) <= stop:
            return build(hi, 0, 0.0, f_hi)
        if f_hi < 0.0:
            break
    else:
        raise MaxIterationsExceeded(
            f"no upper bracket below target {math.degrees(target)!r} deg within "
            f"{_MAX_DOUBLINGS} doublings",
            result=build(hi, 0, hi - lo, f_hi),
        )

    for iteration in itertools.count(1):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            f_lo, f_hi = f(lo), f(hi)
            b, f_b = (lo, f_lo) if abs(f_lo) <= abs(f_hi) else (hi, f_hi)
            raise MaxIterationsExceeded(
                f"bisection bracket collapsed after {iteration - 1} iterations "
                f"before reaching tol={tol!r} rad (|residual| = {abs(f_b)!r})",
                result=build(b, iteration - 1, hi - lo, f_b),
            )
        dd = aa + mid * mid
        f_mid = atan2(a + two_a * (mid * mid - aa) / dd, mid - four_aa * mid / dd) - target
        if abs(f_mid) <= stop:
            return build(mid, iteration, hi - lo, f_mid)
        if f_mid > 0.0:
            lo = mid
        else:
            hi = mid


def _doubled_bracket_examples(test):
    # Each target puts the k-th doubled bracket end hi = sqrt(3)*2**k just
    # past the crossing, 0.5e-12 rad beyond the stop at tol 1e-9: hi is
    # evaluated, its f is negative, and the bisection starts from it. The
    # random draws never land there.
    for k in (1, 2, 3, 5, 8):
        target = 3.0 * math.atan(1.0 / (SQRT3 * 2**k)) + 0.5e-9 + 0.5e-12
        test = example(target=target, a=1.0, tol=1e-9)(test)
    return test


@given(
    target=st.floats(min_value=0.0, max_value=math.pi / 2.0, exclude_min=True),
    a=st.floats(min_value=FOLD_MIN, max_value=FOLD_MAX),
    tol=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)
@_doubled_bracket_examples
@settings(deadline=None, max_examples=400)
def test_matches_reference_bisection(target, a, tol):
    params = LocusParams(a)
    assert _outcome(trisect, target, params, tol) == _outcome(
        _reference_trisect, target, params, tol
    )


def test_matches_reference_bisection_where_the_bracket_collapses():
    # A deterministic sweep of the collapse path: at tol 1e-17 one target in
    # six or seven cannot be reached in double precision (count_grid pins how
    # many). The solver stops once the bracket is two adjacent floats, and
    # raises with the message, step count and result of the reference.
    for a in (FOLD_MIN, 1.0, FOLD_MAX):
        params = LocusParams(a)
        for k in range(1, 901):
            target = math.radians(k / 10.0)
            outcome = _outcome(trisect, target, params, 1e-17)
            assert outcome == _outcome(_reference_trisect, target, params, 1e-17), (a, k)
            if outcome.startswith("MaxIterationsExceeded"):
                with pytest.raises(MaxIterationsExceeded) as info:
                    trisect(target, params, tol=1e-17)
                r = info.value.result
                assert 0 < r.iterations <= 54, (a, k)
                assert abs(r.angle_residual) > 0.5e-17, (a, k)
                assert 0.0 < r.final_bracket_width <= math.ulp(r.b_star), (a, k)


def solver_grid():
    """Each solve over the skip path's edges, labelled by its inputs: targets
    at and just below 90 degrees and down to the smallest subnormal, the
    fold range's ends, and tols from subnormal to huge. Its output is the
    result or error, then the verification report, one line each."""
    half_pi = 0.5 * math.pi
    below = [half_pi]
    for _ in range(3):
        below.append(math.nextafter(below[-1], 0.0))
    targets = below + [
        math.radians(60.0), math.radians(1.0), 3e-12, 1.5e-12, 1e-12,
        1e-300, 5e-324,
    ]
    tols = (5e-324, 1e-25, 1e-17, 1e-12, 1.6, 1e10, 1.7e308)
    for a in (FOLD_MIN, 1.0, FOLD_MAX):
        params = LocusParams(a)
        for target in targets:
            for tol in tols:
                try:
                    r = trisect(target, params, tol=tol)
                except TrisectrixError as exc:
                    r = exc.result
                    line = f"{type(exc).__name__}: {exc} -> {r!r}"
                else:
                    line = repr(r)
                yield (f"a={a!r} target={target!r} tol={tol!r}",
                       f"{line}\n{verify_trisection(r, params)!r}\n")


def test_solver_outputs_bit_identical():
    pins.check("solver", solver_grid())


PACKAGE = os.path.dirname(trisectrix.__file__) + os.sep

# Found by code object: Python 3.10 has no co_qualname to tell them apart.
POST_INITS = {cls.__post_init__.__code__: f"{cls.__name__}.__post_init__"
              for cls in (Point2, Angle)}

# Frames that counted leaves out: Python 3.12 runs a list, dict or set
# comprehension in its function's frame (PEP 709), where 3.10 and 3.11 give
# it its own, and a generator's frame is entered once per item. Their math
# calls still count.
UNCOUNTED = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def counted(run):
    """Run ``run()`` under a profile and count by name each Python call into
    the package, as ``module.function`` (a ``__post_init__`` by its class,
    so its count is that class's builds), and each call the package makes
    to a ``math`` function, as ``math.name``. Comprehension and generator
    frames are not calls (see ``UNCOUNTED``)."""
    calls = collections.Counter()

    def profile(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(PACKAGE):
            return
        if event == "call" and code.co_name not in UNCOUNTED:
            module = frame.f_globals["__name__"].rpartition(".")[2]
            calls[POST_INITS.get(code, f"{module}.{code.co_name}")] += 1
        elif event == "c_call" and getattr(arg, "__self__", None) is math:
            calls[f"math.{arg.__name__}"] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return calls


def _lines(counts):
    return "".join(f"{name} {n}\n" for name, n in sorted(counts.items()))


def _builds(run):
    calls = counted(run)
    return _lines({name: calls[name] for name in POST_INITS.values()})


def count_grid():
    """Each exact work count the tests gate, labelled by its inputs. The
    call counts leave out comprehension and generator frames, which only
    some Python versions profile, so every supported Python counts the
    same."""
    rng = random.Random(0x5B15)
    targets = [math.radians(d) for d in range(1, 91)]
    targets += [(1.0 - rng.random()) * (math.pi / 2.0) for _ in range(1000)]
    params = LocusParams(1.0)
    results = []
    calls = counted(lambda: results.extend(
        trisect(Angle(t), params, tol=1e-12) for t in targets))
    # math.atan2 runs at the midpoints whose branch the chord identity cannot
    # decide, and for each theta; evaluating every midpoint takes 45940.
    label = "criterion 1's 1090 targets as Angles, fold 1, tol 1e-12"
    yield f"{label}: bisection steps", f"{sum(r.iterations for r in results)}\n"
    yield f"{label}: math.atan2 calls", f"{calls['math.atan2']}\n"

    def solve_grid():
        for degrees in range(1, 91):
            for a in (0.1, 1.0, 10.0):
                for tol in (1e-6, 1e-9, 1e-12):
                    params = LocusParams(a)
                    verify_trisection(trisect(math.radians(degrees), params, tol), params)

    # Per op one LocusParams, trisect, verify_trisection and
    # locus_relation_residual, one _q_coords per curve evaluation, and no
    # call that only forwards to other code.
    yield ("LocusParams, trisect, verify_trisection at 1..90 deg x folds 0.1, 1, 10 x "
           "tols 1e-6, 1e-9, 1e-12: calls", _lines(counted(solve_grid)))

    # A solve builds one Point2 (N) and one Angle (theta): the result stores
    # its target as the checked float, so an Angle target is read, not copied.
    for target, form in ((math.radians(60.0), "60 deg"),
                         (Angle(math.radians(60.0)), "60 deg as Angle"),
                         (math.radians(7.0), "7 deg"), (0.5 * math.pi, "90 deg")):
        for tol in (1e-12, 1e-17):
            def solve():
                with contextlib.suppress(MaxIterationsExceeded):
                    trisect(target, params, tol=tol)
            yield f"trisect {form}, fold 1, tol {tol!r}: builds", _builds(solve)

    # N, and one Angle, the solve's theta: every route reads the target as
    # the solve's float, the oracle's theta is a float, and the
    # constructions' points are float pairs.
    yield ("cross_validate 60 deg, fold 1, tol 1e-12: builds",
           _builds(lambda: cross_validate(math.radians(60.0), 1.0, 1e-12)))

    # Each route once, the target checked once by each route that builds
    # from it, and the fold's angles measured once, by abe_verify.
    for degrees in (60.0, 90.0):
        yield (f"cross_validate {degrees:g} deg, fold 1, tol 1e-12: calls",
               _lines(counted(lambda: cross_validate(math.radians(degrees), 1.0, 1e-12))))

    # In-process CLI runs. --angle-deg becomes a float in radians, so trisect
    # builds only theta, origami no Angle, render theta and each sample's
    # polar angle, and verify cross_validate's one per degree.
    for argv in (("trisect", "--angle-deg", "60"), ("origami", "--angle-deg", "60"),
                 ("render", "--angle-deg", "60", "--samples", "4"),
                 ("verify", "--tol", "1e-10")):
        def run_cli():
            with contextlib.redirect_stdout(io.StringIO()):
                main(list(argv))
        yield f"cli.main {' '.join(argv)}: builds", _builds(run_cli)

    # The other ops' calls: a sample is one locus_point; the diagram samples
    # the locus once and formats each number with _n; the CLI's trisect,
    # whose parser the runs above built, solves and verifies once.
    yield ("sample_locus fold 1, b from sqrt(3) to 10, 64 samples: calls",
           _lines(counted(lambda: sample_locus(params, SQRT3, 10.0, 64))))
    result = trisect(math.radians(60.0), params)
    yield ("render_svg 60 deg, fold 1, 16 samples: calls",
           _lines(counted(lambda: render_svg(params, result, 16))))

    def run_trisect():
        with contextlib.redirect_stdout(io.StringIO()):
            main(["trisect", "--angle-deg", "60"])
    yield "cli.main trisect --angle-deg 60: calls", _lines(counted(run_trisect))

    for a in (FOLD_MIN, 1.0, FOLD_MAX):
        collapsed = 0
        for k in range(1, 901):
            try:
                trisect(math.radians(k / 10.0), LocusParams(a), tol=1e-17)
            except MaxIterationsExceeded:
                collapsed += 1
        yield (f"trisect k/10 deg for k = 1..900, fold {a!r}, tol 1e-17: collapses",
               f"{collapsed}\n")

    # Per call: the result's 2 (theta and N) and the report's 2 (its theta
    # and the one dict its parts merge into when _route_outputs reads it).
    # The result, the fold and the diagram store their target as a float,
    # and the constructions' points are immutable tuples.
    for target in (1.0, Angle(1.0)):
        parts = [_mutable_parts([value])
                 for value in _route_outputs(target)[0] + _route_outputs(target)[0]]
        yield (f"trisect, abe_construct, chord_diagram, cross_validate of {target!r}, "
               f"two calls each: mutable parts", f"{sum(map(len, parts))}\n")


def test_work_counts_match_their_pins():
    pins.check("counts", count_grid())


def _last_digit_changed(text):
    """``text`` with the last digit of its first float changed."""
    end = re.search(r"\d\.\d+", text).end()
    return f"{text[:end - 1]}{(int(text[end - 1]) + 1) % 10}{text[end:]}"


def test_pin_mismatch_prints_the_label_and_its_output():
    grid = list(solver_grid())
    label, output = grid[100]
    changed = _last_digit_changed(output)
    grid[100] = (label, changed)
    with pytest.raises(AssertionError) as failure:
        pins.check("solver", grid)
    assert f"{label}: now\n{changed}" in str(failure.value)
    assert f"1 of {len(grid)} outputs differ" in str(failure.value)


def test_pin_mismatch_names_a_missing_label():
    grid = list(solver_grid())
    label, _ = grid.pop(7)
    with pytest.raises(AssertionError) as failure:
        pins.check("solver", grid)
    assert f"missing labels: [{label!r}]" in str(failure.value)
