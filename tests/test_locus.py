"""Tests for the locus curve and the bisection trisector."""

import collections
import contextlib
import copy
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


class TestLocusPoint:
    def test_below_curve_start_rejected(self):
        with pytest.raises(ParameterOutOfRange):
            locus_point(LocusParams(1.0), 1.0)
        with pytest.raises(ParameterOutOfRange):
            locus_point(LocusParams(1.0), float("nan"))
        with pytest.raises(ParameterOutOfRange):
            locus_point(LocusParams(1.0), SQRT3 * (1.0 - 1e-11))
        # A b a rounding error below sqrt(3)*a is within the slack and
        # accepted: Q sits a hair left of the y axis.
        b = SQRT3 * (1.0 - 1e-13)
        lp = locus_point(LocusParams(1.0), b)
        assert -1e-12 < lp.q.x < 0.0
        assert repr(sample_locus(LocusParams(1.0), b, 10.0, 2)[0].q) == repr(lp.q)

    @given(a=st.floats(min_value=0.01, max_value=100.0),
           ratio=st.floats(min_value=1.0, max_value=1e4))
    @settings(deadline=None, max_examples=300)
    def test_polar_angle_triples_slider_angle(self, a, ratio):
        b = SQRT3 * a * ratio
        lp = locus_point(LocusParams(a), b)
        slider = math.atan2(a, b)
        assert abs(wrap_signed(lp.q_polar_angle.radians - 3.0 * slider)) <= 1e-12

    @given(b=st.floats(allow_nan=False, allow_infinity=False),
           fold=st.floats(min_value=FOLD_MIN, max_value=FOLD_MAX))
    @example(b=1e200, fold=1.0)
    @example(b=1e154, fold=1.0)
    @settings(deadline=None, max_examples=300)
    def test_any_finite_b_and_fold(self, b, fold):
        # Every finite b, at every fold in range, gives a finite point or a
        # domain error naming b that reports no NaN made along the way: past
        # about 9.5e153 at fold 1 the curve's products overflow.
        try:
            lp = locus_point(LocusParams(fold), b)
        except ParameterOutOfRange as exc:
            assert str(exc).startswith("parameter b must be ")
            assert "nan" not in str(exc)
            return
        assert all(math.isfinite(v) for v in (lp.q.x, lp.q.y, lp.residual_circle1,
                                                lp.residual_circle2,
                                                lp.residual_locus_relation))

    def test_monotone_decreasing_in_b(self):
        params = LocusParams(0.7)
        b_values = [SQRT3 * 0.7 * (1.0 + 0.37 * k) for k in range(40)]
        angles = [locus_point(params, b).q_polar_angle.radians for b in b_values]
        assert all(x > y for x, y in zip(angles, angles[1:]))


class TestRelationResidual:
    def test_linear_in_x_displacement(self):
        params = LocusParams(1.0)
        b = 2.5
        q = locus_point(params, b).q
        displaced = Point2(q.x + 1e-6, q.y)
        res = locus_relation_residual(params, b, displaced)
        assert math.isclose(res, b * 1e-6, rel_tol=1e-6)


class TestSampleLocus:
    def test_degenerate_range_rejected(self):
        with pytest.raises(ParameterOutOfRange):
            sample_locus(LocusParams(1.0), SQRT3, SQRT3, 5)

    def test_non_finite_b_max_rejected(self):
        # A domain error that names b_max. An infinite one reports no NaN
        # made along the way; a NaN one is echoed as "got nan".
        for b_max in (math.inf, -math.inf, math.nan):
            with pytest.raises(ParameterOutOfRange, match="b_max") as info:
                sample_locus(LocusParams(1.0), SQRT3, b_max, 5)
            if not math.isnan(b_max):
                assert "nan" not in str(info.value)

    def test_b_min_below_curve_start_rejected(self):
        # b_min is checked first, so it is named even when b_max overflows.
        for b_max in (10.0, 1e300):
            with pytest.raises(ParameterOutOfRange,
                               match=r"^parameter b_min must be .*, got 1\.0$"):
                sample_locus(LocusParams(1.0), 1.0, b_max, 5)

    def test_overflowing_b_min_rejected_by_its_name(self):
        # The overflow check names b_min as it names b_max, not "b".
        with pytest.raises(ParameterOutOfRange,
                           match=r"^parameter b_min must be finite .*, got 1e\+200$"):
            sample_locus(LocusParams(1.0), 1e200, 1e201, 3)

    @pytest.mark.parametrize("b_max", [1e300, 1e200, 9.480751908109177e+153])
    def test_overflowing_b_max_rejected(self, b_max):
        # b*b or 2a*(b*b - a*a) overflows: a domain error naming b_max, not
        # a NaN coordinate.
        with pytest.raises(ParameterOutOfRange, match="b_max") as info:
            sample_locus(LocusParams(1.0), SQRT3, b_max, 3)
        assert "nan" not in str(info.value)

    def test_largest_finite_b_max_accepted(self):
        # The float below the first rejected b_max at fold 1 still gives
        # finite points.
        pts = sample_locus(LocusParams(1.0), SQRT3, 9.480751908109176e+153, 3)
        assert all(math.isfinite(v) for p in pts
                   for v in (p.b, p.q.x, p.q.y, p.residual_circle1, p.residual_circle2,
                             p.residual_locus_relation, p.q_polar_angle.radians))

    @given(
        b_max=st.floats(allow_nan=False, allow_infinity=False),
        fold=st.floats(allow_nan=False, allow_infinity=False),
    )
    @settings(deadline=None, max_examples=300)
    def test_any_finite_b_max_and_fold(self, b_max, fold):
        # Every finite b_max and fold, sampled from the curve start, gives
        # finite points or a domain error, and a ValueError never reports a
        # NaN made along the way.
        try:
            pts = sample_locus(LocusParams(fold), SQRT3 * fold, b_max, 8)
        except ParameterOutOfRange:
            return
        except ValueError as exc:
            assert "nan" not in str(exc)
            return
        assert all(math.isfinite(v) for p in pts
                   for v in (p.q.x, p.q.y, p.residual_circle1, p.residual_circle2,
                             p.residual_locus_relation))

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            sample_locus(LocusParams(1.0), SQRT3, 10.0, 1)

    def test_endpoints_included_exactly(self):
        pts = sample_locus(LocusParams(1.0), SQRT3, 10.0, 2)
        assert pts[0].b == SQRT3
        assert pts[-1].b == 10.0
        assert abs(pts[0].q.x) <= 1e-12 and abs(pts[0].q.y - 2.0) <= 1e-12
        assert abs(
            pts[-1].q_polar_angle.radians - 3.0 * math.atan(1.0 / 10.0)
        ) <= 1e-12

    def test_ascending_b_descending_angle(self):
        pts = sample_locus(LocusParams(1.0), SQRT3, 25.0, 100)
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

    def test_tampered_theta_is_flagged(self):
        params = LocusParams(1.0)
        r = trisect(Angle.from_degrees(60.0), params)
        bad = copy.copy(r)
        bad.theta = Angle(r.theta.radians + 1e-6)
        report = verify_trisection(bad, params)
        res = report.residuals["three_theta_vs_target"]
        assert math.isclose(res, 3e-6, rel_tol=1e-4)
        assert not report.passes(1e-12)

    def test_nan_unit_length_is_flagged(self):
        # The unit length enters two residuals after the first, finite one;
        # each NaN fails the report and is named by worst().
        params = LocusParams(1.0)
        bad = copy.copy(trisect(Angle.from_degrees(60.0), params))
        bad.unit_length = math.nan
        report = verify_trisection(bad, params)
        nan_names = [k for k, v in report.residuals.items() if math.isnan(v)]
        assert nan_names == ["on_vs_unit_length", "fold_ratio_vs_sin_theta"]
        assert not report.passes(1e-12)
        assert math.isnan(report.max_residual())
        name, value = report.worst()
        assert name == "on_vs_unit_length" and math.isnan(value)


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


def counted(run):
    """Run ``run()`` under a profile and count by name each Python call into
    the package, as ``module.function`` (a ``__post_init__`` by its class,
    so its count is that class's builds), and each call the package makes
    to a ``math`` function, as ``math.name``."""
    calls = collections.Counter()

    def profile(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(PACKAGE):
            return
        if event == "call":
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
    solve path holds no comprehension or generator, whose frames only some
    Python versions profile, so every supported Python counts the same."""
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
    # and its dict). The result, the fold and the diagram store their target
    # as a float, and the constructions' points are immutable tuples.
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
