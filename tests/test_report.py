"""Tests for the residual-report queries.

Each case runs on two reports of the same 31 named values, named as a
cross-check report names its residuals: a VerificationReport of their dict,
and a CrossValidationReport of the same values split into that report's
parts, each route's names under its prefix. The cross-check report is a
VerificationReport whose first read of ``residuals`` merges its parts into
one dict, and both answer ``passes`` and ``worst`` by walking that dict."""

import math

import pytest

from trisectrix.geom import Angle
from trisectrix.oracles import CrossValidationReport, cross_validate
from trisectrix.report import VerificationReport

# A cross-check report's parts, and its keys in order.
PARTS = cross_validate(1.0, 1.0, 1e-10).parts
KEYS = [prefix + name for prefix, part in PARTS for name in part]


def _verification(values):
    return VerificationReport(dict(zip(KEYS, values)))


def _cross(values):
    values = iter(values)
    return CrossValidationReport(Angle(1.0), tuple(
        (prefix, {name: next(values) for name in part}) for prefix, part in PARTS))


REPORTS = (_verification, _cross)
# Where a NaN goes: the first key, one inside, and the last.
POSITIONS = (0, 15, len(KEYS) - 1)


def _values(changed):
    """31 rounding-level residuals that grow along the keys, with each value
    of ``changed`` put at its position."""
    values = [i * 1e-17 for i in range(len(KEYS))]
    for position, value in changed.items():
        values[position] = value
    return values


@pytest.mark.parametrize("at", range(len(POSITIONS)))
def test_nan_residual_fails_at_any_position(at):
    # A NaN compares false with everything, so a max() over the residuals
    # would skip one that is not first; the report must not. At the first
    # position every later value is larger, at the last every earlier one
    # is a finite maximum already found.
    position = POSITIONS[at]
    for build in REPORTS:
        report = build(_values({position: math.nan}))
        assert not report.passes(1e-12), build.__name__
        assert not report.passes(math.inf), build.__name__
        assert math.isnan(report.max_residual()), build.__name__
        name, value = report.worst()
        assert name == KEYS[position] and math.isnan(value), build.__name__


def test_worst_names_the_first_nan():
    for build in REPORTS:
        report = build(_values({0: 1.0, 3: math.nan, 20: -math.nan, 30: math.nan}))
        name, value = report.worst()
        assert name == KEYS[3] and math.isnan(value), build.__name__


def test_worst_takes_the_first_of_equal_maxima():
    # The verify command prints worst()'s name, so ties keep key order.
    for build in REPORTS:
        report = build(_values({0: 1e-13, 5: -3e-12, 9: 3e-12, 30: 2e-12}))
        assert report.worst() == (KEYS[5], 3e-12), build.__name__
        assert report.max_residual() == 3e-12, build.__name__
        assert report.passes(3e-12) and not report.passes(2.9e-12), build.__name__


def test_finite_report_passes_at_its_largest_residual():
    for build in REPORTS:
        report = build(_values({0: 0.0, 30: math.inf}))
        assert report.worst() == (KEYS[30], math.inf), build.__name__
        assert report.passes(math.inf) and not report.passes(1e300), build.__name__


def test_the_cross_check_report_is_a_verification_report():
    # One home for the queries: the cross-check report inherits worst,
    # max_residual and passes and supplies only its residuals dict.
    assert issubclass(CrossValidationReport, VerificationReport)
    assert {"worst", "max_residual", "passes"} & vars(CrossValidationReport).keys() == set()
    # A lone part is merged too when it has a prefix, so its keys carry it.
    report = CrossValidationReport(Angle(1.0), (("chord_", {"jk_radius": 1.0}),))
    assert report.worst() == ("chord_jk_radius", 1.0)
    assert report.parts == (("", {"chord_jk_radius": 1.0}),)
