"""Tests for the residual-report queries."""

import math

import pytest

from trisectrix.report import VerificationReport

NAMES = ("a", "b", "c")


@pytest.mark.parametrize("at", range(len(NAMES)))
def test_nan_residual_fails_at_any_position(at):
    # A NaN compares false with everything, so a max() over the residuals
    # would skip one that is not first; the report must not.
    values = [0.0, 1e-15, 2e-16]
    values[at] = math.nan
    report = VerificationReport(dict(zip(NAMES, values)))
    assert not report.passes(1e-12)
    assert not report.passes(math.inf)
    assert math.isnan(report.max_residual())
    name, value = report.worst()
    assert name == NAMES[at] and math.isnan(value)


def test_worst_names_the_first_nan():
    report = VerificationReport({"a": 1.0, "b": math.nan, "c": -math.nan})
    name, value = report.worst()
    assert name == "b" and math.isnan(value)


def test_worst_takes_the_first_of_equal_maxima():
    # The verify command prints worst()'s name, so ties keep key order.
    report = VerificationReport({"a": 1e-13, "b": -3e-12, "c": 3e-12, "d": 2e-12})
    assert report.worst() == ("b", 3e-12)
    assert report.max_residual() == 3e-12
    assert report.passes(3e-12) and not report.passes(2.9e-12)


def test_finite_report_passes_at_its_largest_residual():
    report = VerificationReport({"a": 0.0, "b": math.inf})
    assert report.worst() == ("b", math.inf)
    assert report.passes(math.inf) and not report.passes(1e300)
