"""Tests for the SVG construction renderer."""

import itertools
import math
import xml.etree.ElementTree as ET

import pytest

import pins

from trisectrix.geom import Angle, SQRT3
from trisectrix.locus import FOLD_MAX, FOLD_MIN, LocusParams, sample_locus, trisect
from trisectrix.render import render_svg

PARAMS = LocusParams(1.0)
POINTS = sample_locus(PARAMS, SQRT3, 4.0, 64)
RESULT = trisect(Angle.from_degrees(75.0), PARAMS)


class TestRenderSvg:
    def test_structure_two_circles_one_polyline(self):
        svg = render_svg(PARAMS, POINTS, result=RESULT)
        assert svg.count("<circle ") == 2
        assert svg.count("<polyline ") == 1

    def test_well_formed_xml(self):
        svg = render_svg(PARAMS, POINTS, result=RESULT)
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert "viewBox" in root.attrib

    def test_byte_identical_across_runs(self):
        first = render_svg(PARAMS, POINTS, result=RESULT)
        second = render_svg(PARAMS, POINTS, result=RESULT)
        assert first == second

    def test_crossing_label_present_only_with_solve(self):
        with_solve = render_svg(PARAMS, POINTS, result=RESULT)
        without_solve = render_svg(PARAMS, POINTS, result=None)
        assert ">N</text>" in with_solve
        assert ">Q</text>" not in with_solve
        assert ">Q</text>" in without_solve
        assert ">N</text>" not in without_solve

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            render_svg(PARAMS, POINTS[:1], result=None)

    def test_fixed_element_order(self):
        svg = render_svg(PARAMS, POINTS, result=RESULT)
        first_line = svg.index("<line ")
        first_circle = svg.index("<circle ")
        polyline = svg.index("<polyline ")
        first_text = svg.index("<text ")
        assert first_line < first_circle < polyline < first_text


def diagram(fold, degrees, samples):
    """``render_svg`` over the range ``trisectrix render`` picks: sqrt(3)*a to
    10*a, or with a target up to max(1.3*b*, 2*sqrt(3)*a), solved at tol 1e-12."""
    params = LocusParams(fold)
    b_min, b_max = SQRT3 * fold, 10.0 * fold
    result = None
    if degrees is not None:
        result = trisect(Angle.from_degrees(degrees), params, tol=1e-12)
        b_max = max(1.3 * result.b_star, 2.0 * b_min)
    return render_svg(params, sample_locus(params, b_min, b_max, samples), result=result)


def view_box(svg):
    return [float(v) for v in ET.fromstring(svg).attrib["viewBox"].split()]


def svg_grid():
    """440 diagrams in fold, target, sample-count order, each labelled by
    those three inputs."""
    grid = itertools.product(
        (1e-9, 1e-3, 0.1, 0.37, 1.0, 2.5, 10.0, 1e5, 1e40, 1e89),
        (None, 1e-6, 0.5, 1.0, 7.3, 30.0, 45.0, 60.0, 75.0, 89.9, 90.0),
        (2, 3, 17, 128),
    )
    for fold, degrees, samples in grid:
        yield (f"fold={fold!r} deg={degrees!r} samples={samples}",
               diagram(fold, degrees, samples))


def test_svg_bytes_over_a_grid():
    pins.check("svg", svg_grid())


@pytest.mark.parametrize("fold", [1e-12, 1e-100, FOLD_MIN, FOLD_MAX])
def test_view_box_scales_with_the_fold(fold):
    # The construction scales with a, so the viewBox does too, down to the
    # smallest fold: its printed 6 digits match fold 1's.
    unit = view_box(diagram(1.0, 60.0, 128))
    scaled = view_box(diagram(fold, 60.0, 128))
    for got, want in zip(scaled, unit):
        assert math.isclose(got / fold, want, rel_tol=1e-5), (scaled, unit)
