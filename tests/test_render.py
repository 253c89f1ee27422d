"""Tests for the SVG construction renderer."""

import itertools
import math
import xml.etree.ElementTree as ET

import pytest

import pins

from trisectrix.geom import Angle
from trisectrix.locus import FOLD_MAX, FOLD_MIN, LocusParams, trisect
from trisectrix.render import render_svg

PARAMS = LocusParams(1.0)
RESULT = trisect(Angle.from_degrees(75.0), PARAMS)


class TestRenderSvg:
    def test_structure_two_circles_one_polyline(self):
        svg = render_svg(PARAMS, RESULT, 64)
        assert svg.count("<circle ") == 2
        assert svg.count("<polyline ") == 1

    def test_well_formed_xml(self):
        svg = render_svg(PARAMS, RESULT, 64)
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert "viewBox" in root.attrib

    def test_byte_identical_across_runs(self):
        first = render_svg(PARAMS, RESULT, 64)
        second = render_svg(PARAMS, RESULT, 64)
        assert first == second

    def test_crossing_labelled_n(self):
        svg = render_svg(PARAMS, RESULT, 64)
        assert ">N</text>" in svg
        assert ">Q</text>" not in svg

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            render_svg(PARAMS, RESULT, 1)

    def test_fixed_element_order(self):
        svg = render_svg(PARAMS, RESULT, 64)
        first_line = svg.index("<line ")
        first_circle = svg.index("<circle ")
        polyline = svg.index("<polyline ")
        first_text = svg.index("<text ")
        assert first_line < first_circle < polyline < first_text


def diagram(fold, degrees, samples):
    """The diagram ``trisectrix render`` draws: ``render_svg`` of the solve
    at the default tol."""
    params = LocusParams(fold)
    return render_svg(params, trisect(Angle.from_degrees(degrees), params), samples)


def view_box(svg):
    return [float(v) for v in ET.fromstring(svg).attrib["viewBox"].split()]


def svg_grid():
    """400 diagrams in fold, target, sample-count order, each labelled by
    those three inputs."""
    grid = itertools.product(
        (1e-9, 1e-3, 0.1, 0.37, 1.0, 2.5, 10.0, 1e5, 1e40, 1e89),
        (1e-6, 0.5, 1.0, 7.3, 30.0, 45.0, 60.0, 75.0, 89.9, 90.0),
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
