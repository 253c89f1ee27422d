"""Tests for the SVG construction renderer."""

import xml.etree.ElementTree as ET

import pytest

from trisectrix.geom import Angle, SQRT3
from trisectrix.locus import LocusParams, sample_locus, trisect
from trisectrix.render import RenderSpec, render_svg

PARAMS = LocusParams(1.0)
POINTS = sample_locus(PARAMS, SQRT3, 4.0, 64)
RESULT = trisect(Angle.from_degrees(75.0), PARAMS)


class TestRenderSpec:
    def test_defaults_valid(self):
        spec = RenderSpec()
        assert spec.width_px >= 64 and spec.height_px >= 64

    def test_rejects_tiny_canvas(self):
        with pytest.raises(ValueError):
            RenderSpec(width_px=32)
        with pytest.raises(ValueError):
            RenderSpec(height_px=10)

    def test_rejects_canvas_beyond_float_range(self):
        with pytest.raises(ValueError):
            RenderSpec(width_px=10 ** 400)

    def test_rejects_negative_margin(self):
        with pytest.raises(ValueError):
            RenderSpec(margin_px=-1)
        # Twice the margin must leave room on the shorter side.
        for margin, width, height in ((300, 800, 600), (400, 800, 600),
                                      (32, 64, 64), (50, 64, 600)):
            with pytest.raises(ValueError):
                RenderSpec(width_px=width, height_px=height, margin_px=margin)
        widest = RenderSpec(width_px=800, height_px=600, margin_px=299)
        view_box = ET.fromstring(render_svg(PARAMS, POINTS, spec=widest)).attrib["viewBox"]
        assert all(float(v) > 0.0 for v in view_box.split()[2:])

    def test_rejects_bad_stroke(self):
        # Wider than 504 px, the shorter side of the default drawing area
        # (600 - 2*48), is rejected too.
        for stroke in (0.0, 504.5, 1e308):
            with pytest.raises(ValueError):
                RenderSpec(stroke_width=stroke)
        assert RenderSpec(stroke_width=504.0).stroke_width == 504.0


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

    def test_layer_toggles(self):
        no_labels = render_svg(PARAMS, POINTS, result=RESULT,
                               spec=RenderSpec(labels=False))
        assert "<text" not in no_labels
        no_circles = render_svg(PARAMS, POINTS, result=RESULT,
                                spec=RenderSpec(circles=False))
        assert "<circle " not in no_circles
        no_locus = render_svg(PARAMS, POINTS, result=RESULT,
                              spec=RenderSpec(locus=False))
        assert "<polyline " not in no_locus
        no_rays = render_svg(PARAMS, POINTS, result=RESULT,
                             spec=RenderSpec(rays=False))
        assert no_rays.count("<line ") < render_svg(
            PARAMS, POINTS, result=RESULT
        ).count("<line ")

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
