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
    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            render_svg(PARAMS, RESULT, 1)


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


SVG_NS = "{http://www.w3.org/2000/svg}"


@pytest.mark.parametrize("fold", [1e-3, 1.0, 2.5e4])
@pytest.mark.parametrize("degrees,samples", [(0.5, 2), (10.0, 17), (20.0, 128),
                                             (45.0, 3), (89.9, 64), (90.0, 17)])
def test_layers_in_order_and_inside_the_margin(fold, degrees, samples):
    # Below about 25 degrees the locus's far end sets the right edge of the
    # box, so the polyline stays inside the margin only if it is boxed too.
    # Each stroke, dash, marker, label offset and font is a fixed size on
    # the 800 x 600 px canvas, which the viewBox fits: one px is
    # 1 / min(800/vw, 600/vh) of its units.
    params = LocusParams(fold)
    result = trisect(Angle.from_degrees(degrees), params)
    svg = render_svg(params, result, samples)
    assert svg.startswith('<?xml version="1.0" encoding="UTF-8"?>\n<svg ')
    root = ET.fromstring(svg)
    vx, vy, vw, vh = view_box(svg)
    close = lambda got, want: math.isclose(got, want, rel_tol=1e-5, abs_tol=1e-5 * vw)
    px = 1.0 / min(800.0 / vw, 600.0 / vh)
    size = lambda got, n: math.isclose(float(got), n * px, rel_tol=2e-5)
    assert [el.tag.replace(SVG_NS, "") for el in root.iter()] == (
        ["svg", "g"] + ["line"] * 4 + ["circle"] * 2 + ["polyline"] + ["line"] * 3
        + ["rect"] * 6 + ["text"] * 6)

    lines = [{k: (v if k in ("stroke", "stroke-dasharray") else float(v))
              for k, v in el.attrib.items()} for el in root.iter(SVG_NS + "line")]
    assert [el["stroke"] for el in lines] == ["#999999"] * 2 + ["#bbbbbb"] * 2 + ["#444444"] * 3
    # The fold lines are the only dashed ones.
    assert ["stroke-dasharray" in el for el in lines] == [False] * 2 + [True] * 2 + [False] * 3
    for el, width in zip(lines, [0.6] * 4 + [0.8] * 3):
        assert size(el["stroke-width"], width * 1.5)
    x_axis, y_axis, fold_a, fold_2a, base_ray, target_ray, j_ray = lines
    for el in (fold_a, fold_2a):
        assert all(size(dash, 4.0 * 1.5) for dash in el["stroke-dasharray"].split())
    assert x_axis["y1"] == x_axis["y2"] == 0.0 and y_axis["x1"] == y_axis["x2"] == 0.0
    for el, y in ((fold_a, fold), (fold_2a, 2.0 * fold)):
        assert close(el["y1"], y) and close(el["y2"], y)
    for el in (base_ray, target_ray, j_ray):
        assert el["x1"] == el["y1"] == 0.0
    assert base_ray["y2"] == 0.0
    assert math.isclose(math.atan2(target_ray["y2"], target_ray["x2"]),
                        result.three_theta, rel_tol=1e-5)
    assert close(j_ray["x2"], result.b_star) and close(j_ray["y2"], fold)

    circles = [{k: float(el.attrib[k]) for k in ("cx", "cy", "r", "stroke-width")}
               for el in root.iter(SVG_NS + "circle")]
    for circle, (cx, cy, r) in zip(circles, [(0.0, 0.0, result.unit_length),
                                             (result.b_star, fold, 2.0 * fold)]):
        assert close(circle["cx"], cx) and close(circle["cy"], cy) and close(circle["r"], r)
        assert size(circle["stroke-width"], 1.5)

    named = [("O", 0.0, 0.0), ("C", 0.0, fold), ("D", 0.0, 2.0 * fold),
             ("J", result.b_star, fold), ("K", result.b_star, 0.0),
             ("N", result.n_point.x, result.n_point.y)]
    assert [el.text for el in root.iter(SVG_NS + "text")] == [name for name, _, _ in named]
    for el, (_, x, y) in zip(root.iter(SVG_NS + "rect"), named):
        half = 0.5 * float(el.attrib["width"])
        assert close(float(el.attrib["x"]) + half, x)
        assert close(float(el.attrib["y"]) + half, y)
        assert size(el.attrib["width"], 2.0 * 2.5 * 1.5)
        assert el.attrib["height"] == el.attrib["width"]
    for el, (_, x, y) in zip(root.iter(SVG_NS + "text"), named):
        tx, ty = el.attrib["transform"].removeprefix("translate(").partition(")")[0].split()
        assert close(float(tx), x + 7.0 * px) and close(float(ty), y + 7.0 * px)
        assert size(el.attrib["font-size"], 13.0)

    (polyline,) = root.iter(SVG_NS + "polyline")
    assert size(polyline.attrib["stroke-width"], 1.4 * 1.5)
    points = [tuple(map(float, p.split(","))) for p in polyline.attrib["points"].split()]
    assert len(points) == samples
    # The canvas fits the viewBox, so its 48 px margin is the larger of 48/800
    # of the width and 48/600 of the height; y is flipped into the viewBox.
    pad = max(48.0 / 800.0 * vw, 48.0 / 600.0 * vh)
    slack = 1e-5 * vw
    for x, y in points:
        assert vx + pad - slack <= x <= vx + vw - pad + slack
        assert vy + pad - slack <= -y <= vy + vh - pad + slack
