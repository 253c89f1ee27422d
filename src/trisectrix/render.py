"""Deterministic SVG diagrams of the locus construction.

The emitted document is a pure function of its inputs: fixed element order
(axes, fold lines, the two circles, the locus polyline, rays, then labeled
points), fixed formatting, and a viewBox computed from the construction's
bounding box. Identical inputs produce byte-identical files. Geometry is
emitted in y-up mathematical coordinates inside a single top-level flip.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from .locus import LocusParams, LocusPoint, TrisectionResult


@dataclass(slots=True)
class RenderSpec:
    """Canvas geometry and layer toggles for the SVG emitter."""

    width_px: int = 800
    height_px: int = 600
    margin_px: int = 48
    stroke_width: float = 1.5
    circles: bool = True
    locus: bool = True
    rays: bool = True
    labels: bool = True

    def __post_init__(self) -> None:
        if self.width_px < 64 or self.height_px < 64:
            raise ValueError(
                f"canvas must be at least 64x64 px, got {self.width_px}x{self.height_px}"
            )
        if max(self.width_px, self.height_px) > sys.float_info.max:
            raise ValueError("canvas sides must not exceed the float range")
        if self.margin_px < 0:
            raise ValueError(f"margin must be non-negative, got {self.margin_px!r}")
        if 2 * self.margin_px >= min(self.width_px, self.height_px):
            raise ValueError(
                f"margin {self.margin_px!r} px leaves no drawing area on a "
                f"{self.width_px}x{self.height_px} px canvas"
            )
        if not (math.isfinite(self.stroke_width) and self.stroke_width > 0.0):
            raise ValueError(f"stroke width must be positive, got {self.stroke_width!r}")
        if self.stroke_width > min(self.width_px, self.height_px) - 2 * self.margin_px:
            raise ValueError(f"stroke width {self.stroke_width!r} px exceeds the drawing area")


def _n(v: float) -> str:
    return f"{v:.6g}"


class _Box:
    def __init__(self) -> None:
        self.xmin = math.inf
        self.xmax = -math.inf
        self.ymin = math.inf
        self.ymax = -math.inf

    def add(self, x: float, y: float) -> None:
        self.xmin = min(self.xmin, x)
        self.xmax = max(self.xmax, x)
        self.ymin = min(self.ymin, y)
        self.ymax = max(self.ymax, y)


def render_svg(
    params: LocusParams,
    locus_points: Sequence[LocusPoint],
    result: Optional[TrisectionResult] = None,
    spec: Optional[RenderSpec] = None,
) -> str:
    """Render the construction for one fold spacing as a standalone SVG.

    With a solved ``result`` the circles sit at the crossing parameter, the
    target ray is drawn, and the crossing point is labeled N; without one
    the circles sit at the first sampled parameter and the intersection
    point is labeled Q.
    """
    if spec is None:
        spec = RenderSpec()
    if len(locus_points) < 2:
        raise ValueError("need at least two locus samples to render")

    a = params.a
    if result is not None:
        b_draw = result.b_star
        q_draw = result.n_point
        q_label = "N"
    else:
        b_draw = locus_points[0].b
        q_draw = locus_points[0].q
        q_label = "Q"

    jx, jy = b_draw, a
    r1 = math.hypot(a, b_draw)
    r2 = 2.0 * a

    box = _Box()
    box.add(0.0, 0.0)
    box.add(0.0, 2.0 * a)
    box.add(b_draw, 0.0)
    if spec.circles:
        box.add(-r1, -r1)
        box.add(r1, r1)
        box.add(jx - r2, jy - r2)
        box.add(jx + r2, jy + r2)
    if spec.locus:
        for pt in locus_points:
            box.add(pt.q.x, pt.q.y)
    box.add(q_draw.x, q_draw.y)
    ob_end = None
    if result is not None:
        reach = 1.15 * result.unit_length
        t3 = result.three_theta.radians
        ob_end = (reach * math.cos(t3), reach * math.sin(t3))
        if spec.rays:
            box.add(*ob_end)

    bw = max(box.xmax - box.xmin, 1e-9)
    bh = max(box.ymax - box.ymin, 1e-9)
    scale = min(
        (spec.width_px - 2.0 * spec.margin_px) / bw,
        (spec.height_px - 2.0 * spec.margin_px) / bh,
    )
    pad = spec.margin_px / scale
    stroke = spec.stroke_width / scale
    font = 13.0 / scale
    marker = 2.5 * stroke

    vx = box.xmin - pad
    vy = -(box.ymax + pad)
    vw = bw + 2.0 * pad
    vh = bh + 2.0 * pad

    out: list[str] = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{spec.width_px}" '
        f'height="{spec.height_px}" viewBox="{_n(vx)} {_n(vy)} {_n(vw)} {_n(vh)}">'
    )
    out.append('<g transform="scale(1,-1)" fill="none" stroke-linecap="round">')

    def line(x1: float, y1: float, x2: float, y2: float, color: str, width: float,
             dash: str = "") -> None:
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        out.append(
            f'<line x1="{_n(x1)}" y1="{_n(y1)}" x2="{_n(x2)}" y2="{_n(y2)}" '
            f'stroke="{color}" stroke-width="{_n(width)}"{extra}/>'
        )

    # Axes.
    line(box.xmin, 0.0, box.xmax, 0.0, "#999999", 0.6 * stroke)
    line(0.0, box.ymin, 0.0, box.ymax, "#999999", 0.6 * stroke)
    # Fold lines y = a (the line J slides on) and y = 2a.
    fold_dash = f"{_n(4.0 * stroke)} {_n(4.0 * stroke)}"
    line(box.xmin, a, box.xmax, a, "#bbbbbb", 0.6 * stroke, fold_dash)
    line(box.xmin, 2.0 * a, box.xmax, 2.0 * a, "#bbbbbb", 0.6 * stroke, fold_dash)

    if spec.circles:
        out.append(
            f'<circle cx="0" cy="0" r="{_n(r1)}" stroke="#1f77b4" '
            f'stroke-width="{_n(stroke)}"/>'
        )
        out.append(
            f'<circle cx="{_n(jx)}" cy="{_n(jy)}" r="{_n(r2)}" stroke="#d62728" '
            f'stroke-width="{_n(stroke)}"/>'
        )

    if spec.locus:
        coords = " ".join(f"{_n(pt.q.x)},{_n(pt.q.y)}" for pt in locus_points)
        out.append(
            f'<polyline points="{coords}" stroke="#2ca02c" '
            f'stroke-width="{_n(1.4 * stroke)}"/>'
        )

    if spec.rays:
        line(0.0, 0.0, box.xmax, 0.0, "#444444", 0.8 * stroke)
        if ob_end is not None:
            line(0.0, 0.0, ob_end[0], ob_end[1], "#444444", 0.8 * stroke)
        line(0.0, 0.0, jx, jy, "#444444", 0.8 * stroke)

    if spec.labels:
        named = [
            ("O", 0.0, 0.0),
            ("C", 0.0, a),
            ("D", 0.0, 2.0 * a),
            ("J", jx, jy),
            ("K", b_draw, 0.0),
            (q_label, q_draw.x, q_draw.y),
        ]
        for _, px, py in named:
            out.append(
                f'<rect x="{_n(px - marker)}" y="{_n(py - marker)}" '
                f'width="{_n(2.0 * marker)}" height="{_n(2.0 * marker)}" fill="#000000"/>'
            )
        offset = 7.0 / scale
        for name, px, py in named:
            out.append(
                f'<text transform="translate({_n(px + offset)} {_n(py + offset)}) '
                f'scale(1,-1)" fill="#000000" font-family="sans-serif" '
                f'font-size="{_n(font)}">{name}</text>'
            )

    out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"
