"""Deterministic SVG diagrams of the solved locus construction.

The emitted document is a pure function of its inputs: fixed element order
(axes, fold lines, the two circles, the locus polyline, rays, then labeled
points), fixed formatting, and a viewBox computed from the construction's
bounding box. Identical inputs produce byte-identical files. Geometry is
emitted in y-up mathematical coordinates inside a single top-level flip.
Every diagram is drawn on the same canvas, with every layer.
"""

from __future__ import annotations

import math

from .geom import SQRT3
from .locus import LocusParams, TrisectionResult, sample_locus

WIDTH_PX = 800
HEIGHT_PX = 600
MARGIN_PX = 48
STROKE_PX = 1.5


def _n(v: float) -> str:
    return f"{v:.6g}"


def render_svg(params: LocusParams, result: TrisectionResult, samples: int) -> str:
    """Render the solved construction for one fold spacing as a standalone SVG.

    The locus is drawn through ``samples`` points (at least 2) spaced evenly
    from its start sqrt(3)*a to max(1.3*b*, 2*sqrt(3)*a), so the crossing at
    b* lies inside the drawn range. The circles sit at the crossing
    parameter b*, the target ray is drawn, and the crossing point is
    labeled N.
    """
    a = params.a
    b_star, n = result.b_star, result.n_point
    b_min = SQRT3 * a
    locus_points = sample_locus(params, b_min, max(1.3 * b_star, 2.0 * b_min), samples)

    jx, jy = b_star, a
    r1 = math.hypot(a, b_star)
    r2 = 2.0 * a

    # The bounding box, from points listed in a fixed order: min and max
    # keep the first of equal values, so the sign of a zero bound is stable.
    xs = [0.0, 0.0, b_star, -r1, r1, jx - r2, jx + r2]
    ys = [0.0, 2.0 * a, 0.0, -r1, r1, jy - r2, jy + r2]
    xs += [pt.q.x for pt in locus_points]
    ys += [pt.q.y for pt in locus_points]
    reach = 1.15 * result.unit_length
    t3 = result.three_theta.radians
    ob_x, ob_y = reach * math.cos(t3), reach * math.sin(t3)
    xs += [n.x, ob_x]
    ys += [n.y, ob_y]
    xmin, xmax, ymin, ymax = min(xs), max(xs), min(ys), max(ys)

    # Both sides are positive: the box holds (0, 0), (0, 2a) and (b, 0).
    bw = xmax - xmin
    bh = ymax - ymin
    scale = min((WIDTH_PX - 2.0 * MARGIN_PX) / bw, (HEIGHT_PX - 2.0 * MARGIN_PX) / bh)
    pad = MARGIN_PX / scale
    stroke = STROKE_PX / scale
    font = 13.0 / scale
    marker = 2.5 * stroke

    vx = xmin - pad
    vy = -(ymax + pad)
    vw = bw + 2.0 * pad
    vh = bh + 2.0 * pad

    out: list[str] = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH_PX}" '
        f'height="{HEIGHT_PX}" viewBox="{_n(vx)} {_n(vy)} {_n(vw)} {_n(vh)}">'
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
    line(xmin, 0.0, xmax, 0.0, "#999999", 0.6 * stroke)
    line(0.0, ymin, 0.0, ymax, "#999999", 0.6 * stroke)
    # Fold lines y = a (the line J slides on) and y = 2a.
    fold_dash = f"{_n(4.0 * stroke)} {_n(4.0 * stroke)}"
    line(xmin, a, xmax, a, "#bbbbbb", 0.6 * stroke, fold_dash)
    line(xmin, 2.0 * a, xmax, 2.0 * a, "#bbbbbb", 0.6 * stroke, fold_dash)

    # The two circles, the locus, the rays, then the labeled points.
    out.append(
        f'<circle cx="0" cy="0" r="{_n(r1)}" stroke="#1f77b4" '
        f'stroke-width="{_n(stroke)}"/>'
    )
    out.append(
        f'<circle cx="{_n(jx)}" cy="{_n(jy)}" r="{_n(r2)}" stroke="#d62728" '
        f'stroke-width="{_n(stroke)}"/>'
    )

    coords = " ".join(f"{_n(pt.q.x)},{_n(pt.q.y)}" for pt in locus_points)
    out.append(
        f'<polyline points="{coords}" stroke="#2ca02c" '
        f'stroke-width="{_n(1.4 * stroke)}"/>'
    )

    line(0.0, 0.0, xmax, 0.0, "#444444", 0.8 * stroke)
    line(0.0, 0.0, ob_x, ob_y, "#444444", 0.8 * stroke)
    line(0.0, 0.0, jx, jy, "#444444", 0.8 * stroke)

    named = [
        ("O", 0.0, 0.0),
        ("C", 0.0, a),
        ("D", 0.0, 2.0 * a),
        ("J", jx, jy),
        ("K", b_star, 0.0),
        ("N", n.x, n.y),
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
