"""Command-line interface: verified trisections, locus tables, diagrams.

Degrees at this boundary, radians everywhere inside. All emitters are
deterministic; numbers are serialized with Python's shortest round-trip
representation (at most 17 significant digits) so output files are stable
golden-test targets.

Exit codes: 0 success, 1 verification failure, 2 argument error, 3 domain
error, 4 convergence error, 5 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import (
    AngleOutOfRange,
    ConcentricCircles,
    DegeneratePoint,
    InvalidSampleCount,
    MaxIterationsExceeded,
    MismatchDetected,
    NoIntersection,
    ParameterOutOfRange,
)
from .geom import SQRT3, Angle
from .locus import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    LocusParams,
    sample_locus,
    trisect,
    verify_trisection,
)
from .oracles import cross_validate
from .origami import abe_construct, abe_verify
from .render import RenderSpec, render_svg

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_ARGS = 2
EXIT_DOMAIN = 3
EXIT_CONVERGENCE = 4
EXIT_IO = 5

CSV_HEADER = "b,x,y,q_angle_deg,j_angle_deg,residual_c1,residual_c2,residual_relation"

_FORMATS = {
    "trisect": ("json", "text"),
    "locus": ("csv",),
    "origami": ("json", "text"),
    "verify": ("text", "json"),
    "render": ("svg",),
}


@dataclass(frozen=True)
class CliConfig:
    """Validated flag set for one subcommand invocation."""

    subcommand: str
    angle_deg: Optional[float]
    fold_a: float
    tol: float
    samples: int
    b_min: Optional[float]
    b_max: Optional[float]
    output_path: Optional[str]
    format: str
    max_iter: int = DEFAULT_MAX_ITER

    def __post_init__(self) -> None:
        if not (math.isfinite(self.fold_a) and self.fold_a > 0.0):
            raise ValueError(f"--fold must be positive, got {self.fold_a!r}")
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"--tol must be positive, got {self.tol!r}")
        if self.samples < 2:
            raise ValueError(f"--samples must be at least 2, got {self.samples!r}")
        if self.max_iter < 1:
            raise ValueError(f"--max-iter must be at least 1, got {self.max_iter!r}")
        allowed = _FORMATS[self.subcommand]
        if self.format not in allowed:
            raise ValueError(
                f"--format {self.format!r} is not valid for {self.subcommand!r} "
                f"(choose from {', '.join(allowed)})"
            )

    def target(self) -> Angle:
        """``--angle-deg`` as an Angle. The degrees are checked as given,
        because an Angle wraps: 450 would otherwise be solved as 90."""
        if self.angle_deg is None:
            raise ValueError(f"{self.subcommand!r} requires --angle-deg")
        if not 0.0 < self.angle_deg <= 90.0:
            raise AngleOutOfRange(
                f"--angle-deg must lie in (0, 90] degrees, got {self.angle_deg!r}"
            )
        return Angle.from_degrees(self.angle_deg)


def _config(args: argparse.Namespace) -> CliConfig:
    default_format = _FORMATS[args.subcommand][0]
    return CliConfig(
        subcommand=args.subcommand,
        angle_deg=args.angle_deg,
        fold_a=args.fold,
        tol=args.tol,
        samples=args.samples,
        b_min=args.b_min,
        b_max=args.b_max,
        output_path=args.output,
        format=args.format or default_format,
        max_iter=args.max_iter,
    )


def _write_output(text: str, path: Optional[str]) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def cmd_trisect(cfg: CliConfig) -> int:
    target = cfg.target()
    params = LocusParams(cfg.fold_a)
    result = trisect(target, params, tol=cfg.tol, max_iter=cfg.max_iter)
    report = verify_trisection(result, params)
    payload = {
        "three_theta_deg": result.three_theta.degrees,
        "three_theta_rad": result.three_theta.radians,
        "theta_deg": result.theta.degrees,
        "theta_rad": result.theta.radians,
        "b_star": result.b_star,
        "b_star_normalized": result.b_star / result.unit_length,
        "unit_length": result.unit_length,
        "n_point": {"x": result.n_point.x, "y": result.n_point.y},
        "iterations": result.iterations,
        "final_bracket_width": result.final_bracket_width,
        "angle_residual_rad": result.angle_residual,
        "sin_theta_normalized": cfg.fold_a / result.unit_length,
        "fold_a": cfg.fold_a,
        "verification": dict(report.residuals),
    }
    if cfg.format == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [
            f"target angle : {payload['three_theta_deg']:.6g} deg",
            f"trisected    : {payload['theta_deg']!r} deg",
            f"b*           : {payload['b_star']!r}",
            f"unit length  : {payload['unit_length']!r}",
            f"N            : ({payload['n_point']['x']!r}, {payload['n_point']['y']!r})",
            f"iterations   : {payload['iterations']}",
            f"residual     : {payload['angle_residual_rad']!r} rad",
            f"worst check  : {max(abs(v) for v in payload['verification'].values())!r}",
        ]
        text = "\n".join(lines) + "\n"
    _write_output(text, cfg.output_path)
    return EXIT_OK


def cmd_locus(cfg: CliConfig) -> int:
    a = cfg.fold_a
    params = LocusParams(a)
    b_min = SQRT3 * a if cfg.b_min is None else cfg.b_min
    b_max = 10.0 * a if cfg.b_max is None else cfg.b_max
    points = sample_locus(params, b_min, b_max, cfg.samples)
    lines = [CSV_HEADER]
    for pt in points:
        j_angle_deg = math.degrees(math.atan2(a, pt.b))
        lines.append(
            f"{pt.b!r},{pt.q.x!r},{pt.q.y!r},{pt.q_polar_angle.degrees!r},"
            f"{j_angle_deg!r},{pt.residual_circle1!r},{pt.residual_circle2!r},"
            f"{pt.residual_locus_relation!r}"
        )
    _write_output("\n".join(lines) + "\n", cfg.output_path)
    return EXIT_OK


def cmd_origami(cfg: CliConfig) -> int:
    c = abe_construct(cfg.target())
    report = abe_verify(c)
    points = {
        name: {"x": p.x, "y": p.y}
        for name, p in (("O", c.O), ("D", c.D), ("S", c.S), ("H", c.H),
                        ("C", c.C), ("G", c.G), ("P", c.P))
    }
    payload = {
        "three_theta_deg": c.three_theta.degrees,
        "theta_deg": c.theta.degrees,
        "alpha_deg": c.alpha.degrees,
        "beta_deg": c.beta.degrees,
        "gamma_deg": c.gamma.degrees,
        "unit_length": c.unit_length,
        "points": points,
        "residuals": dict(report.residuals),
        "informational": dict(report.informational),
    }
    if cfg.format == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [f"fold construction for {payload['three_theta_deg']:.6g} deg"]
        for name, p in points.items():
            lines.append(f"  {name} = ({p['x']!r}, {p['y']!r})")
        lines.append(
            f"  alpha = beta = gamma = {payload['alpha_deg']!r} deg, "
            f"worst residual {report.max_residual()!r}"
        )
        text = "\n".join(lines) + "\n"
    _write_output(text, cfg.output_path)
    return EXIT_OK


def cmd_verify(cfg: CliConfig) -> int:
    worst: dict[str, tuple[float, int]] = {}
    failures: list[str] = []
    checked = 0
    for deg in range(1, 91):
        try:
            report = cross_validate(Angle.from_degrees(deg), cfg.fold_a, cfg.tol)
        except (MismatchDetected, MaxIterationsExceeded) as exc:
            failures.append(f"{deg} deg: {exc}")
            continue
        checked += 1
        for name, value in report.residuals.items():
            magnitude = abs(value)
            if name not in worst or magnitude > worst[name][0]:
                worst[name] = (magnitude, deg)
        if not report.passes(cfg.tol):
            name, value = report.worst()
            failures.append(f"{deg} deg: residual {name} = {value!r} exceeds tol")

    ok = not failures
    if cfg.format == "json":
        payload = {
            "angles_checked": checked,
            "fold_a": cfg.fold_a,
            "tol": cfg.tol,
            "passed": ok,
            "failures": failures,
            "worst_residuals": {
                name: {"value": value, "at_deg": deg}
                for name, (value, deg) in sorted(worst.items())
            },
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [
            f"cross-check sweep: 1..90 deg, fold a={cfg.fold_a!r}, tol={cfg.tol!r}"
        ]
        for name, (value, deg) in sorted(worst.items(), key=lambda kv: -kv[1][0]):
            lines.append(f"  {name:32s} {value:.3e}  (at {deg} deg)")
        for failure in failures:
            lines.append(f"  FAIL {failure}")
        lines.append(f"result: {'PASS' if ok else 'FAIL'} ({checked}/90 angles checked)")
        text = "\n".join(lines) + "\n"
    _write_output(text, cfg.output_path)
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def cmd_render(cfg: CliConfig, spec: RenderSpec) -> int:
    a = cfg.fold_a
    params = LocusParams(a)
    result = None
    if cfg.angle_deg is not None:
        result = trisect(cfg.target(), params, tol=cfg.tol, max_iter=cfg.max_iter)
        b_min = SQRT3 * a
        b_max = max(1.3 * result.b_star, 2.0 * b_min)
    else:
        b_min = SQRT3 * a if cfg.b_min is None else cfg.b_min
        b_max = 10.0 * a if cfg.b_max is None else cfg.b_max
    points = sample_locus(params, b_min, b_max, cfg.samples)
    svg = render_svg(params, points, result=result, spec=spec)
    _write_output(svg, cfg.output_path)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trisectrix",
        description="Angle trisection via a two-circle intersection locus, "
        "with independent cross-checks and diagram output.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser, samples_default: int) -> None:
        p.add_argument("--angle-deg", type=float, default=None,
                       help="target angle in degrees, in (0, 90]")
        p.add_argument("--fold", type=float, default=1.0,
                       help="fold spacing a in construction units (default 1)")
        p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                       help="solver tolerance in radians (default 1e-12)")
        p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER,
                       help=f"bisection step budget (default {DEFAULT_MAX_ITER})")
        p.add_argument("--samples", type=int, default=samples_default,
                       help=f"locus sample count (default {samples_default})")
        p.add_argument("--b-min", type=float, default=None,
                       help="lowest locus parameter (default sqrt(3)*a)")
        p.add_argument("--b-max", type=float, default=None,
                       help="highest locus parameter (default 10*a)")
        p.add_argument("--format", type=str, default=None,
                       choices=("json", "csv", "svg", "text"),
                       help="output format (subcommand-dependent default)")
        p.add_argument("--output", type=str, default=None,
                       help="output path (default: standard output)")

    add_common(sub.add_parser("trisect", help="solve one trisection, emit JSON"), 100)
    add_common(sub.add_parser("locus", help="emit a CSV table of locus samples"), 100)
    add_common(sub.add_parser("origami", help="emit the fold construction"), 100)
    add_common(sub.add_parser("verify", help="cross-check a 1..90 degree sweep"), 100)

    render = sub.add_parser("render", help="emit an SVG construction diagram")
    add_common(render, 128)
    render.add_argument("--width", type=int, default=800, help="canvas width in px")
    render.add_argument("--height", type=int, default=600, help="canvas height in px")
    render.add_argument("--margin", type=int, default=48, help="canvas margin in px")
    render.add_argument("--stroke-width", type=float, default=1.5,
                        help="stroke width in px")
    render.add_argument("--no-circles", action="store_true", help="hide the circles")
    render.add_argument("--no-locus", action="store_true", help="hide the locus curve")
    render.add_argument("--no-rays", action="store_true", help="hide the rays")
    render.add_argument("--no-labels", action="store_true", help="hide point labels")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_ARGS

    try:
        cfg = _config(args)
        if args.subcommand == "trisect":
            return cmd_trisect(cfg)
        if args.subcommand == "locus":
            return cmd_locus(cfg)
        if args.subcommand == "origami":
            return cmd_origami(cfg)
        if args.subcommand == "verify":
            return cmd_verify(cfg)
        spec = RenderSpec(
            width_px=args.width,
            height_px=args.height,
            margin_px=args.margin,
            stroke_width=args.stroke_width,
            circles=not args.no_circles,
            locus=not args.no_locus,
            rays=not args.no_rays,
            labels=not args.no_labels,
        )
        return cmd_render(cfg, spec)
    except (ValueError, InvalidSampleCount) as exc:
        print(f"trisectrix: argument error: {exc}", file=sys.stderr)
        return EXIT_ARGS
    except (AngleOutOfRange, ParameterOutOfRange, DegeneratePoint,
            ConcentricCircles, NoIntersection) as exc:
        print(f"trisectrix: domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except MaxIterationsExceeded as exc:
        print(f"trisectrix: convergence error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except OSError as exc:
        print(f"trisectrix: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
