"""Command-line interface: verified trisections, locus tables, diagrams.

Degrees at this boundary, radians everywhere inside. Each command writes one
format: ``trisect`` and ``origami`` JSON, ``locus`` CSV over [sqrt(3)*a, 10*a],
``render`` SVG; only ``verify`` chooses between text and JSON. All emitters are
deterministic; numbers are serialized with Python's shortest round-trip
representation (at most 17 significant digits) so output files are stable
golden-test targets.

Exit codes: 0 success, 1 verification failure, 2 argument error, 3 domain
error, 4 convergence error, 5 I/O error. The library checks ``--fold`` and
``--tol``: its ValueError is an argument error, reported without a usage line.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Callable, Sequence

from .errors import (
    AngleOutOfRange,
    MaxIterationsExceeded,
    MismatchDetected,
    ParameterOutOfRange,
)
from .geom import SQRT3
from .locus import (
    DEFAULT_TOL,
    LocusParams,
    sample_locus,
    trisect,
    verify_trisection,
)
from .oracles import cross_validate, oracle_theta
from .origami import abe_construct, abe_verify, fold_angles
from .render import render_svg

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_ARGS = 2
EXIT_DOMAIN = 3
EXIT_CONVERGENCE = 4
EXIT_IO = 5

CSV_HEADER = "b,x,y,q_angle_deg,j_angle_deg,residual_c1,residual_c2,residual_relation"


def _samples(text: str) -> int:
    """The argparse type of ``--samples``: an int in [2, 100000]. A sample
    costs about 800 B of peak memory: 100000 of them peak near 100 MB."""
    value = int(text)
    if not 2 <= value <= 100_000:
        raise argparse.ArgumentTypeError(f"must be in [2, 100000], got {value!r}")
    return value


_samples.__name__ = "int"  # argparse's "invalid int value: 'x'"

# The flags besides --output, each with its type and default. LocusParams and
# trisect check --fold and --tol, so only --samples is checked here.
_FLAGS = {
    "--angle-deg": dict(type=float, required=True,
                        help="target angle in degrees, in (0, 90]"),
    "--fold": dict(type=float, default=1.0,
                   help="fold spacing a in construction units (default 1)"),
    "--tol": dict(type=float, default=DEFAULT_TOL,
                  help="solver tolerance in radians (default 1e-12)"),
    "--samples": dict(type=_samples,
                      help="locus sample count, 2 to 100000 (default %(default)s)"),
    "--format": dict(default="text", choices=("text", "json"),
                     help="output format (default %(default)s)"),
}


def _target(args: argparse.Namespace) -> float:
    """``--angle-deg`` in radians. Every route checks its target itself; this
    check exists only so that the message names the flag and its degrees as
    given. It checks the degrees, not their radians, so that the bound is
    90 exactly, whatever the rounding of the conversion. Positive degrees up
    to 1.4e-322 convert to 0 radians and are rejected here too."""
    degrees = args.angle_deg
    if not 0.0 < degrees <= 90.0:
        raise AngleOutOfRange(f"--angle-deg must lie in (0, 90] degrees, got {degrees!r}")
    radians = math.radians(degrees)
    if radians == 0.0:
        raise AngleOutOfRange(
            f"--angle-deg {degrees!r} converts to 0 radians; the least it takes is 1.43e-322")
    return radians


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def cmd_trisect(args: argparse.Namespace) -> int:
    target = _target(args)
    params = LocusParams(args.fold)
    result = trisect(target, params, tol=args.tol)
    report = verify_trisection(result, params)
    payload = {
        "three_theta_deg": math.degrees(result.three_theta),
        "three_theta_rad": result.three_theta,
        "theta_deg": result.theta.degrees,
        "theta_rad": result.theta.radians,
        "b_star": result.b_star,
        # b* in units of the solved unit length: cos(theta) at the crossing.
        "b_star_normalized": result.b_star / result.unit_length,
        "unit_length": result.unit_length,
        "n_point": {"x": result.n_point.x, "y": result.n_point.y},
        "iterations": result.iterations,
        "final_bracket_width": result.final_bracket_width,
        "angle_residual_rad": result.angle_residual,
        "sin_theta_normalized": params.a / result.unit_length,
        "fold_a": args.fold,
        "verification": dict(report.residuals),
    }
    _write_output(json.dumps(payload, indent=2) + "\n", args.output)
    return EXIT_OK


def cmd_locus(args: argparse.Namespace) -> int:
    a = args.fold
    points = sample_locus(LocusParams(a), SQRT3 * a, 10.0 * a, args.samples)
    lines = [CSV_HEADER]
    for pt in points:
        j_angle_deg = math.degrees(math.atan2(a, pt.b))
        lines.append(
            f"{pt.b!r},{pt.q.x!r},{pt.q.y!r},{pt.q_polar_angle.degrees!r},"
            f"{j_angle_deg!r},{pt.residual_circle1!r},{pt.residual_circle2!r},"
            f"{pt.residual_locus_relation!r}"
        )
    _write_output("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_origami(args: argparse.Namespace) -> int:
    c = abe_construct(_target(args))
    report = abe_verify(c)
    points = {"O": {"x": 0.0, "y": 0.0}}  # the vertex, at the frame origin
    for name in "DSHCGP":
        x, y = getattr(c, name)
        points[name] = {"x": x, "y": y}
    # Classical presentations of the fold read P two ways. As the foot of the
    # perpendicular from H, the lengths O-P and H-P are cos t and sin t, which
    # abe_verify checks. The other reading, "C-P equals sin t", holds for no
    # point on the base ray, so it is reported here and not checked.
    theta = oracle_theta(c.three_theta)
    cp_vs_sin_theta = abs(math.dist(c.C, c.P) - math.sin(theta))
    alpha, beta, gamma = fold_angles(c)
    payload = {
        "three_theta_deg": math.degrees(c.three_theta),
        "theta_deg": math.degrees(theta),
        "alpha_deg": math.degrees(alpha),
        "beta_deg": math.degrees(beta),
        "gamma_deg": math.degrees(gamma),
        "unit_length": math.hypot(*c.H),
        "points": points,
        "residuals": dict(report.residuals),
        "informational": {"cp_vs_sin_theta": cp_vs_sin_theta},
    }
    _write_output(json.dumps(payload, indent=2) + "\n", args.output)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    worst: dict[str, tuple[float, int]] = {}
    failures: list[str] = []
    checked = 0
    for deg in range(1, 91):
        try:
            report = cross_validate(math.radians(deg), args.fold, args.tol)
        except (MismatchDetected, MaxIterationsExceeded) as exc:
            failures.append(f"{deg} deg: {exc}")
            continue
        checked += 1
        for name, value in report.residuals.items():
            magnitude = abs(value)
            if name not in worst or magnitude > worst[name][0]:
                worst[name] = (magnitude, deg)
        if not report.passes(args.tol):
            name, value = report.worst()
            failures.append(f"{deg} deg: residual {name} = {value!r} exceeds tol")

    ok = not failures
    payload = {
        "angles_checked": checked,
        "fold_a": args.fold,
        "tol": args.tol,
        "passed": ok,
        "failures": failures,
        "worst_residuals": {
            name: {"value": value, "at_deg": deg}
            for name, (value, deg) in sorted(worst.items())
        },
    }
    if args.format == "json":
        text = json.dumps(payload, indent=2)
    else:
        # The text ranks ``worst`` itself: residuals that tie keep the fixed
        # key order of cross_validate's report, which the payload's sorted
        # names would lose.
        text = "\n".join([
            f"cross-check sweep: 1..90 deg, fold a={args.fold!r}, tol={args.tol!r}",
            *(f"  {name:32s} {value:.3e}  (at {deg} deg)"
              for name, (value, deg) in sorted(worst.items(), key=lambda kv: -kv[1][0])),
            *(f"  FAIL {failure}" for failure in failures),
            f"result: {'PASS' if ok else 'FAIL'} ({checked}/90 angles checked)",
        ])
    _write_output(text + "\n", args.output)
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def cmd_render(args: argparse.Namespace) -> int:
    params = LocusParams(args.fold)
    result = trisect(_target(args), params)
    _write_output(render_svg(params, result, args.samples), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trisectrix",
        description="Angle trisection via a two-circle intersection locus, "
        "with independent cross-checks and diagram output.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_command(name: str, command: Callable[[argparse.Namespace], int], help: str,
                    flags: Sequence[str], **defaults) -> None:
        p = sub.add_parser(name, help=help)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.add_argument("--output", help="output path (default: standard output)")
        # main reports a flag the command does not take with its own usage.
        p.set_defaults(command=command, parser=p, **defaults)

    add_command("trisect", cmd_trisect, "solve one trisection, emit JSON",
                ("--angle-deg", "--fold", "--tol"))
    add_command("locus", cmd_locus, "emit a CSV table of locus samples",
                ("--fold", "--samples"), samples=100)
    add_command("origami", cmd_origami, "emit the fold construction as JSON",
                ("--angle-deg",))
    add_command("verify", cmd_verify, "cross-check a 1..90 degree sweep",
                ("--fold", "--tol", "--format"))
    add_command("render", cmd_render, "emit an SVG construction diagram",
                ("--angle-deg", "--fold", "--samples"), samples=128)
    return parser


# The parser main uses, built on its first call: building the five-command
# tree is most of an in-process call's cost, and parsing does not change it.
_parser: argparse.ArgumentParser | None = None


def main(argv: Sequence[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    parser = _parser
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:
            args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return exc.code

    try:
        return args.command(args)
    except ValueError as exc:
        print(f"trisectrix: argument error: {exc}", file=sys.stderr)
        return EXIT_ARGS
    except (AngleOutOfRange, ParameterOutOfRange) as exc:
        print(f"trisectrix: domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except MaxIterationsExceeded as exc:
        print(f"trisectrix: convergence error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except OSError as exc:
        print(f"trisectrix: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
