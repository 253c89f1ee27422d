"""CLI tests: exit codes, JSON/CSV/SVG emission, determinism."""

import contextlib
import io
import json
import math
import pathlib
import re

import pytest
from hypothesis import given, settings, strategies as st

from trisectrix.cli import CSV_HEADER, build_parser, main
from trisectrix.errors import MaxIterationsExceeded, MismatchDetected
from trisectrix.geom import Angle, Point2, SQRT3
from trisectrix.locus import (
    FOLD_MAX,
    FOLD_MIN,
    LocusParams,
    TrisectionResult,
    verify_trisection,
)
from trisectrix.oracles import cross_validate
from trisectrix.origami import abe_construct, fold_angles


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTrisectCommand:
    def test_quarter_turn_json(self, capsys):
        code, out, _ = run(capsys, "trisect", "--angle-deg", "90", "--fold", "1")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["theta_deg"] - 30.0) <= 1e-10
        assert abs(payload["b_star"] - SQRT3) <= 1e-12
        assert abs(payload["unit_length"] - 2.0) <= 1e-12
        assert abs(payload["n_point"]["x"]) <= 1e-12
        assert abs(payload["n_point"]["y"] - 2.0) <= 1e-12
        assert abs(payload["sin_theta_normalized"] - 0.5) <= 1e-12
        for key in ("three_theta_deg", "iterations", "angle_residual_rad",
                    "verification"):
            assert key in payload

    def test_normalized_parameter_reported(self, capsys):
        # The command computes both readings from the result it prints.
        for fold in ("0.01", "1", "7.5", "1e5"):
            for degrees in ("0.5", "1", "33", "60", "89.9", "90"):
                code, out, _ = run(capsys, "trisect", "--angle-deg", degrees,
                                   "--fold", fold)
                assert code == 0
                payload = json.loads(out)
                unit_length = payload["unit_length"]
                assert payload["b_star_normalized"] == payload["b_star"] / unit_length
                assert payload["sin_theta_normalized"] == payload["fold_a"] / unit_length
                assert payload["fold_a"] == float(fold)
                assert math.isclose(payload["b_star_normalized"],
                                    math.cos(payload["theta_rad"]), rel_tol=1e-12)

    def test_sixty_degrees(self, capsys):
        code, out, _ = run(capsys, "trisect", "--angle-deg", "60", "--fold", "1")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["theta_deg"] - 20.0) <= 1e-10

    def test_out_of_range_exits_3(self, capsys):
        code, _, err = run(capsys, "trisect", "--angle-deg", "120", "--fold", "1")
        assert code == 3
        assert "domain error" in err

    @pytest.mark.parametrize("command,degrees", [
        ("trisect", "450"), ("trisect", "-270"), ("origami", "420"),
        ("trisect", "90.0000001"), ("trisect", "nan"), ("render", "450"),
        ("trisect", "5e-324"), ("origami", "1e-322"), ("render", "1.4e-322"),
        ("origami", "450"), ("trisect", "1e-323"), ("origami", "1e-323"),
    ])
    def test_wrapped_angles_exit_3(self, capsys, command, degrees):
        # The flag is checked as given: 450 degrees is a domain error, not 90,
        # and so is a positive angle that converts to 0 radians.
        code, out, err = run(capsys, command, f"--angle-deg={degrees}")
        assert code == 3
        assert out == ""
        assert "domain error" in err and "--angle-deg" in err

    def test_least_angle_is_the_least_radian_float(self, capsys):
        # The float below 1.43e-322 degrees, 1.4e-322, converts to 0 radians.
        assert math.nextafter(1.43e-322, 0.0) == 1.4e-322
        code, out, _ = run(capsys, "trisect", "--angle-deg", "1.43e-322")
        assert code == 0
        assert json.loads(out)["three_theta_rad"] == 5e-324

    @pytest.mark.parametrize("fold", ["1e-200", "1e-160", "1e140", "1e155"])
    def test_fold_outside_range_exits_3(self, capsys, fold):
        code, _, err = run(capsys, "trisect", "--angle-deg", "60", "--fold", fold)
        assert code == 3
        assert "domain error" in err and "fold spacing" in err

    def test_missing_angle_exits_2(self, capsys):
        code, _, err = run(capsys, "trisect", "--fold", "1")
        assert code == 2

    def test_bad_fold_exits_2(self, capsys):
        code, _, _ = run(capsys, "trisect", "--angle-deg", "60", "--fold", "-1")
        assert code == 2

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["trisect", "--bogus"]) == 2

    def test_json_round_trips_through_verifier(self, capsys):
        code, out, _ = run(capsys, "trisect", "--angle-deg", "37.5", "--fold", "0.8")
        assert code == 0
        payload = json.loads(out)
        rebuilt = TrisectionResult(
            three_theta=payload["three_theta_rad"],
            theta=Angle(payload["theta_rad"]),
            b_star=payload["b_star"],
            unit_length=payload["unit_length"],
            n_point=Point2(payload["n_point"]["x"], payload["n_point"]["y"]),
            iterations=payload["iterations"],
            final_bracket_width=payload["final_bracket_width"],
            angle_residual=payload["angle_residual_rad"],
        )
        report = verify_trisection(rebuilt, LocusParams(payload["fold_a"]))
        for name, value in payload["verification"].items():
            assert abs(report.residuals[name] - value) <= 1e-15


class TestLocusCommand:
    def test_header_and_rows(self, capsys):
        code, out, _ = run(capsys, "locus", "--fold", "1", "--samples", "3")
        assert code == 0
        lines = out.rstrip("\n").split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4
        first = [float(v) for v in lines[1].split(",")]
        assert abs(first[1]) <= 1e-12           # x = 0 at the curve start
        assert abs(first[2] - 2.0) <= 1e-12     # y = 2a

    def test_rows_satisfy_triple_angle(self, capsys):
        code, out, _ = run(capsys, "locus", "--fold", "0.6", "--samples", "50")
        assert code == 0
        rows = [line.split(",") for line in out.rstrip("\n").split("\n")[1:]]
        b_values = []
        for row in rows:
            b, q_deg, j_deg = float(row[0]), float(row[3]), float(row[4])
            b_values.append(b)
            assert abs(q_deg - 3.0 * j_deg) <= 1e-9
        assert b_values == sorted(b_values)

    def test_single_sample_exits_2(self, capsys):
        code, _, _ = run(capsys, "locus", "--fold", "1", "--samples", "1")
        assert code == 2

    def test_byte_identical_runs(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["locus", "--fold", "1", "--samples", "40",
                     "--output", str(a)]) == 0
        assert main(["locus", "--fold", "1", "--samples", "40",
                     "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestOrigamiCommand:
    def test_sixty_degrees_json(self, capsys):
        code, out, _ = run(capsys, "origami", "--angle-deg", "60")
        assert code == 0
        payload = json.loads(out)
        for key in ("alpha_deg", "beta_deg", "gamma_deg"):
            assert abs(payload[key] - 20.0) <= 1e-10
        assert max(abs(v) for v in payload["residuals"].values()) <= 1e-12
        assert "cp_vs_sin_theta" in payload["informational"]

    @pytest.mark.parametrize("degrees", [1.0, 7.5, 10.0, 30.0, 45.0, 60.0, 89.9999])
    def test_origin_and_alternative_p_reading(self, capsys, degrees):
        # O is printed at the frame origin, and the unchecked reading
        # "C-P equals sin(theta)" is computed from the construction's points.
        code, out, _ = run(capsys, "origami", "--angle-deg", repr(degrees))
        assert code == 0
        payload = json.loads(out)
        assert list(payload["points"]) == ["O", "D", "S", "H", "C", "G", "P"]
        assert payload["points"]["O"] == {"x": 0.0, "y": 0.0}
        c = abe_construct(Angle.from_degrees(degrees))
        expected = abs(math.dist(c.C, c.P) - math.sin(c.three_theta / 3.0))
        assert payload["informational"] == {"cp_vs_sin_theta": expected}
        # The gap is 2 sin(theta) to first order: above 0.1 from 10 degrees.
        assert expected > (0.1 if degrees >= 10.0 else 0.0)
        # theta is the target's third, and the three angles are measured
        # from the construction's H, G and C.
        assert payload["theta_deg"] == math.degrees(c.three_theta / 3.0)
        angles = [payload[key] for key in ("alpha_deg", "beta_deg", "gamma_deg")]
        assert angles == [math.degrees(part) for part in fold_angles(c)]

    def test_unit_length_is_one(self, capsys):
        # The command measures unit_length as |OH| from the printed H; the
        # fold puts H and C on the unit circle.
        for deg in ("5", "30", "60", "89"):
            code, out, _ = run(capsys, "origami", "--angle-deg", deg)
            assert code == 0
            payload = json.loads(out)
            h, c = payload["points"]["H"], payload["points"]["C"]
            assert payload["unit_length"] == math.hypot(h["x"], h["y"])
            assert abs(payload["unit_length"] - 1.0) <= 1e-12
            assert abs(math.hypot(c["x"], c["y"]) - 1.0) <= 1e-12

    def test_quarter_turn_exits_0(self, capsys):
        code, out, _ = run(capsys, "origami", "--angle-deg", "90")
        assert code == 0
        payload = json.loads(out)
        for key in ("theta_deg", "alpha_deg", "beta_deg", "gamma_deg"):
            assert abs(payload[key] - 30.0) <= 1e-12, key


class TestVerifyCommand:
    def test_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--tol", "1e-10")
        assert code == 0
        assert "result: PASS" in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "verify", "--tol", "1e-10", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["angles_checked"] == 90
        assert payload["worst_residuals"]

    def test_unreachable_tolerance_fails(self, capsys):
        # Below the floating-point floor the solver cannot converge; the
        # sweep must report failure, not pretend.
        code, out, _ = run(capsys, "verify", "--tol", "1e-16")
        assert code == 1
        assert "FAIL" in out

    def test_failing_sweep_report(self, capsys):
        # At tol 1e-17 some angles raise, the others are checked and fail
        # on a residual: the report counts, ranks and lists each of them, as
        # recomputed here with cross_validate.
        failures, reports = [], {}
        for deg in range(1, 91):
            try:
                report = cross_validate(Angle.from_degrees(deg), 1.0, 1e-17)
            except (MismatchDetected, MaxIterationsExceeded) as exc:
                failures.append(f"{deg} deg: {exc}")
                continue
            reports[deg] = report
            if not report.passes(1e-17):
                name, value = report.worst()
                failures.append(f"{deg} deg: residual {name} = {value!r} exceeds tol")
        raised = 90 - len(reports)
        assert 0 < raised < 90
        code, out, _ = run(capsys, "verify", "--tol", "1e-17", "--format", "json")
        assert code == 1
        payload = json.loads(out)
        assert payload["angles_checked"] == len(reports)
        assert payload["passed"] is False
        assert payload["failures"] == failures
        assert sum(" exceeds tol" in f for f in failures) == len(reports)
        names = {name for r in reports.values() for name in r.residuals}
        assert set(payload["worst_residuals"]) == names
        for name in names:
            # The largest magnitude over the checked angles, at the first
            # angle to reach it.
            value, deg = max((abs(r.residuals[name]), -deg) for deg, r in reports.items())
            assert payload["worst_residuals"][name] == {"value": value, "at_deg": -deg}

        code, text, _ = run(capsys, "verify", "--tol", "1e-17")
        assert code == 1
        lines = text.rstrip("\n").split("\n")
        assert lines[0] == "cross-check sweep: 1..90 deg, fold a=1.0, tol=1e-17"
        assert lines[-len(failures) - 1:-1] == [f"  FAIL {f}" for f in failures]
        assert lines[-1] == f"result: FAIL ({len(reports)}/90 angles checked)"
        ranked = [float(line.split()[1]) for line in lines[1:-len(failures) - 1]]
        assert len(ranked) == len(names) and ranked == sorted(ranked, reverse=True)

    def test_wrong_format_exits_2(self, capsys):
        # verify is the one command with a --format choice.
        code, out, err = run(capsys, "verify", "--format", "csv")
        assert code == 2
        assert out == ""
        assert err.startswith("usage: trisectrix verify ")
        assert "invalid choice" in err


class TestRenderCommand:
    def test_solved_diagram_structure(self, capsys, tmp_path):
        path = tmp_path / "fig.svg"
        assert main(["render", "--angle-deg", "75", "--fold", "1",
                     "--output", str(path)]) == 0
        svg = path.read_text()
        assert svg.count("<circle ") == 2
        assert svg.count("<polyline ") == 1
        assert ">N</text>" in svg

    def test_byte_identical_runs(self, capsys, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        args = ["render", "--angle-deg", "30", "--fold", "0.5", "--samples", "64"]
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("fold", [FOLD_MIN, FOLD_MAX])
    def test_smallest_angle_at_fold_extremes(self, capsys, fold):
        # The smallest positive angle puts b* at its largest, about 7.6e12 * a
        # at tol 1e-12, and the drawn range 1.3 * b* with it; at either end
        # of the fold range the diagram's numbers stay finite.
        code, out, _ = run(capsys, "render", "--angle-deg", "5e-322",
                           f"--fold={fold!r}", "--samples", "2")
        assert code == 0
        assert ">N</text>" in out
        box = re.search(r'viewBox="([^"]*)"', out).group(1).split()
        assert len(box) == 4 and all(math.isfinite(float(v)) for v in box)

    def test_missing_angle_exits_2(self, capsys):
        code, out, err = run(capsys, "render", "--fold", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("usage: trisectrix render [-h] --angle-deg ")
        assert "the following arguments are required: --angle-deg" in err


# Exactly the flags each subcommand reads.
FLAGS = {
    "trisect": {"--angle-deg", "--fold", "--tol", "--output"},
    "locus": {"--fold", "--samples", "--output"},
    "origami": {"--angle-deg", "--output"},
    "verify": {"--fold", "--tol", "--format", "--output"},
    "render": {"--angle-deg", "--fold", "--samples", "--output"},
}
# Canvas and layer flags: render draws on one fixed canvas, so no command takes them.
CANVAS_FLAGS = {"--width", "--height", "--margin", "--stroke-width", "--no-circles",
                "--no-locus", "--no-rays", "--no-labels"}
# The bisection ends by itself, so no command takes a step budget.
BUDGET_FLAGS = {"--max-iter"}
# locus samples one range and render the solved one, so no command takes a range.
RANGE_FLAGS = {"--b-min", "--b-max"}
UNREAD = [
    (command, flag)
    for command, flags in FLAGS.items()
    for flag in sorted(set().union(CANVAS_FLAGS, BUDGET_FLAGS, RANGE_FLAGS,
                                   *FLAGS.values()) - flags)
]


class TestFlagSurface:
    # A command line each subcommand runs to exit 0, and a value for each flag
    # (None for a switch). --format takes a choice the command once had.
    BASE = {"trisect": ["--angle-deg", "60"], "locus": [], "origami": ["--angle-deg", "60"],
            "verify": ["--tol", "1e-10"], "render": ["--angle-deg", "60"]}
    VALUES = {"--angle-deg": "30", "--fold": "2", "--tol": "1e-10", "--max-iter": "5",
              "--samples": "16", "--b-min": "2", "--b-max": "3", "--width": "800",
              "--height": "600", "--margin": "48", "--stroke-width": "1.5",
              "--no-circles": None, "--no-locus": None, "--no-rays": None,
              "--no-labels": None}

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_help_lists_exactly_the_flags_read(self, capsys, command):
        code, out, _ = run(capsys, command, "--help")
        assert code == 0
        assert set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", out)) - {"--help"} \
            == FLAGS[command]

    def test_seventeen_flags_in_all(self):
        assert sum(len(flags) for flags in FLAGS.values()) == 17

    @pytest.mark.parametrize("command,flag", UNREAD)
    def test_unread_flag_exits_2(self, capsys, command, flag):
        value = {"trisect": "text", "locus": "csv", "origami": "json",
                 "render": "svg"}[command] if flag == "--format" \
            else self.VALUES[flag]
        argv = [command, *self.BASE[command], flag]
        code, out, err = run(capsys, *(argv if value is None else [*argv, value]))
        assert code == 2
        assert out == ""
        # The usage shown is the command's own, which lists the flags it takes.
        assert err.startswith(f"usage: trisectrix {command} ")
        assert "unrecognized arguments" in err and flag in err

    def test_readme_lists_exactly_the_flags_read(self):
        readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
        listed = {}
        for line in readme.read_text(encoding="utf-8").splitlines():
            match = re.match(r"- `(\w+)`: ", line)
            if match and match.group(1) in FLAGS:
                listed[match.group(1)] = set(re.findall(r"--[a-z][a-z-]*", line))
        assert listed == FLAGS

    @pytest.mark.parametrize("command", ["locus", "render"])
    def test_samples_above_bound_exits_2(self, capsys, command):
        # Peak memory grows with the count, so a huge one is refused, not run.
        code, out, err = run(capsys, command, *self.BASE[command], "--samples", "100001")
        assert code == 2
        assert out == ""
        assert "argument --samples: must be in [2, 100000]" in err

    @pytest.mark.parametrize("command", ["locus", "render"])
    def test_samples_not_an_int_exits_2(self, capsys, command):
        code, out, err = run(capsys, command, *self.BASE[command], "--samples", "x")
        assert code == 2
        assert out == ""
        assert "argument --samples: invalid int value: 'x'" in err

    @pytest.mark.parametrize("command,flag,value", [
        (command, flag, value)
        for command, flags in sorted(FLAGS.items())
        for flag, values in (("--fold", ("0", "-1", "inf", "nan")),
                             ("--tol", ("0", "-1", "inf", "nan")))
        if flag in flags
        for value in values
    ])
    def test_fold_or_tol_not_positive_and_finite_exits_2(self, capsys, command, flag, value):
        # The library checks both and main reports its ValueError, naming
        # the parameter, with no traceback.
        code, out, err = run(capsys, command, *self.BASE[command], f"{flag}={value}")
        assert code == 2
        assert out == ""
        name = {"--fold": "fold spacing a", "--tol": "tol"}[flag]
        assert err == (f"trisectrix: argument error: {name} must be finite and "
                       f"positive, got {float(value)!r}\n")

    @pytest.mark.parametrize("command", ["locus", "render"])
    def test_samples_bound_parses(self, command):
        # Parsed only: drawing 100000 samples takes about a second.
        args = build_parser().parse_args([command, *self.BASE[command],
                                          "--samples", "100000"])
        assert args.samples == 100000

    @pytest.mark.parametrize("b_range", [["--b-min", "2"], ["--b-max", "3"],
                                         ["--b-min", "0.5", "--b-max", "2"]])
    def test_render_angle_with_b_range_exits_2(self, capsys, b_range):
        # The diagram's range comes from the solve, so render takes no range
        # flag, alone or with the other.
        code, out, err = run(capsys, "render", "--angle-deg", "60", *b_range)
        assert code == 2
        assert out == ""
        assert err.startswith("usage: trisectrix render ")
        assert "unrecognized arguments: " + " ".join(b_range) in err


class TestExitCodes:
    def test_unwritable_output_exits_5(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "out.csv"
        code, _, err = run(capsys, "locus", "--fold", "1",
                           "--output", str(target))
        assert code == 5
        assert "i/o error" in err

    @pytest.mark.parametrize("degrees,tol,message", [
        ("7", "1e-17", "bisection bracket collapsed"), ("1e-298", "1e-320", "no upper bracket"),
    ], ids=["bracket-collapsed", "no-upper-bracket"])
    def test_convergence_failure_exits_4(self, capsys, degrees, tol, message):
        # Each exit-4 path by its own message.
        code, out, err = run(capsys, "trisect", "--angle-deg", degrees, "--tol", tol)
        assert (code, out) == (4, "")
        assert err.startswith(f"trisectrix: convergence error: {message}")

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0


class TestTotality:
    @given(
        command=st.sampled_from(["trisect", "origami", "render"]),
        degrees=st.floats(min_value=0.0, max_value=90.0) | st.floats(),
        fold=st.floats(min_value=0.01, max_value=100.0)
        | st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    )
    @settings(deadline=None, max_examples=300)
    def test_documented_exit_code_without_traceback(self, command, degrees, fold):
        # main raises nothing for any angle and positive finite fold: every
        # failure maps to a documented code. Each command gets only the flags
        # it reads, and well inside the domain it must succeed, so argument
        # errors alone cannot pass this.
        argv = [command, f"--angle-deg={degrees!r}"]
        if command != "origami":
            argv.append(f"--fold={fold!r}")
        if command == "render":
            argv += ["--samples", "16"]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2, 3, 4)
        if code == 0:
            assert 0.0 < degrees <= 90.0
        if 1.0 <= degrees <= 89.0 and (command == "origami" or 0.01 <= fold <= 100.0):
            assert code == 0

    @given(fold=st.floats(allow_nan=False, allow_infinity=False))
    @settings(deadline=None, max_examples=300)
    def test_any_finite_fold(self, fold):
        # Every finite --fold ends in a documented code: 0 over the fold
        # range, 2 for a fold that is not positive, 3 beyond the range. An
        # argument error never reports a NaN made along the way.
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["locus", f"--fold={fold!r}", "--samples", "8"])
        assert code == (0 if FOLD_MIN <= fold <= FOLD_MAX else 2 if fold <= 0.0 else 3)
        assert "nan" not in err.getvalue()
