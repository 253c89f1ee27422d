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
from trisectrix.geom import Angle, Point2, SQRT3
from trisectrix.locus import LocusParams, TrisectionResult, verify_trisection
from trisectrix.origami import abe_construct


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
    ])
    def test_wrapped_angles_exit_3(self, capsys, command, degrees):
        # The flag is checked as given: 450 degrees is a domain error, not 90.
        code, out, err = run(capsys, command, f"--angle-deg={degrees}")
        assert code == 3
        assert out == ""
        assert "domain error" in err and "--angle-deg" in err

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

    def test_wrong_format_exits_2(self, capsys):
        code, _, _ = run(capsys, "trisect", "--angle-deg", "60", "--format", "csv")
        assert code == 2

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["trisect", "--bogus"]) == 2

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "trisect", "--angle-deg", "60", "--format", "text")
        assert code == 0
        assert "trisected" in out

    def test_json_round_trips_through_verifier(self, capsys):
        code, out, _ = run(capsys, "trisect", "--angle-deg", "37.5", "--fold", "0.8")
        assert code == 0
        payload = json.loads(out)
        rebuilt = TrisectionResult(
            three_theta=Angle(payload["three_theta_rad"]),
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
        code, out, _ = run(capsys, "locus", "--fold", "1", "--samples", "3",
                           "--b-max", "10")
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

    def test_below_curve_start_exits_3(self, capsys):
        code, _, _ = run(capsys, "locus", "--fold", "1", "--b-min", "1.0")
        assert code == 3

    def test_infinite_b_max_exits_3(self, capsys):
        code, out, err = run(capsys, "locus", "--fold", "1", "--b-max", "inf")
        assert code == 3
        assert out == ""
        assert "b_max" in err

    @pytest.mark.parametrize("b_max", ["1e300", "1e200", "9.480751908109177e+153"])
    def test_overflowing_b_max_exits_3(self, capsys, b_max):
        # b*b or 2a*(b*b - a*a) overflows: a domain error naming b_max, not
        # a NaN coordinate reported as an argument error.
        code, out, err = run(capsys, "locus", "--fold", "1", "--b-max", b_max,
                             "--samples", "3")
        assert code == 3
        assert out == ""
        assert "b_max" in err and "nan" not in err

    def test_largest_finite_b_max_accepted(self, capsys):
        # The float below the first rejected b_max at fold 1 still gives
        # finite rows.
        code, out, _ = run(capsys, "locus", "--fold", "1",
                           "--b-max", "9.480751908109176e+153", "--samples", "3")
        assert code == 0
        assert "inf" not in out and "nan" not in out

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
        expected = abs(math.hypot(c.C.x - c.P.x, c.C.y - c.P.y) - math.sin(c.theta.radians))
        assert payload["informational"] == {"cp_vs_sin_theta": expected}
        # The gap is 2 sin(theta) to first order: above 0.1 from 10 degrees.
        assert expected > (0.1 if degrees >= 10.0 else 0.0)

    def test_quarter_turn_exits_3(self, capsys):
        code, _, _ = run(capsys, "origami", "--angle-deg", "90")
        assert code == 3

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "origami", "--angle-deg", "45",
                           "--format", "text")
        assert code == 0
        assert "alpha = beta = gamma" in out


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


class TestRenderCommand:
    def test_solved_diagram_structure(self, capsys, tmp_path):
        path = tmp_path / "fig.svg"
        assert main(["render", "--angle-deg", "75", "--fold", "1",
                     "--output", str(path)]) == 0
        svg = path.read_text()
        assert svg.count("<circle ") == 2
        assert svg.count("<polyline ") == 1
        assert ">N</text>" in svg

    def test_unsolved_diagram_labels_q(self, capsys, tmp_path):
        path = tmp_path / "fig.svg"
        assert main(["render", "--fold", "1", "--output", str(path)]) == 0
        svg = path.read_text()
        assert ">Q</text>" in svg and ">N</text>" not in svg

    def test_byte_identical_runs(self, capsys, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        args = ["render", "--angle-deg", "30", "--fold", "0.5", "--samples", "64"]
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_far_end_of_doubling_bracket(self, capsys):
        # b* near the solver's largest bracket end 2**64 * sqrt(3) * a, so
        # the drawn range 1.3 * b* goes past it; its products stay finite.
        far = 2.0 ** 64 * SQRT3
        degrees = math.degrees(3.0 * math.atan(1.0 / (0.99 * far)))
        code, out, _ = run(capsys, "render", f"--angle-deg={degrees!r}", "--fold", "1",
                           "--tol", "1e-40", "--samples", "9")
        assert code == 0
        assert "<svg " in out and ">N</text>" in out


# Exactly the flags each subcommand reads.
FLAGS = {
    "trisect": {"--angle-deg", "--fold", "--tol", "--format", "--output"},
    "locus": {"--fold", "--samples", "--b-min", "--b-max", "--output"},
    "origami": {"--angle-deg", "--format", "--output"},
    "verify": {"--fold", "--tol", "--format", "--output"},
    "render": {"--angle-deg", "--fold", "--tol", "--samples", "--b-min", "--b-max",
               "--output"},
}
# Canvas and layer flags: render draws on one fixed canvas, so no command takes them.
CANVAS_FLAGS = {"--width", "--height", "--margin", "--stroke-width", "--no-circles",
                "--no-locus", "--no-rays", "--no-labels"}
# The bisection ends by itself, so no command takes a step budget.
BUDGET_FLAGS = {"--max-iter"}
UNREAD = [
    (command, flag)
    for command, flags in FLAGS.items()
    for flag in sorted(set().union(CANVAS_FLAGS, BUDGET_FLAGS, *FLAGS.values()) - flags)
]


class TestFlagSurface:
    # A command line each subcommand runs to exit 0, and a value for each flag
    # (None for a switch). --format takes the one choice locus and render had.
    BASE = {"trisect": ["--angle-deg", "60"], "locus": [], "origami": ["--angle-deg", "60"],
            "verify": ["--tol", "1e-10"], "render": []}
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

    def test_twenty_four_flags_in_all(self):
        assert sum(len(flags) for flags in FLAGS.values()) == 24

    @pytest.mark.parametrize("command,flag", UNREAD)
    def test_unread_flag_exits_2(self, capsys, command, flag):
        value = {"locus": "csv", "render": "svg"}[command] if flag == "--format" \
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
        code, out, err = run(capsys, command, "--samples", "100001")
        assert code == 2
        assert out == ""
        assert "--samples" in err

    @pytest.mark.parametrize("command", ["locus", "render"])
    def test_samples_bound_parses(self, command):
        # Parsed only: drawing 100000 samples takes about a second.
        args = build_parser().parse_args([command, "--samples", "100000"])
        assert args.samples == 100000

    @pytest.mark.parametrize("b_range", [["--b-min", "2"], ["--b-max", "3"],
                                         ["--b-min", "0.5", "--b-max", "2"]])
    def test_render_angle_with_b_range_exits_2(self, capsys, b_range):
        # The solved diagram picks its own range, so a given one would be
        # silently ignored.
        code, out, err = run(capsys, "render", "--angle-deg", "60", *b_range)
        assert code == 2
        assert out == ""
        assert "argument error" in err and "--b-min" in err and "--b-max" in err


class TestExitCodes:
    def test_unwritable_output_exits_5(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "out.csv"
        code, _, err = run(capsys, "locus", "--fold", "1",
                           "--output", str(target))
        assert code == 5
        assert "i/o error" in err

    def test_convergence_failure_exits_4(self, capsys):
        code, _, err = run(capsys, "trisect", "--angle-deg", "7", "--tol", "1e-17")
        assert code == 4
        assert "convergence" in err

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

    @given(
        command=st.sampled_from(["locus", "render"]),
        b_max=st.floats(allow_nan=False, allow_infinity=False),
        fold=st.floats(allow_nan=False, allow_infinity=False),
    )
    @settings(deadline=None, max_examples=300)
    def test_any_finite_b_max_and_fold(self, command, b_max, fold):
        # Every finite --b-max and --fold ends in a documented code, and an
        # argument error never reports a NaN made along the way.
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, f"--fold={fold!r}", f"--b-max={b_max!r}",
                         "--samples", "8"])
        assert code in (0, 2, 3)
        if code == 2:
            assert "nan" not in err.getvalue()
