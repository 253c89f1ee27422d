"""CLI tests: exit codes, the flag surface, JSON and SVG emission."""

import contextlib
import io
import json
import math
import pathlib
import re

import pytest
from hypothesis import given, settings, strategies as st

from trisectrix.cli import build_parser, main
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

    def test_least_angle_is_the_least_radian_float(self, capsys):
        # The float below 1.43e-322 degrees, 1.4e-322, converts to 0 radians.
        assert math.nextafter(1.43e-322, 0.0) == 1.4e-322
        code, out, _ = run(capsys, "trisect", "--angle-deg", "1.43e-322")
        assert code == 0
        assert json.loads(out)["three_theta_rad"] == 5e-324

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
    def test_rows_satisfy_triple_angle(self, capsys):
        # Criterion 10 checks the header and that the table is deterministic;
        # this checks its rows: one per sample from the curve start (0, 2a),
        # in increasing b, each at three times J's angle.
        code, out, _ = run(capsys, "locus", "--fold", "0.6", "--samples", "50")
        assert code == 0
        rows = [line.split(",") for line in out.rstrip("\n").split("\n")[1:]]
        assert len(rows) == 50
        assert abs(float(rows[0][1])) <= 1e-12 and abs(float(rows[0][2]) - 1.2) <= 1e-12
        b_values = []
        for row in rows:
            b, q_deg, j_deg = float(row[0]), float(row[3]), float(row[4])
            b_values.append(b)
            assert abs(q_deg - 3.0 * j_deg) <= 1e-9
        assert b_values == sorted(b_values)


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


class TestRenderCommand:
    def test_solved_diagram_structure(self, capsys, tmp_path):
        path = tmp_path / "fig.svg"
        assert main(["render", "--angle-deg", "75", "--fold", "1",
                     "--output", str(path)]) == 0
        svg = path.read_text()
        assert svg.count("<circle ") == 2
        assert svg.count("<polyline ") == 1
        assert ">N</text>" in svg

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


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

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
        # The parser takes no other flag, not even one hidden from help.
        parser = build_parser().parse_args([command, *self.BASE[command]]).parser
        assert set(parser._option_string_actions) - {"-h", "--help"} == FLAGS[command]

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
        listed = {}
        for line in README.read_text(encoding="utf-8").splitlines():
            match = re.match(r"- `(\w+)`: ", line)
            if match and match.group(1) in FLAGS:
                listed[match.group(1)] = set(re.findall(r"--[a-z][a-z-]*", line))
        assert listed == FLAGS

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


# Each documented failure of each command, once: its command line, its exit
# code and the start of the last line it prints. Unread flags and --fold or
# --tol values that are not finite and positive are TestFlagSurface's.
FAILURES = [
    (["trisect", "--fold", "1"], 2,
     "trisectrix trisect: error: the following arguments are required: --angle-deg"),
    # The flag is checked as given: 450 degrees is not reduced to 90.
    (["trisect", "--angle-deg", "450"], 3,
     "trisectrix: domain error: --angle-deg must lie in (0, 90] degrees, got 450.0"),
    (["trisect", "--angle-deg", "5e-324"], 3,
     "trisectrix: domain error: --angle-deg 5e-324 converts to 0 radians"),
    (["trisect", "--angle-deg", "60", "--fold", "1e-200"], 3,
     "trisectrix: domain error: fold spacing a must lie in [1.77e-103, 4.45e+89], got 1e-200"),
    (["trisect", "--angle-deg", "7", "--tol", "1e-17"], 4,
     "trisectrix: convergence error: bisection bracket collapsed"),
    (["trisect", "--angle-deg", "1e-298", "--tol", "1e-320"], 4,
     "trisectrix: convergence error: no upper bracket"),
    (["locus", "--samples", "1"], 2,
     "trisectrix locus: error: argument --samples: must be in [2, 100000], got 1"),
    # Peak memory grows with the count, so a huge one is refused, not run.
    (["locus", "--samples", "100001"], 2,
     "trisectrix locus: error: argument --samples: must be in [2, 100000], got 100001"),
    (["locus", "--samples", "x"], 2,
     "trisectrix locus: error: argument --samples: invalid int value: 'x'"),
    (["locus", "--output", "."], 5, "trisectrix: i/o error: "),
    (["origami", "--angle-deg=-270"], 3,
     "trisectrix: domain error: --angle-deg must lie in (0, 90] degrees, got -270.0"),
    (["origami", "--angle-deg", "1e-322"], 3,
     "trisectrix: domain error: --angle-deg 1e-322 converts to 0 radians"),
    # Below the floating-point floor the sweep cannot pass, and says so.
    (["verify", "--tol", "1e-16"], 1, "result: FAIL"),
    (["verify", "--format", "csv"], 2,
     "trisectrix verify: error: argument --format: invalid choice"),
    (["render", "--fold", "1"], 2,
     "trisectrix render: error: the following arguments are required: --angle-deg"),
    (["render", "--angle-deg", "60", "--samples", "100001"], 2,
     "trisectrix render: error: argument --samples: must be in [2, 100000], got 100001"),
    (["render", "--angle-deg", "60", "--samples", "x"], 2,
     "trisectrix render: error: argument --samples: invalid int value: 'x'"),
    (["render", "--angle-deg", "nan"], 3,
     "trisectrix: domain error: --angle-deg must lie in (0, 90] degrees, got nan"),
    (["render", "--angle-deg", "1.4e-322"], 3,
     "trisectrix: domain error: --angle-deg 1.4e-322 converts to 0 radians"),
]


class TestExitCodes:
    @pytest.mark.parametrize("argv,code,wording", FAILURES,
                             ids=[" ".join(argv) for argv, _, _ in FAILURES])
    def test_exit_code_and_wording(self, capsys, argv, code, wording):
        got, out, err = run(capsys, *argv)
        assert got == code
        # A failed verification is a report on stdout. Any other failure
        # writes nothing there and ends stderr with its reason, after the
        # command's own usage when argparse reports it; never a traceback.
        report, silent = (out, err) if code == 1 else (err, out)
        assert silent == ""
        assert report.splitlines()[-1].startswith(wording)

    def test_readme_lists_the_codes_of_the_table(self):
        text = README.read_text(encoding="utf-8")
        sentence = text.split("Exit codes:", 1)[1].split("\n\n", 1)[0]
        listed = {int(code) for code in re.findall(r"`(\d+)`", sentence)}
        assert {code for _, code, _ in FAILURES} == listed - {0}

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0

    def test_one_parser_serves_every_call_and_keeps_no_state(self, capsys):
        # main builds its parser on its first call and parses every later
        # call with it, so a call after other flags, a usage error and help
        # prints what the same call printed before them.
        import trisectrix.cli as cli

        argv = ("trisect", "--angle-deg", "37")
        first = run(capsys, *argv)
        parser = cli._parser
        run(capsys, "trisect", "--angle-deg", "5", "--fold", "2", "--tol", "1e-6")
        run(capsys, "render", "--angle-deg", "60", "--samples", "3")
        assert run(capsys, "trisect", "--samples", "3")[0] == 2
        assert main(["trisect", "--help"]) == 0
        capsys.readouterr()
        assert run(capsys, *argv) == first
        assert cli._parser is parser


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
