"""Tests for the independent verifiers and the cross-validation driver."""

import copy
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import pins

from trisectrix.errors import AngleOutOfRange, MismatchDetected, TrisectrixError
from trisectrix.geom import _HALF_PI, Angle, Point2, target_radians
from trisectrix.locus import FOLD_MAX, FOLD_MIN, LocusParams, trisect, verify_trisection
from trisectrix.oracles import (
    CrossValidationReport,
    chord_diagram,
    chord_residuals,
    cross_validate,
    oracle_theta,
)
from trisectrix.origami import abe_construct, abe_verify, fold_angles
from trisectrix.report import VerificationReport

def _outcome(fn, *args) -> str:
    """repr of ``fn(*args)``, or its error's type and message with the report
    or result the error attaches."""
    try:
        return repr(fn(*args))
    except (TrisectrixError, ValueError, TypeError) as exc:
        attached = getattr(exc, "report", None) or getattr(exc, "result", None)
        return f"{type(exc).__name__}: {exc} | {attached!r}"


def _examples(name, *values, **fixed):
    """A decorator that adds each value as an explicit example of the
    test's argument ``name``, with the test's other arguments ``fixed``."""
    def add(test):
        for value in values:
            test = example(**{name: value}, **fixed)(test)
        return test
    return add


def _log_uniform(low, high):
    """Floats in [low, high], uniform in their logarithm."""
    return st.floats(min_value=math.log(low), max_value=math.log(high)).map(
        lambda x: min(max(math.exp(x), low), high))


class TestOracleTheta:
    def test_exact_divisions(self):
        # The theta is the float quotient itself, not an Angle.
        third = oracle_theta(Angle.from_degrees(90.0))
        assert type(third) is float and third == math.pi / 2.0 / 3.0
        assert math.degrees(oracle_theta(Angle.from_degrees(60.0))) == pytest.approx(
            20.0, abs=1e-12
        )


class TestTripleAngleResidual:
    """The identity cos 3t = 4 cos^3 t - 3 cos t as cross_validate reports
    it: ``triple_angle_identity`` for the oracle's theta and
    ``triple_angle_locus`` for the solver's, against the solved target."""

    def test_thirty_ninety(self):
        residuals = cross_validate(Angle.from_degrees(90.0), 1.0, 1e-12).residuals
        assert residuals["triple_angle_identity"] <= 1e-15

    def test_twenty_sixty(self):
        residuals = cross_validate(Angle.from_degrees(60.0), 1.0, 1e-12).residuals
        assert residuals["triple_angle_identity"] <= 1e-15

    def test_deliberate_mismatch_is_large(self, monkeypatch):
        # An oracle that answers 25 degrees for a 90 degree target: the gap
        # raises, and the attached report holds the identity's residual.
        monkeypatch.setattr("trisectrix.oracles.oracle_theta",
                            lambda three_theta: math.radians(25.0))
        with pytest.raises(MismatchDetected) as excinfo:
            cross_validate(Angle.from_degrees(90.0), 1.0, 1e-10)
        residual = excinfo.value.report.residuals["triple_angle_identity"]
        # 4 cos^3(25 deg) - 3 cos(25 deg) = cos(75 deg), nowhere near cos(90 deg).
        expected = abs(math.cos(math.pi / 2.0)
                       - (4.0 * math.cos(math.radians(25.0)) ** 3
                          - 3.0 * math.cos(math.radians(25.0))))
        assert residual == pytest.approx(expected)
        assert residual > 0.2


class TestCrossValidate:
    def test_quarter_turn_runs_every_route(self):
        # The fold covers exactly 90 degrees too: the report holds every
        # route's keys, in the order of any other target's.
        report = cross_validate(Angle.from_degrees(90.0), 0.5, 1e-10)
        assert list(report.residuals) == list(cross_validate(1.0, 1.0, 1e-10).residuals)
        assert abs(report.theta_locus.degrees - 30.0) <= 1e-8
        assert report.passes(1e-10)

    def test_least_subnormal_target_keeps_its_report(self):
        # The oracle's third of 5e-324 rounds to 0, which the triple-angle
        # identity takes as its theta: the target is in the domain, so the
        # report is returned, not a domain error, and both identity
        # residuals are exactly 0.
        assert oracle_theta(5e-324) == 0.0
        report = cross_validate(5e-324, 1.0, 1e-12)
        assert report.residuals["triple_angle_identity"] == 0.0
        assert report.residuals["triple_angle_locus"] == 0.0
        assert report.passes(1e-12)

    def test_estimates_agree_for_random_targets(self):
        rng = random.Random(0x500)
        for _ in range(500):
            t3 = rng.uniform(1e-9, math.pi / 2.0 - 1e-9)
            residuals = cross_validate(Angle(t3), 1.0, 1e-12).residuals
            for key in ("theta_locus_vs_origami", "theta_locus_vs_oracle",
                        "triple_angle_identity", "triple_angle_locus"):
                assert residuals[key] <= 1e-12, key

    @pytest.mark.parametrize("oracle_skew,origami_skew,tol,pair,key", [
        # The oracle alone is off: locus-oracle is checked first.
        (1e-6, 0.0, 1e-10, "locus and oracle", "theta_locus_vs_oracle"),
        # The fold alone is off: locus agrees with oracle, not with origami.
        (0.0, 1e-6, 1e-10, "locus and origami", "theta_locus_vs_origami"),
        # Oracle +eps and origami -eps with tol in [eps, 2*eps): each is
        # within tol of the locus, but not of each other.
        (1e-6, -1e-6, 1.5e-6, "oracle and origami", "theta_origami_vs_oracle"),
    ])
    def test_mismatch_names_the_pair_that_disagrees(self, monkeypatch, oracle_skew,
                                                    origami_skew, tol, pair, key):
        import trisectrix.oracles as oracles

        oracle, construct = oracles.oracle_theta, oracles.abe_construct

        def skewed_oracle(three_theta):
            return oracle(three_theta) + oracle_skew

        def skewed_construct(three_theta):
            # Rotate H about O: the fold's measured first angle moves by
            # origami_skew, and abe_verify sees it.
            c = construct(three_theta)
            cos_s, sin_s = math.cos(origami_skew), math.sin(origami_skew)
            hx, hy = c.H
            c.H = (cos_s * hx - sin_s * hy, sin_s * hx + cos_s * hy)
            return c

        monkeypatch.setattr(oracles, "oracle_theta", skewed_oracle)
        monkeypatch.setattr(oracles, "abe_construct", skewed_construct)
        with pytest.raises(MismatchDetected) as excinfo:
            cross_validate(Angle.from_degrees(60.0), 1.0, tol)
        residuals = excinfo.value.report.residuals
        gap = residuals[key]
        assert gap > tol and gap == pytest.approx(abs(oracle_skew - origami_skew), rel=1e-3)
        if origami_skew:
            assert residuals["origami_alpha_vs_beta"] > tol
        assert str(excinfo.value) == (
            f"trisected-angle estimates {pair} differ by {gap!r} rad "
            f"(> tol {tol!r}) at target 60 deg"
        )

    @pytest.mark.parametrize("degrees", [60.0, 90.0])
    def test_calls_each_route_once(self, monkeypatch, degrees):
        # The benchmark's per-layer spans wrap these names in the oracles
        # module; each must be called through it, once per call.
        import trisectrix.oracles as oracles

        calls = {}
        for name in ("trisect", "verify_trisection", "abe_construct", "abe_verify",
                     "chord_diagram", "chord_residuals"):
            original = getattr(oracles, name)

            def counted(*args, name=name, original=original, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(oracles, name, counted)
        cross_validate(math.radians(degrees), 1.0, 1e-12)
        assert calls == {"trisect": 1, "verify_trisection": 1, "abe_construct": 1,
                         "abe_verify": 1, "chord_diagram": 1, "chord_residuals": 1}

    @pytest.mark.parametrize("degrees", [60.0, 90.0])
    def test_report_key_order(self, degrees):
        # The oracle and triple-angle keys, then each route's own keys in its
        # own order under its prefix.
        t3 = math.radians(degrees)
        params = LocusParams(1.0)
        expected = ["theta_locus_vs_oracle", "triple_angle_identity", "triple_angle_locus"]
        expected += ["trisection_" + name
                     for name in verify_trisection(trisect(t3, params), params).residuals]
        expected += ["theta_origami_vs_oracle", "theta_locus_vs_origami"]
        expected += ["origami_" + name for name in abe_verify(abe_construct(t3)).residuals]
        expected += ["chord_" + name for name in chord_residuals(chord_diagram(t3))]
        report = cross_validate(t3, 1.0, 1e-12)
        assert tuple(report.residuals) == tuple(expected)


@pytest.mark.parametrize("construct, points", [(abe_construct, "DSHCGP"),
                                               (chord_diagram, "EFGJKL")],
                         ids=["origami", "chord"])
def test_stores_only_its_points_and_target(construct, points):
    # Every length, and the fold's angles, are measured from the points by
    # the route's verifier (fold_angles for the angles), never stored, so no
    # stored value can disagree with the points. The target is the checked
    # float, so no field is a mutable value.
    figure = construct(Angle.from_degrees(60.0))
    assert type(figure).__slots__ == ("three_theta", *points)
    assert type(figure.three_theta) is float
    for name in points:
        point = getattr(figure, name)
        assert type(point) is tuple and len(point) == 2, name
        assert all(type(coordinate) is float for coordinate in point), name


def test_a_value_written_into_residuals_is_what_passes_and_worst_report():
    # The residuals dict, once read, is the report's residuals: a write into
    # it is what passes, worst and the repr then show.
    report = cross_validate(math.radians(45.0), 2.0, 1e-10)
    assert report.passes(1e-10)
    report.residuals["chord_jk_radius"] = 1.0
    assert not report.passes(1e-10) and report.passes(1.0)
    assert report.worst() == ("chord_jk_radius", 1.0)
    report.residuals["trisection_locus_relation_at_n"] = 2.0
    assert report.worst() == ("trisection_locus_relation_at_n", 2.0)
    assert "'trisection_locus_relation_at_n': 2.0" in repr(report)
    report.residuals["theta_locus_vs_oracle"] = math.nan
    assert not report.passes(math.inf)
    assert report.worst()[0] == "theta_locus_vs_oracle"
    # The read merged the parts into one, whose dict is the residuals, so a
    # write through parts shows too: the report keeps one store.
    assert report.parts == (("", report.residuals),)
    assert report.parts[0][1] is report.residuals
    report.parts[0][1]["theta_locus_vs_oracle"] = 0.0
    report.parts[0][1]["origami_oh_vs_oc"] = 3.0
    assert report.worst() == ("origami_oh_vs_oc", 3.0)
    assert not report.passes(2.0) and report.passes(3.0)
    assert "'origami_oh_vs_oc': 3.0" in repr(report)


@given(x=st.floats())
# Zero, 91, 100 and 120 degrees as Angles; raw radians of 420, 450, -270 and
# just past 90 degrees, and NaN; a plain radian float that solves.
@_examples("x", 0.0, *map(math.radians, (91.0, 100.0, 120.0, 420.0, 450.0, -270.0,
                                         90.0000001)), math.nan, math.pi / 3.0)
@settings(deadline=None, max_examples=500)
def test_routes_keep_a_float_target_exactly_or_reject_it(x):
    # Over the whole float range, NaN and the infinities included, given as
    # a raw float or as an Angle, every route accepts exactly the targets in
    # (0, pi/2] and keeps each bit for bit, never a reduced angle: the
    # solver's result and each construction store the float, the division
    # oracle returns exactly its third, and cross_validate reports the
    # solver's theta. Every other target raises AngleOutOfRange with the one
    # wording, naming its degrees as given.
    in_domain = 0.0 < x <= _HALF_PI
    theta = trisect(x, LocusParams(1.0), 1e-10).theta.radians if in_domain else None
    routes = ((lambda v: trisect(v, LocusParams(1.0)).three_theta, x),
              (lambda v: chord_diagram(v).three_theta, x),
              (lambda v: abe_construct(v).three_theta, x),
              (oracle_theta, x / 3.0),
              (lambda v: cross_validate(v, 1.0, 1e-10).theta_locus.radians, theta))
    for target in (x, Angle(x)) if 0.0 <= x < 2.0 * math.pi else (x,):
        for route, kept in routes:
            try:
                got = route(target)
            except AngleOutOfRange as exc:
                assert not in_domain
                assert str(exc) == ("trisection target must lie in (0, 90] degrees, "
                                    f"got {math.degrees(x):.6g}")
            else:
                assert in_domain
                assert type(got) is float and got.hex() == kept.hex()


# The moves of a figure's fields that each residual of its route's verifier
# flags, and under "unflagged" the moves none flags. A float field or an
# Angle's radians is scaled by 1 + 1e-9, an integer gains 1, and a point
# moves out from the origin by 1 + 1e-9 or turns 1e-9 rad about it. A
# residual flags a move when it exceeds 1e-12 and twice its unmoved value.
# Each float field and each coordinate of a float-pair point is also made
# NaN (_nan_moves), which the test checks against the table's moves.
_FLAGGED = {
    "trisection": {
        "three_theta_vs_target": "three_theta, theta",
        "jn_vs_2a": "b_star, n_point out, n_point turned",
        "on_vs_unit_length": "unit_length, n_point out",
        "fold_ratio_vs_sin_theta": "theta, unit_length",
        "locus_relation_at_n": "b_star, n_point out, n_point turned",
        "unflagged": "iterations, final_bracket_width, angle_residual",  # not read
    },
    "origami": {
        "oh_vs_oc": "H out, C out",
        "hc_vs_od": "D out, H out, H turned, C out, C turned",
        "os_vs_sd": "D out, S out",
        "hg_vs_gc": "H out, H turned, C out, C turned, G turned",
        "alpha_vs_beta": "H turned, G turned",
        "beta_vs_gamma": "H turned, C turned, G turned",
        "op_vs_cos_theta": "three_theta, P out",
        "hp_vs_sin_theta": "three_theta, H out, H turned, P turned",
        "c_on_target_ray": "three_theta, C turned",
        "angle_sum_vs_three_theta": "three_theta, C turned",
        "h_on_first_crease": "three_theta, H out, H turned",
        "unflagged": "D turned, S turned, G out",  # named in abe_verify's docstring
    },
    "chord": {
        "ja_radius": "J out",
        "jf_radius": "F out, J out",
        "je_radius": "E out, E turned, J out, J turned",
        "jk_radius": "J out, J turned, K out, K turned",
        "jl_radius": "J out, J turned, L out, L turned",
        "fk_vs_sin_theta": "three_theta, F out, F turned, K turned",
        "kl_vs_sin_theta": "three_theta, K out, K turned, L out, L turned",
        "le_vs_sin_theta": "three_theta, E out, E turned, L out, L turned",
        "bg_vs_sin_theta": "three_theta, G out, G turned",
        "gf_vs_2sin_theta": "three_theta, F out, F turned, G out, G turned",
    },
}
# Entries that differ at one target, in degrees: at 1 the target's move
# shifts cos(theta) by ~1e-13; E, cos(3 theta) from the vertex, fades at 89.
_FLAGGED_AT = {
    ("origami", 1): {"op_vs_cos_theta": "P out"},
    ("chord", 89): {"je_radius": "E turned, J out, J turned"},
    ("chord", 90): {"je_radius": "J out", "le_vs_sin_theta": "three_theta, L out",
                    "unflagged": "E out, E turned"},
}


def _nan_moves(value):
    """Each NaN move of one field's value: the float itself, or one
    coordinate of a point. Angle and Point2 reject NaN, and an int has none."""
    if type(value) is float:
        return [math.nan]
    if type(value) is tuple:
        return [(math.nan, value[1]), (value[0], math.nan)]
    return []


def _moves(value):
    """Each move of one field's value, keyed by its suffix in _FLAGGED."""
    if type(value) in (int, float):
        return {"": value + 1 if type(value) is int else value * (1.0 + 1e-9)}
    if type(value) is Angle:
        return {"": Angle(value.radians * (1.0 + 1e-9))}
    if type(value) is Point2:
        return {move: Point2(*xy) for move, xy in _moves((value.x, value.y)).items()}
    x, y = value
    cos, sin = math.cos(1e-9), math.sin(1e-9)
    return {" out": (x * (1.0 + 1e-9), y * (1.0 + 1e-9)),
            " turned": (cos * x - sin * y, sin * x + cos * y)}


@pytest.mark.parametrize("degrees", [1, 30, 60, 75, 89, 90])
@pytest.mark.parametrize("route, a", [("trisection", 0.3), ("trisection", 1.0),
                                      ("trisection", 7.5), ("origami", None), ("chord", None)])
def test_moved_field_flags_the_residuals_that_read_it(route, a, degrees):
    # Each move of a field is flagged by exactly the residuals pinned above,
    # and the unmoved fold and chord figures pass their verifiers at 1e-12.
    # A NaN move of a field that some move shows in a residual fails the
    # report at any tol, and the NaN moves of a field, taken together, make
    # NaN every residual that flags one of its moves; a NaN move of an
    # unread field makes no residual NaN.
    t3 = math.radians(degrees)
    if route == "trisection":
        params = LocusParams(a)
        figure, check = trisect(t3, params), lambda r: verify_trisection(r, params).residuals
    elif route == "origami":
        figure, check = abe_construct(t3), lambda c: abe_verify(c).residuals
    else:
        figure, check = chord_diagram(t3), chord_residuals

    def checked(field, value):
        moved = copy.copy(figure)
        setattr(moved, field, value)
        return check(moved)

    unmoved = check(figure)
    assert route == "trisection" or max(unmoved.values()) <= 1e-12
    flagged = {}
    for field in type(figure).__slots__:
        for move, value in _moves(getattr(figure, field)).items():
            names = [name for name, residual in checked(field, value).items()
                     if residual > 1e-12 and residual > 2.0 * unmoved[name]]
            for name in names or ["unflagged"]:
                flagged.setdefault(name, set()).add(field + move)
    expected = {**_FLAGGED[route], **_FLAGGED_AT.get((route, degrees), {})}
    assert flagged == {name: set(moves.split(", ")) for name, moves in expected.items()}

    for field in type(figure).__slots__:
        nan_moves = _nan_moves(getattr(figure, field))
        if not nan_moves:
            continue
        unread = field in flagged.get("unflagged", ())
        made_nan = set()
        for value in nan_moves:
            report = VerificationReport(checked(field, value))
            nan = {name for name, residual in report.residuals.items() if math.isnan(residual)}
            made_nan |= nan
            assert unread or (not report.passes(math.inf) and report.worst()[0] in nan), field
        read = {name for name, moves in flagged.items() if name != "unflagged"
                and any(move.split()[0] == field for move in moves)}
        assert not made_nan if unread else made_nan >= read, field


def route_grid():
    """About 300 targets (every integer degree, exact 90 included, plus
    seeded uniform draws over (0, 90]), half as raw radians and half as
    Angles, each labelled by its degrees and form. Its output is one line
    for each route: origami, chord and cross_validate at three folds and
    two tols. The tol of 3e-17 sits below rounding, so the mismatch and
    bracket-collapse errors are pinned too."""
    rng = random.Random(0x9E3779B9)
    degrees = [float(d) for d in range(1, 91)]
    degrees += [90.0 * (1.0 - rng.random()) for _ in range(210)]
    for i, deg in enumerate(degrees):
        t3 = math.radians(deg) if i % 2 else Angle.from_degrees(deg)
        lines = [_outcome(abe_construct, t3), _outcome(abe_verify, abe_construct(t3))]
        diagram = chord_diagram(t3)
        lines += [repr(diagram), repr(chord_residuals(diagram))]
        for a in (0.1, 1.0, 7.5):
            for tol in (1e-10, 3e-17):
                lines.append(_outcome(cross_validate, t3, a, tol))
        form = "radians" if i % 2 else "Angle"
        yield f"{deg!r} deg as {form}", "".join(f"{line}\n" for line in lines)


def test_route_outputs_bit_identical():
    pins.check("routes", route_grid())


def _reference_oracle_theta(three_theta):
    """The division oracle as it was when it returned an Angle."""
    t3 = target_radians(three_theta)
    return Angle(t3 / 3.0)


def _reference_triple_angle_residual(theta, three_theta):
    """The triple-angle identity as it was as a public function of two
    checked angles, theta in [0, 90] degrees (an Angle here) and the target
    in (0, 90]."""
    t = theta.radians
    if not 0.0 <= t <= _HALF_PI:
        raise AngleOutOfRange(
            f"triple-angle identity requires theta in [0, 90] degrees, got {math.degrees(t):.6g}")
    t3 = target_radians(three_theta)
    c = math.cos(t)
    return abs(math.cos(t3) - (4.0 * c * c * c - 3.0 * c))


def _reference_cross_validate(three_theta, a, tol):
    """cross_validate as it was before it did each piece of work once, kept
    verbatim (bar the two helpers above, and running the fold at every
    target as the domain now allows) as the oracle the one-pass report must
    reproduce bit for bit."""
    params = LocusParams(a)
    # trisect checks the target domain; the routes below take its float.
    result = trisect(three_theta, params, tol)
    t3 = result.three_theta
    theta_locus = result.theta
    theta_oracle = _reference_oracle_theta(t3)
    locus, oracle = theta_locus.radians, theta_oracle.radians
    gap = abs(locus - oracle)

    residuals = {
        "theta_locus_vs_oracle": gap,
        "triple_angle_identity": _reference_triple_angle_residual(theta_oracle, t3),
        "triple_angle_locus": _reference_triple_angle_residual(theta_locus, t3),
    }
    residuals.update(("trisection_" + name, value)
                     for name, value in verify_trisection(result, params).residuals.items())
    construction = abe_construct(t3)
    origami = fold_angles(construction)[0]
    origami_gap = abs(origami - oracle)
    cross_gap = abs(locus - origami)
    residuals["theta_origami_vs_oracle"] = origami_gap
    residuals["theta_locus_vs_origami"] = cross_gap
    residuals.update(("origami_" + name, value)
                     for name, value in abe_verify(construction).residuals.items())
    residuals.update(("chord_" + name, value)
                     for name, value in chord_residuals(chord_diagram(t3)).items())

    report = CrossValidationReport(theta_locus, (("", residuals),))
    if gap > tol:
        first, second = "locus", "oracle"
    elif cross_gap > tol:
        first, second, gap = "locus", "origami", cross_gap
    elif origami_gap > tol:
        first, second, gap = "oracle", "origami", origami_gap
    else:
        return report
    raise MismatchDetected(
        f"trisected-angle estimates {first} and {second} differ by "
        f"{gap!r} rad (> tol {tol!r}) at target {math.degrees(t3):.6g} deg",
        report=report,
    )


@given(
    target=st.floats(min_value=0.0, max_value=math.pi / 2.0, exclude_min=True)
    | st.sampled_from((0.5 * math.pi, 5e-324)),
    a=_log_uniform(FOLD_MIN, FOLD_MAX),
    tol=_log_uniform(1e-17, 1e-3),
)
@example(target=0.5 * math.pi, a=1.0, tol=1e-12)
@example(target=0.5 * math.pi, a=1e-3, tol=1e-16)
@settings(deadline=None, max_examples=500)
def test_cross_validate_matches_reference(target, a, tol):
    # The same report repr, or the same error type, message and attached
    # report (or result, after a bracket collapse), for every input, exactly
    # 90 degrees included: every key in the same order, with the same bits.
    assert _outcome(cross_validate, target, a, tol) == _outcome(
        _reference_cross_validate, target, a, tol)
