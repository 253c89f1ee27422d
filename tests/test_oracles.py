"""Tests for the independent verifiers and the cross-validation driver."""

import copy
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import pins

from trisectrix.errors import AngleOutOfRange, MismatchDetected, TrisectrixError
from trisectrix.geom import _HALF_PI, Angle, target_radians
from trisectrix.locus import FOLD_MAX, FOLD_MIN, LocusParams, trisect, verify_trisection
from trisectrix.oracles import (
    _CHORD_KEYS,
    _KEYS,
    _ORIGAMI_KEYS,
    _TRISECTION_KEYS,
    CrossValidationReport,
    chord_diagram,
    chord_residuals,
    cross_validate,
    oracle_theta,
)
from trisectrix.origami import abe_construct, abe_verify, fold_angles
from trisectrix.report import VerificationReport

SIN_20 = 0.3420201433256687
TWO_SIN_20 = 0.6840402866513374


def _outcome(fn, *args) -> str:
    """repr of ``fn(*args)``, or its error's type and message with the report
    or result the error attaches."""
    try:
        return repr(fn(*args))
    except (TrisectrixError, ValueError, TypeError) as exc:
        attached = getattr(exc, "report", None) or getattr(exc, "result", None)
        return f"{type(exc).__name__}: {exc} | {attached!r}"


def _examples(name, *values):
    """A decorator that adds each value as an explicit example of the
    test's argument ``name``."""
    def add(test):
        for value in values:
            test = example(**{name: value})(test)
        return test
    return add


def _log_uniform(low, high):
    """Floats in [low, high], uniform in their logarithm."""
    return st.floats(min_value=math.log(low), max_value=math.log(high)).map(
        lambda x: min(max(math.exp(x), low), high))


def _chords(d):
    """The chords FK, KL and LE of a chord diagram, measured from its points."""
    return math.dist(d.F, d.K), math.dist(d.K, d.L), math.dist(d.L, d.E)


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

    def test_true_trisections_for_random_angles(self):
        rng = random.Random(0x3A)
        for _ in range(1000):
            t3 = rng.uniform(1e-9, math.pi / 2.0)
            residuals = cross_validate(Angle(t3), 1.0, 1e-12).residuals
            assert residuals["triple_angle_identity"] <= 1e-12
            assert residuals["triple_angle_locus"] <= 1e-12


class TestChordDiagram:
    def test_quarter_turn_chords(self):
        d = chord_diagram(Angle.from_degrees(90.0))
        for chord in _chords(d):
            assert abs(chord - 0.5) <= 1e-12
        assert abs(d.G[1] - 0.5) <= 1e-12

    def test_sixty_degree_chords(self):
        d = chord_diagram(Angle.from_degrees(60.0))
        for chord in _chords(d):
            assert abs(chord - SIN_20) <= 1e-12
        assert abs(math.dist(d.G, d.F) - TWO_SIN_20) <= 1e-12

    def test_stores_only_its_points_and_target(self):
        # Every length is measured from the points by chord_residuals. The
        # target is the checked float, so no field is a mutable value.
        d = chord_diagram(Angle.from_degrees(60.0))
        assert type(d).__slots__ == ("three_theta", "E", "F", "G", "J", "K", "L")
        assert type(d.three_theta) is float
        for name in "EFGJKL":
            point = getattr(d, name)
            assert type(point) is tuple and len(point) == 2, name
            assert all(type(coordinate) is float for coordinate in point), name

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("name", list("EFGJKL"))
    def test_nan_coordinate_is_flagged(self, name, axis):
        # Every coordinate enters a residual, so a NaN one fails the check.
        d = chord_diagram(Angle.from_degrees(60.0))
        point = list(getattr(d, name))
        point[axis] = math.nan
        bad = copy.copy(d)
        setattr(bad, name, tuple(point))
        assert not VerificationReport(chord_residuals(bad)).passes(1.0)

    @given(t3=st.floats(min_value=0.01, max_value=math.pi / 2.0))
    @settings(deadline=None, max_examples=300)
    def test_marked_points_on_half_circle(self, t3):
        d = chord_diagram(Angle(t3))
        for p in ((0.0, 0.0), d.E, d.F, d.K, d.L):
            assert abs(math.dist(d.J, p) - 0.5) <= 1e-12

    @given(t3=st.floats(min_value=0.01, max_value=math.pi / 2.0))
    @settings(deadline=None, max_examples=300)
    def test_inscribed_chords_match_sine(self, t3):
        d = chord_diagram(Angle(t3))
        expected = 2.0 * 0.5 * math.sin(t3 / 3.0)
        for chord in _chords(d):
            assert abs(chord - expected) <= 1e-12

    @pytest.mark.parametrize("point,flagged", [
        ("E", ["le_vs_sin_theta"]),
        ("F", ["fk_vs_sin_theta"]),
        ("G", ["bg_vs_sin_theta"]),
        ("K", ["kl_vs_sin_theta"]),
        ("L", ["le_vs_sin_theta", "kl_vs_sin_theta"]),
    ])
    def test_moved_point_flags_its_lengths(self, point, flagged):
        # Each length is measured from the points, so moving a point by a
        # relative 1e-9 flags the lengths it ends. Away from 90 degrees,
        # where E closes onto the vertex, every one moves by over 1e-11.
        for degrees in (30.0, 60.0, 75.0):
            d = chord_diagram(Angle.from_degrees(degrees))
            x, y = getattr(d, point)
            moved = copy.copy(d)
            setattr(moved, point, (x * (1.0 + 1e-9), y * (1.0 + 1e-9)))
            residuals = chord_residuals(moved)
            for name in flagged:
                assert residuals[name] > 1e-12, (degrees, name)

    def test_residual_map_for_random_angles(self):
        rng = random.Random(0xC0DE)
        for _ in range(500):
            d = chord_diagram(Angle(rng.uniform(0.01, math.pi / 2.0)))
            residuals = chord_residuals(d)
            assert max(residuals.values()) <= 1e-12


class TestCrossValidate:
    def test_seventy_five_degrees_agrees(self):
        report = cross_validate(Angle.from_degrees(75.0), 1.0, 1e-10)
        assert abs(report.theta_locus.degrees - 25.0) <= 1e-8
        # The oracle and origami estimates, each as its gap to the locus one.
        for gap in ("theta_locus_vs_oracle", "theta_locus_vs_origami"):
            assert math.degrees(report.residuals[gap]) <= 1e-8
        assert report.passes(1e-10), report.worst()

    def test_quarter_turn_runs_every_route(self):
        # The fold covers exactly 90 degrees too: the report holds every
        # route's keys, in order.
        report = cross_validate(Angle.from_degrees(90.0), 0.5, 1e-10)
        assert tuple(report.residuals) == _KEYS
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

    def test_sweep_consistency(self):
        for deg in range(5, 91, 5):
            report = cross_validate(Angle.from_degrees(deg), 1.0, 1e-10)
            assert report.passes(1e-10), (deg, report.worst())

    def test_estimates_agree_for_random_targets(self):
        rng = random.Random(0x500)
        for _ in range(500):
            t3 = rng.uniform(1e-3, math.pi / 2.0 - 1e-9)
            report = cross_validate(Angle(t3), 1.0, 1e-12)
            assert report.residuals["theta_locus_vs_origami"] <= 1e-12
            assert report.residuals["theta_locus_vs_oracle"] <= 1e-12

    def test_disagreement_raises_mismatch(self, monkeypatch):
        # Skew the closed-form estimate; the comparison must notice.
        def skewed(three_theta):
            return three_theta / 3.0 + 1e-6

        monkeypatch.setattr("trisectrix.oracles.oracle_theta", skewed)
        with pytest.raises(MismatchDetected) as excinfo:
            cross_validate(Angle.from_degrees(60.0), 1.0, 1e-10)
        report = excinfo.value.report
        assert report is not None
        assert report.residuals["theta_locus_vs_oracle"] == pytest.approx(
            1e-6, rel=1e-3
        )

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
        assert gap > tol
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


def _fold_residuals(c):
    return abe_verify(c).residuals


@pytest.mark.parametrize("construct, residuals, degrees", [
    *(pytest.param(abe_construct, _fold_residuals, d, id=f"fold-{d:g}")
      for d in (1.0, 30.0, 60.0, 89.0, 90.0)),
    *(pytest.param(chord_diagram, chord_residuals, d, id=f"chord-{d:g}")
      for d in (1.0, 30.0, 60.0, 89.0, 90.0)),
])
def test_moved_target_fails_the_report(construct, residuals, degrees):
    # Rebuilt with its target moved by one part in 1e9 and every point left
    # where it is, a construction disagrees with its own target: some
    # residual leaves rounding level (the smallest flagged, at 1 degree, is
    # about 6e-12).
    c = construct(math.radians(degrees))
    target, *points = (getattr(c, name) for name in type(c).__slots__)
    moved = type(c)(target * (1.0 + 1e-9), *points)
    assert max(residuals(moved).values()) > 1e-12


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
    residuals.update(zip(_TRISECTION_KEYS, verify_trisection(result, params).residuals.values()))
    construction = abe_construct(t3)
    origami = fold_angles(construction)[0]
    origami_gap = abs(origami - oracle)
    cross_gap = abs(locus - origami)
    residuals["theta_origami_vs_oracle"] = origami_gap
    residuals["theta_locus_vs_origami"] = cross_gap
    residuals.update(zip(_ORIGAMI_KEYS, abe_verify(construction).residuals.values()))
    residuals.update(zip(_CHORD_KEYS, chord_residuals(chord_diagram(t3)).values()))

    report = CrossValidationReport(theta_locus, residuals)
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
