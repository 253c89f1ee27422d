"""Tests for the independent verifiers and the cross-validation driver."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import pins

from trisectrix.errors import AngleOutOfRange, MismatchDetected, TrisectrixError
from trisectrix.geom import Angle, Point2, as_angle, distance
from trisectrix.locus import LocusParams, trisect, verify_trisection
from trisectrix.oracles import (
    chord_diagram,
    chord_residuals,
    cross_validate,
    oracle_theta,
    triple_angle_residual,
)
from trisectrix.origami import abe_construct, abe_verify

SIN_20 = 0.3420201433256687
TWO_SIN_20 = 0.6840402866513374


def _count_constructions(monkeypatch) -> dict:
    """Count Point2 and Angle constructions through their __post_init__,
    the hook the benchmark's per-op counts wrap."""
    counts = {Point2: 0, Angle: 0}
    for cls in counts:
        original = cls.__post_init__

        def counted(self, original=original, cls=cls):
            counts[cls] += 1
            original(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    return counts


class TestOracleTheta:
    def test_exact_divisions(self):
        assert oracle_theta(Angle.from_degrees(90.0)).radians == math.pi / 2.0 / 3.0
        assert oracle_theta(Angle.from_degrees(60.0)).degrees == pytest.approx(
            20.0, abs=1e-12
        )
        assert oracle_theta(Angle(0.0)).radians == 0.0


class TestTripleAngleResidual:
    def test_thirty_ninety(self):
        assert triple_angle_residual(Angle.from_degrees(30.0),
                                     Angle.from_degrees(90.0)) <= 1e-15

    def test_twenty_sixty(self):
        assert triple_angle_residual(Angle.from_degrees(20.0),
                                     Angle.from_degrees(60.0)) <= 1e-15

    def test_deliberate_mismatch_is_large(self):
        residual = triple_angle_residual(Angle.from_degrees(25.0),
                                         Angle.from_degrees(90.0))
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
            assert triple_angle_residual(oracle_theta(Angle(t3)), Angle(t3)) <= 1e-12


class TestChordDiagram:
    def test_quarter_turn_chords(self):
        d = chord_diagram(Angle.from_degrees(90.0))
        for chord in (d.chord_FK, d.chord_KL, d.chord_LE):
            assert abs(chord - 0.5) <= 1e-12
        assert abs(d.fold_BG - 0.5) <= 1e-12

    def test_sixty_degree_chords(self):
        d = chord_diagram(Angle.from_degrees(60.0))
        for chord in (d.chord_FK, d.chord_KL, d.chord_LE):
            assert abs(chord - SIN_20) <= 1e-12
        assert abs(distance(d.G, d.F) - TWO_SIN_20) <= 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(AngleOutOfRange):
            chord_diagram(Angle(0.0))
        with pytest.raises(AngleOutOfRange):
            chord_diagram(Angle.from_degrees(91.0))

    @pytest.mark.parametrize("degrees", [450.0, -270.0, 420.0, 90.0000001, math.nan])
    def test_rejects_raw_angles_before_wrapping(self, degrees):
        with pytest.raises(AngleOutOfRange):
            chord_diagram(math.radians(degrees))
        with pytest.raises(AngleOutOfRange):
            cross_validate(math.radians(degrees), 1.0, 1e-10)

    @given(t3=st.floats(min_value=0.01, max_value=math.pi / 2.0))
    @settings(deadline=None, max_examples=300)
    def test_marked_points_on_half_circle(self, t3):
        d = chord_diagram(Angle(t3))
        for p in (Point2(0.0, 0.0), d.E, d.F, d.K, d.L):
            assert abs(distance(d.J, p) - 0.5) <= 1e-12

    @given(t3=st.floats(min_value=0.01, max_value=math.pi / 2.0))
    @settings(deadline=None, max_examples=300)
    def test_inscribed_chords_match_sine(self, t3):
        d = chord_diagram(Angle(t3))
        expected = 2.0 * 0.5 * math.sin(t3 / 3.0)
        for chord in (d.chord_FK, d.chord_KL, d.chord_LE):
            assert abs(chord - expected) <= 1e-12

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

    def test_quarter_turn_skips_fold_only(self):
        report = cross_validate(Angle.from_degrees(90.0), 0.5, 1e-10)
        # The fold construction excludes exactly 90 degrees: no origami residual.
        assert not any(name.startswith("origami_") for name in report.residuals)
        assert "theta_origami_vs_oracle" not in report.residuals
        assert "theta_locus_vs_origami" not in report.residuals
        assert abs(report.theta_locus.degrees - 30.0) <= 1e-8
        assert any(name.startswith("chord_") for name in report.residuals)
        assert report.passes(1e-10)

    def test_out_of_range_propagates(self):
        with pytest.raises(AngleOutOfRange):
            cross_validate(Angle.from_degrees(100.0), 1.0, 1e-10)

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
            return Angle(as_angle(three_theta).radians / 3.0 + 1e-6)

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
            return Angle(oracle(three_theta).radians + oracle_skew)

        def skewed_construct(three_theta):
            c = construct(three_theta)
            c.alpha = Angle(c.alpha.radians + origami_skew)
            return c

        monkeypatch.setattr(oracles, "oracle_theta", skewed_oracle)
        monkeypatch.setattr(oracles, "abe_construct", skewed_construct)
        with pytest.raises(MismatchDetected) as excinfo:
            cross_validate(Angle.from_degrees(60.0), 1.0, tol)
        gap = excinfo.value.report.residuals[key]
        assert gap > tol
        assert str(excinfo.value) == (
            f"trisected-angle estimates {pair} differ by {gap!r} rad "
            f"(> tol {tol!r}) at target 60 deg"
        )

    @pytest.mark.parametrize("degrees", [60.0, 90.0])
    def test_calls_each_route_once(self, monkeypatch, degrees):
        # The benchmark's per-layer spans wrap these names in the oracles
        # module; each must be called through it, once per call, and the
        # fold routes not at all at 90 degrees.
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
        expected = {"trisect": 1, "verify_trisection": 1, "chord_diagram": 1,
                    "chord_residuals": 1}
        if degrees < 90.0:
            expected.update(abe_construct=1, abe_verify=1)
        assert calls == expected

    @pytest.mark.parametrize("degrees", [60.0, 90.0])
    def test_report_key_order(self, degrees):
        # The oracle and triple-angle keys, then each route's own keys in its
        # own order under its prefix; the fold's only below 90 degrees.
        t3 = math.radians(degrees)
        params = LocusParams(1.0)
        expected = ["theta_locus_vs_oracle", "triple_angle_identity", "triple_angle_locus"]
        expected += ["trisection_" + name
                     for name in verify_trisection(trisect(t3, params), params).residuals]
        if degrees < 90.0:
            expected += ["theta_origami_vs_oracle", "theta_locus_vs_origami"]
            expected += ["origami_" + name
                         for name in abe_verify(abe_construct(t3)).residuals]
        expected += ["chord_" + name for name in chord_residuals(chord_diagram(t3))]
        report = cross_validate(t3, 1.0, 1e-12)
        assert tuple(report.residuals) == tuple(expected)

    def test_value_constructions_per_call(self, monkeypatch):
        # Each public value is built once: a sub-90 degree target given as a
        # raw float builds at most 13 Point2 and exactly 9 Angle values, two
        # of them the copies of the target that abe_construct and
        # chord_diagram make.
        counts = _count_constructions(monkeypatch)
        cross_validate(math.radians(60.0), 1.0, 1e-12)
        assert counts[Point2] <= 13
        assert counts[Angle] == 9

    def test_value_constructions_per_solve(self, monkeypatch):
        # The benchmark's solve op, LocusParams + trisect + verify_trisection
        # of a raw 60 degree target, builds one Point2 (N) and two Angle
        # values (the target and theta).
        counts = _count_constructions(monkeypatch)
        params = LocusParams(1.0)
        verify_trisection(trisect(math.radians(60.0), params), params)
        assert counts == {Point2: 1, Angle: 2}


@given(x=st.floats())
@settings(deadline=None, max_examples=500)
def test_routes_keep_a_float_target_exactly_or_reject_it(x):
    # Over the whole float range, NaN and the infinities included, each
    # route stores the target bit for bit or raises AngleOutOfRange, never a
    # reduced angle. The fold's domain is open, so it also rejects pi/2.
    accepted = []
    for route in (lambda v: trisect(v, LocusParams(1.0)), chord_diagram, abe_construct):
        try:
            got = route(x).three_theta.radians
        except AngleOutOfRange:
            accepted.append(False)
        else:
            assert got.hex() == x.hex()
            accepted.append(True)
    solved, chord, fold = accepted
    assert chord == solved
    assert fold == (solved and x != 0.5 * math.pi)


def _outcome(fn, *args) -> str:
    try:
        return repr(fn(*args))
    except TrisectrixError as exc:
        attached = getattr(exc, "report", None) or getattr(exc, "result", None)
        return f"{type(exc).__name__}: {exc} | {attached!r}"


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
        lines = [_outcome(abe_construct, t3)]
        if deg < 90.0:
            lines.append(_outcome(abe_verify, abe_construct(t3)))
        diagram = chord_diagram(t3)
        lines += [repr(diagram), repr(chord_residuals(diagram))]
        for a in (0.1, 1.0, 7.5):
            for tol in (1e-10, 3e-17):
                lines.append(_outcome(cross_validate, t3, a, tol))
        form = "radians" if i % 2 else "Angle"
        yield f"{deg!r} deg as {form}", "".join(f"{line}\n" for line in lines)


def test_route_outputs_bit_identical():
    pins.check("routes", route_grid())
