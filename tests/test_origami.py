"""Tests for the origami fold reconstruction and its verifier."""

import dataclasses
import math
import random

import pytest

from trisectrix.errors import AngleOutOfRange
from trisectrix.geom import Angle, Point2, distance, polar_angle
from trisectrix.origami import abe_construct, abe_verify

# Frozen with math.sin/math.cos at the stated arguments.
SIN_20 = 0.3420201433256687
COS_20 = 0.9396926207859084
TWO_SIN_20 = 0.6840402866513374
SIN_10 = 0.17364817766693033


class TestConstruct:
    def test_rejected_at_quarter_turn_exactly(self):
        with pytest.raises(AngleOutOfRange):
            abe_construct(Angle.from_degrees(90.0))

    def test_rejected_at_zero_and_beyond(self):
        with pytest.raises(AngleOutOfRange):
            abe_construct(Angle(0.0))
        with pytest.raises(AngleOutOfRange):
            abe_construct(Angle.from_degrees(120.0))

    @pytest.mark.parametrize("degrees", [420.0, -270.0, 450.0, math.nan])
    def test_rejects_raw_angles_before_wrapping(self, degrees):
        with pytest.raises(AngleOutOfRange):
            abe_construct(math.radians(degrees))

    def test_finite_just_inside_boundary(self):
        c = abe_construct(Angle.from_degrees(89.9999))
        assert abe_verify(c).passes(1e-12)

    def test_sixty_degrees_coordinates(self):
        c = abe_construct(Angle.from_degrees(60.0))
        assert c.theta.degrees == pytest.approx(20.0, abs=1e-12)
        assert abs(c.D.y - TWO_SIN_20) <= 1e-15 and c.D.x == 0.0
        assert abs(c.H.x - COS_20) <= 1e-15
        assert abs(c.H.y - SIN_20) <= 1e-15
        for part in (c.alpha, c.beta, c.gamma):
            assert abs(part.radians - math.radians(20.0)) <= 1e-12

    def test_thirty_degrees_equal_segments(self):
        c = abe_construct(Angle.from_degrees(30.0))
        for length in (
            distance(c.O, c.S),
            distance(c.S, c.D),
            distance(c.H, c.G),
            distance(c.G, c.C),
        ):
            assert abs(length - SIN_10) <= 1e-12

    def test_chord_matches_marked_segment_near_limit(self):
        # As the angle approaches 90 deg the fold chord H-C tends to
        # 2*sin(30 deg) = 1, the length of the marked segment O-D.
        delta = 1e-6
        c = abe_construct(Angle(math.pi / 2.0 - delta))
        hc = distance(c.H, c.C)
        assert abs(hc - 2.0 * math.sin(c.theta.radians)) <= 1e-12
        assert abs(hc - distance(c.O, c.D)) <= 1e-12
        assert abs(hc - 1.0) <= 1e-5

    def test_unit_length_is_one(self):
        for deg in (5.0, 30.0, 60.0, 89.0):
            c = abe_construct(Angle.from_degrees(deg))
            assert abs(c.unit_length - 1.0) <= 1e-12
            assert abs(distance(c.O, c.C) - 1.0) <= 1e-12


class TestProperties:
    def test_equal_thirds_for_random_angles(self):
        rng = random.Random(0x5EED)
        for _ in range(1000):
            t3 = rng.uniform(0.001, math.pi / 2.0 - 0.001)
            c = abe_construct(Angle(t3))
            third = t3 / 3.0
            for part in (c.alpha, c.beta, c.gamma):
                assert abs(part.radians - third) <= 1e-12

    def test_chord_equals_marked_segment(self):
        rng = random.Random(0xABE)
        for _ in range(500):
            t3 = rng.uniform(0.001, math.pi / 2.0 - 0.001)
            c = abe_construct(Angle(t3))
            expected = 2.0 * math.sin(t3 / 3.0)
            assert abs(distance(c.H, c.C) - expected) <= 1e-12
            assert abs(distance(c.O, c.D) - expected) <= 1e-12

    def test_g_defines_middle_ray(self):
        # The midpoint of the fold chord sits on the ray at two thirds of the
        # angle, at distance cos(theta) from the vertex.
        rng = random.Random(0x06)
        for _ in range(500):
            t3 = rng.uniform(0.001, math.pi / 2.0 - 0.001)
            c = abe_construct(Angle(t3))
            assert abs(polar_angle(c.G).radians - 2.0 * t3 / 3.0) <= 1e-12
            assert abs(distance(c.O, c.G) - math.cos(t3 / 3.0)) <= 1e-12

    def test_h_stays_on_first_crease(self):
        rng = random.Random(0x07)
        for _ in range(200):
            t3 = rng.uniform(0.001, math.pi / 2.0 - 0.001)
            c = abe_construct(Angle(t3))
            assert abs(c.H.y - math.sin(t3 / 3.0)) <= 1e-12


class TestVerify:
    def test_constructed_angles_pass(self):
        for deg in (10.0, 45.0, 60.0, 89.9):
            report = abe_verify(abe_construct(Angle.from_degrees(deg)))
            assert report.passes(1e-12), report.worst()

    def test_perturbed_h_is_flagged(self):
        c = abe_construct(Angle.from_degrees(60.0))
        bad = dataclasses.replace(c, H=Point2(c.H.x, c.H.y + 1e-3))
        report = abe_verify(bad)
        assert not report.passes(1e-12)
        # The injected shift moves the measured first angle by ~1e-3 rad.
        assert 1e-4 < report.residuals["alpha_vs_beta"] < 1e-2

    def test_alternative_p_reading_reported_not_enforced(self):
        # "C-P equals sin(theta)" has no solution with P on the base ray; the
        # discrepancy is reported as informational instead of being checked.
        report = abe_verify(abe_construct(Angle.from_degrees(60.0)))
        assert report.residuals["op_vs_cos_theta"] <= 1e-12
        assert report.residuals["hp_vs_sin_theta"] <= 1e-12
        assert report.informational["cp_vs_sin_theta"] > 0.1

    def test_report_shape(self):
        report = abe_verify(abe_construct(Angle.from_degrees(45.0)))
        expected_keys = {
            "oh_vs_oc", "hc_vs_od", "os_vs_sd", "hg_vs_gc",
            "alpha_vs_beta", "beta_vs_gamma", "op_vs_cos_theta",
            "hp_vs_sin_theta", "c_on_target_ray",
            "angle_sum_vs_three_theta", "h_on_first_crease",
        }
        assert expected_keys <= set(report.residuals)
        flat = report.as_dict()
        assert "cp_vs_sin_theta (informational)" in flat
