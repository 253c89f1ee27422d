"""Tests for the origami fold reconstruction and its verifier."""

import copy
import math
import random

import pytest

from trisectrix.geom import Angle
from trisectrix.origami import abe_construct, abe_verify, fold_angles

# Frozen with math.sin/math.cos at the stated arguments.
SIN_20 = 0.3420201433256687
COS_20 = 0.9396926207859084
TWO_SIN_20 = 0.6840402866513374

# O, the corner of the sheet and the angle vertex.
ORIGIN = (0.0, 0.0)


class TestConstruct:
    def test_quarter_turn_folds_d_onto_itself(self):
        # At exactly 90 degrees D already lies on the target ray, so the
        # crease passes through D and its image C is D.
        for target in (math.pi / 2, Angle(math.pi / 2)):
            c = abe_construct(target)
            assert math.dist(c.C, c.D) <= 1e-15
            assert abe_verify(c).passes(1e-15)

    def test_finite_just_inside_boundary(self):
        c = abe_construct(Angle.from_degrees(89.9999))
        assert abe_verify(c).passes(1e-12)

    def test_sixty_degrees_coordinates(self):
        c = abe_construct(Angle.from_degrees(60.0))
        assert math.degrees(c.three_theta / 3.0) == pytest.approx(20.0, abs=1e-12)
        (dx, dy), (hx, hy) = c.D, c.H
        # abe_verify sees neither D nor S moved off the y axis.
        assert abs(dy - TWO_SIN_20) <= 1e-15 and dx == 0.0
        assert c.S[0] == 0.0
        assert abs(hx - COS_20) <= 1e-15
        assert abs(hy - SIN_20) <= 1e-15
        for part in fold_angles(c):
            assert abs(part - math.radians(20.0)) <= 1e-12


class TestProperties:
    def test_g_defines_middle_ray(self):
        # The midpoint of the fold chord sits on the ray at two thirds of the
        # angle, at distance cos(theta) from the vertex. abe_verify does not
        # see G moved along that ray.
        rng = random.Random(0x06)
        for _ in range(500):
            t3 = rng.uniform(0.001, math.pi / 2.0 - 0.001)
            c = abe_construct(Angle(t3))
            gx, gy = c.G
            assert abs(math.atan2(gy, gx) - 2.0 * t3 / 3.0) <= 1e-12
            assert abs(math.dist(ORIGIN, c.G) - math.cos(t3 / 3.0)) <= 1e-12


class TestVerify:
    def test_perturbed_h_is_flagged(self):
        c = abe_construct(Angle.from_degrees(60.0))
        bad = copy.copy(c)
        hx, hy = c.H
        bad.H = (hx, hy + 1e-3)
        report = abe_verify(bad)
        assert not report.passes(1e-12)
        # The injected shift moves the measured first angle by ~1e-3 rad,
        # and H off the first crease by the shift itself.
        assert 1e-4 < report.residuals["alpha_vs_beta"] < 1e-2
        assert report.residuals["h_on_first_crease"] == pytest.approx(1e-3, rel=1e-9)

    @pytest.mark.parametrize("where", ["origin", "below_base_line"])
    @pytest.mark.parametrize("name", ["H", "G", "C"])
    def test_point_at_origin_or_below_base_line_is_flagged(self, name, where):
        # atan2 measures any point, so such a tampered H, G or C shows in the
        # angle residuals instead of raising.
        c = abe_construct(Angle.from_degrees(60.0))
        x, y = getattr(c, name)
        bad = copy.copy(c)
        setattr(bad, name, ORIGIN if where == "origin" else (x, -y))
        report = abe_verify(bad)
        assert not report.passes(1e-12)
        angles = report.residuals["alpha_vs_beta"], report.residuals["beta_vs_gamma"]
        assert max(angles) > 0.1

    def test_alternative_p_reading_reported_not_enforced(self):
        # "C-P equals sin(theta)" has no solution with P on the base ray, so
        # the verifier does not check it; the origami command reports it.
        c = abe_construct(Angle.from_degrees(60.0))
        report = abe_verify(c)
        assert report.residuals["op_vs_cos_theta"] <= 1e-12
        assert report.residuals["hp_vs_sin_theta"] <= 1e-12
        assert "cp_vs_sin_theta" not in report.residuals
        assert abs(math.dist(c.C, c.P) - math.sin(c.three_theta / 3.0)) > 0.1
