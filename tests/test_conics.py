"""Tests for conic shapes, dual fitting, and the revolving-shape solver."""

import math

import numpy as np
import pytest

from closurelab.conics import (
    Conic,
    DualConic,
    FocalEllipse,
    PolarConicShape,
    centers_ellipse,
    chord_through_centers,
    confocal_intersections,
    conic_foci,
    conic_from_focal,
    fit_dual_conic,
    focus_directrix_pairs,
    focus_directrix_residual,
    point_of,
    shape_through_two_points,
    theorem6_rotation,
)
from closurelab.errors import DegeneracyError, DomainError
from closurelab.geometry import (
    Annulus,
    Circle,
    Line,
    Point,
    chord_at,
    inscribed_circle_at,
    inscribed_circles_tangent_to_line,
)

SQRT3 = math.sqrt(3.0)

CANONICAL_ELLIPSE = Conic(0.25, 0.0, 1.0, 0.0, 0.0, -1.0)  # x^2/4 + y^2 = 1
UNIT_CIRCLE = Conic(1.0, 0.0, 1.0, 0.0, 0.0, -1.0)


def coeff_distance(c1, c2):
    return max(abs(a - b) for a, b in zip(c1.coefficients, c2.coefficients))


def ellipse_tangent(t):
    """Tangent line of x^2/4 + y^2 = 1 at parameter t."""
    px, py = 2.0 * math.cos(t), math.sin(t)
    return Line.from_normal(px / 2.0, 2.0 * py, px * px / 2.0 + 2.0 * py * py)


class TestConicBasics:
    def test_normalization_unit_norm_sign_fixed(self):
        c = Conic(-2.0, 0.0, -2.0, 0.0, 0.0, 2.0)
        norm = math.sqrt(sum(x * x for x in c.coefficients))
        assert norm == pytest.approx(1.0)
        assert c.a > 0.0

    def test_zero_coefficients_rejected(self):
        with pytest.raises(DomainError):
            Conic(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


class TestAdjugateRoundTrip:
    def test_canonical(self):
        # the tangent lines of x^2/4 + y^2 = 1 satisfy 4u^2 + v^2 = w^2
        back = point_of(DualConic(4.0, 0.0, 1.0, 0.0, 0.0, -1.0))
        assert coeff_distance(back, CANONICAL_ELLIPSE) < 1e-12

    def test_random_conics(self):
        # the adjugate of the adjugate is the matrix up to scale
        rng = np.random.default_rng(5)
        for _ in range(100):
            c = Conic(*rng.normal(size=6))
            once = point_of(DualConic(*c.coefficients))
            back = point_of(DualConic(*once.coefficients))
            assert coeff_distance(back, c) < 1e-10

    def test_degenerate_rejected(self):
        with pytest.raises(DegeneracyError):
            point_of(DualConic(1.0, 0.0, -1.0, 0.0, 0.0, 0.0))


class TestFocalShapes:
    def test_focal_ellipse_invariant(self):
        with pytest.raises(DomainError):
            FocalEllipse(Point(0.0, 0.0), Point(3.0, 0.0), 2.0)

    def test_focal_ellipse_implicit_form(self):
        fe = FocalEllipse(Point(-SQRT3, 0.0), Point(SQRT3, 0.0), 4.0)
        k = conic_from_focal(fe)
        assert coeff_distance(k, CANONICAL_ELLIPSE) < 1e-12

    def test_focal_ellipse_sampled_roundtrip(self):
        fe = FocalEllipse(Point(0.4, -0.3), Point(1.1, 0.9), 3.0)
        k = conic_from_focal(fe)
        for i in range(100):
            p = fe.point_at(2.0 * math.pi * i / 100.0)
            assert abs(k.evaluate(p.x, p.y)) < 1e-10

    def test_degenerate_equal_foci_is_circle(self):
        fe = FocalEllipse(Point(1.0, 2.0), Point(1.0, 2.0), 4.0)
        k = conic_from_focal(fe)
        for f in conic_foci(k):
            assert f.distance(Point(1.0, 2.0)) < 1e-10

    def test_polar_shape_zero_eccentricity_is_circle(self):
        ps = PolarConicShape(Point(1.0, -2.0), 0.0, 1.5, 0.7)
        k = conic_from_focal(ps)
        expect = Conic(1.0, 0.0, 1.0, -2.0, 4.0, 1.0 + 4.0 - 1.5 * 1.5)
        assert coeff_distance(k, expect) < 1e-12

    def test_polar_shape_sampled_roundtrip(self):
        ps = PolarConicShape(Point(0.5, 0.3), 0.6, 1.2, 1.1)
        k = conic_from_focal(ps)
        for i in range(100):
            p = ps.point_at(2.0 * math.pi * i / 100.0)
            assert abs(k.evaluate(p.x, p.y)) < 1e-10
        assert min(f.distance(ps.focus) for f in conic_foci(k)) < 1e-9

    def test_polar_shape_validation(self):
        with pytest.raises(DomainError):
            PolarConicShape(Point(0.0, 0.0), -0.1, 1.0, 0.0)
        with pytest.raises(DomainError):
            PolarConicShape(Point(0.0, 0.0), 0.5, 0.0, 0.0)


class TestCentersEllipse:
    def test_foci_and_sum(self):
        a = Annulus.canonical(3.0, 1.0, 1.0)
        fe = centers_ellipse(a)
        assert fe.sum == pytest.approx(4.0)
        assert fe.focus1.distance(fe.focus2) == pytest.approx(1.0)

    def test_inscribed_centers_on_locus(self):
        a = Annulus.canonical(3.0, 1.0, 1.0)
        for i in range(20):
            w = inscribed_circle_at(a, 2.0 * math.pi * i / 20.0)
            s = (w.center.distance(a.outer.center)
                 + w.center.distance(a.inner.center))
            assert s == pytest.approx(4.0, abs=1e-10)

    def test_scaling_scales_sum(self):
        a1 = Annulus.canonical(3.0, 1.0, 1.0)
        a2 = Annulus.canonical(6.0, 2.0, 2.0)
        assert centers_ellipse(a2).sum == pytest.approx(
            2.0 * centers_ellipse(a1).sum)


def parabola_gap(a, t, p):
    """Focus-directrix defect of p on the parabola with focus at the inner
    centre and directrix the chord line t pushed r further away."""
    return abs(p.distance(a.inner.center) - (t.signed_distance(p) + a.r))


class TestTangentParabola:
    def test_tangent_circle_centers_on_parabola(self):
        a = Annulus.canonical(3.0, 0.7, 0.9)
        for theta in (0.3, 1.4, 2.8, 4.4):
            t = chord_at(a, theta).line
            for w in inscribed_circles_tangent_to_line(a, t):
                assert parabola_gap(a, t, w.center) < 1e-9

class TestChordThroughCenters:
    def test_concentric_chord_is_diameter(self):
        a = Annulus.canonical(3.0, 1.0, 0.0)
        chord = chord_through_centers(a, Line(0.0, 1.0, -1.0))
        assert abs(chord.signed_distance(Point(0.0, 0.0))) < 1e-9
        # centers (+-2, 0), so the chord is the x axis
        assert abs(chord.nx) < 1e-9

    def test_concentric_chords_pass_through_center(self):
        a = Annulus.canonical(3.0, 1.0, 0.0)
        for theta in (0.2, 1.1, 2.9, 4.0, 5.5):
            chord = chord_through_centers(a, chord_at(a, theta).line)
            assert abs(chord.signed_distance(a.outer.center)) < 1e-9

    def test_centers_on_both_conics(self):
        a = Annulus.canonical(3.0, 0.7, 0.9)
        k_ell = conic_from_focal(centers_ellipse(a))
        for theta in (0.3, 1.4, 2.8, 4.4):
            t = chord_at(a, theta).line
            chord = chord_through_centers(a, t)
            for w in inscribed_circles_tangent_to_line(a, t):
                assert abs(k_ell.evaluate(w.center.x, w.center.y)) < 1e-9
                assert parabola_gap(a, t, w.center) < 1e-9
                assert abs(chord.signed_distance(w.center)) < 1e-9


class TestDualFit:
    def test_ellipse_tangents_recover_dual(self):
        lines = [ellipse_tangent(2.0 * math.pi * i / 8.0 + 0.15)
                 for i in range(8)]
        fit = fit_dual_conic(lines)
        assert fit.line_rank == 3
        back = point_of(fit.dual)
        assert coeff_distance(back, CANONICAL_ELLIPSE) < 1e-8

    def test_unit_circle_tangents(self):
        angles = [2.0 * math.pi * i / 8.0 + 0.05 for i in range(8)]
        lines = [Line(math.cos(t), math.sin(t), 1.0) for t in angles]
        back = point_of(fit_dual_conic(lines).dual)
        assert coeff_distance(back, UNIT_CIRCLE) < 1e-9

    def test_held_out_tangents(self):
        fit = fit_dual_conic([ellipse_tangent(0.4 * i + 0.1)
                              for i in range(12)])
        for i in range(24):
            t = ellipse_tangent(0.26 * i + 0.03)
            assert abs(fit.dual.residual(t)) < 1e-7

    def test_concurrent_family_detected(self):
        a = Annulus.canonical(3.0, 1.0, 0.0)
        lines = [chord_through_centers(a, chord_at(
            a, 2.0 * math.pi * i / 12.0 + 0.1).line) for i in range(12)]
        fit = fit_dual_conic(lines)
        assert fit.line_rank == 2
        assert fit.envelope_point is not None
        assert abs(fit.envelope_point.x) < 1e-9
        assert abs(fit.envelope_point.y) < 1e-9
        # reported dual is the double point at the center
        h = np.array([0.0, 0.0, 1.0])
        m = fit.dual.matrix()
        assert abs(abs(h @ m @ h) - 1.0) < 1e-9

    def test_arity_guard(self):
        lines = [ellipse_tangent(0.4 * i) for i in range(4)]
        with pytest.raises(DomainError):
            fit_dual_conic(lines)


class TestFoci:
    def test_canonical_ellipse(self):
        foci = sorted(conic_foci(CANONICAL_ELLIPSE), key=lambda p: p.x)
        assert foci[0].x == pytest.approx(-SQRT3)
        assert foci[0].y == pytest.approx(0.0, abs=1e-12)
        assert foci[1].x == pytest.approx(SQRT3)

    def test_circle_foci_at_center(self):
        k = Conic(1.0, 0.0, 1.0, -2.0, -4.0, 1.0)
        for f in conic_foci(k):
            assert f.distance(Point(1.0, 2.0)) < 1e-12

    def test_equivariance_under_rotation(self):
        phi = math.pi / 6.0
        center = Point(1.0, 2.0)
        cs, sn = math.cos(phi), math.sin(phi)
        expected = []
        for f in conic_foci(CANONICAL_ELLIPSE):
            dx, dy = f.x - center.x, f.y - center.y
            expected.append(Point(center.x + cs * dx - sn * dy,
                                  center.y + sn * dx + cs * dy))
        rotated = conic_from_focal(FocalEllipse(*expected, 4.0))
        got = conic_foci(rotated)
        for e in expected:
            assert min(e.distance(g) for g in got) < 1e-10

    def test_parabola_single_focus(self):
        # focus (0.3, -0.6), directrix y = -2
        k = Conic(1.0, 0.0, 0.0, -0.6, -2.8, -3.55)
        foci = conic_foci(k)
        assert len(foci) == 1
        assert foci[0].distance(Point(0.3, -0.6)) < 1e-10

    def test_hyperbola_foci(self):
        # x^2 - y^2/3 = 1: foci (+-2, 0)
        k = Conic(1.0, 0.0, -1.0 / 3.0, 0.0, 0.0, -1.0)
        foci = sorted(conic_foci(k), key=lambda p: p.x)
        assert foci[0].x == pytest.approx(-2.0)
        assert foci[1].x == pytest.approx(2.0)

    def test_degenerate_rejected(self):
        with pytest.raises(DegeneracyError):
            conic_foci(Conic(1.0, 0.0, -1.0, 0.0, 0.0, 0.0))


class TestFocusDirectrix:
    def test_canonical_data(self):
        res = focus_directrix_residual(
            CANONICAL_ELLIPSE, Point(SQRT3, 0.0),
            Line(1.0, 0.0, 4.0 / SQRT3), SQRT3 / 2.0)
        assert res < 1e-10

    def test_eccentricity_sensitivity(self):
        res = focus_directrix_residual(
            CANONICAL_ELLIPSE, Point(SQRT3, 0.0),
            Line(1.0, 0.0, 4.0 / SQRT3), SQRT3 / 2.0 + 0.01)
        assert res > 1e-3

    def test_extracted_pairs_close_the_loop(self):
        ps = PolarConicShape(Point(0.5, 0.3), 0.6, 1.2, 1.1)
        k = conic_from_focal(ps)
        pairs = focus_directrix_pairs(k)
        assert len(pairs) == 2
        for focus, directrix, e in pairs:
            assert e == pytest.approx(0.6, abs=1e-10)
            assert focus_directrix_residual(k, focus, directrix, e) < 1e-10

    def test_circle_has_no_pairs(self):
        assert focus_directrix_pairs(UNIT_CIRCLE) == []

    def test_parabola_pair(self):
        # focus at the origin, directrix y = -2: x^2 = 4y + 4
        k = Conic(1.0, 0.0, 0.0, 0.0, -4.0, -4.0)
        pairs = focus_directrix_pairs(k)
        assert len(pairs) == 1
        focus, directrix, e = pairs[0]
        assert e == pytest.approx(1.0)
        assert focus.distance(Point(0.0, 0.0)) < 1e-10
        assert directrix.c == pytest.approx(-2.0)


class TestRevolvingShapes:
    def test_symmetric_pair_of_phases(self):
        shape = PolarConicShape(Point(0.0, 0.0), 0.5, 1.0, 0.0)
        phi0 = 0.8
        tilted = shape.with_phase(phi0)
        p1 = tilted.point_at(0.0)
        p2 = tilted.point_at(math.pi)
        sols = theorem6_rotation(shape, p1, p2)
        assert len(sols) == 2
        assert any(abs(s - phi0) < 1e-9 for s in sols)
        assert any(abs(s - (2.0 * math.pi - phi0)) < 1e-9 for s in sols)

    def test_infeasible_points_empty(self):
        shape = PolarConicShape(Point(0.0, 0.0), 0.5, 1.0, 0.0)
        far = shape.semi_latus / (1.0 - shape.eccentricity) * 1.5
        assert theorem6_rotation(shape, Point(far, 0.1),
                                 Point(-far, 0.2)) == []

    def test_algebraic_oracle_agreement(self):
        # direct 2x2 solve for (cos phi, sin phi) from the two pass-through
        # equations, cross-checked against the scanning solver
        focus = Point(0.3, -0.2)
        s1 = PolarConicShape(focus, 0.2, 1.0, 0.4)
        s2 = PolarConicShape(focus, 0.32, 1.1, 1.9)
        pts = confocal_intersections(s1, s2)
        assert len(pts) == 2
        for s3 in shape_through_two_points(focus, 0.45, pts[0], pts[1]):
            rt = []
            for p in pts:
                r = p.distance(focus)
                rt.append((r, math.atan2(p.y - focus.y, p.x - focus.x)))
            (r1, t1), (r2, t2) = rt
            c1 = (s3.semi_latus / r1 - 1.0) / s3.eccentricity
            c2 = (s3.semi_latus / r2 - 1.0) / s3.eccentricity
            det = math.sin(t2 - t1)
            a = (c1 * math.sin(t2) - c2 * math.sin(t1)) / det
            b = (c2 * math.cos(t1) - c1 * math.cos(t2)) / det
            assert math.hypot(a, b) == pytest.approx(1.0, abs=1e-9)
            phi_alg = math.atan2(b, a) % (2.0 * math.pi)
            assert math.remainder(phi_alg - s3.phase,
                                  2.0 * math.pi) == pytest.approx(
                                      0.0, abs=1e-9)
            sols = theorem6_rotation(
                s3.with_phase(0.0), pts[0], pts[1])
            assert any(abs(math.remainder(s - phi_alg, 2.0 * math.pi)) < 1e-8
                       for s in sols)

    def test_focus_coincident_point_rejected(self):
        shape = PolarConicShape(Point(0.0, 0.0), 0.5, 1.0, 0.0)
        with pytest.raises(DomainError):
            theorem6_rotation(shape, Point(0.0, 0.0), Point(1.0, 0.0))


class TestConfocalConstructions:
    def test_intersections_on_both_shapes(self):
        focus = Point(0.3, -0.2)
        s1 = PolarConicShape(focus, 0.2, 1.0, 0.4)
        s2 = PolarConicShape(focus, 0.32, 1.1, 1.9)
        pts = confocal_intersections(s1, s2)
        assert len(pts) == 2
        for p in pts:
            theta = math.atan2(p.y - focus.y, p.x - focus.x)
            assert s1.radius_at(theta) == pytest.approx(p.distance(focus))
            assert s2.radius_at(theta) == pytest.approx(p.distance(focus))

    def test_disjoint_shapes_empty(self):
        focus = Point(0.0, 0.0)
        s1 = PolarConicShape(focus, 0.0, 1.0, 0.0)
        s2 = PolarConicShape(focus, 0.0, 2.0, 0.0)
        with pytest.raises(DegeneracyError):
            # concentric circles never meet transversally
            confocal_intersections(s1, s2)

    def test_shapes_through_two_points_pass_through(self):
        focus = Point(0.3, -0.2)
        s1 = PolarConicShape(focus, 0.2, 1.0, 0.4)
        s2 = PolarConicShape(focus, 0.32, 1.1, 1.9)
        pts = confocal_intersections(s1, s2)
        shapes = shape_through_two_points(focus, 0.45, pts[0], pts[1])
        assert len(shapes) >= 1
        for s in shapes:
            for p in pts:
                theta = math.atan2(p.y - focus.y, p.x - focus.x)
                assert s.radius_at(theta) == pytest.approx(
                    p.distance(focus), abs=1e-10)

    def test_different_foci_rejected(self):
        s1 = PolarConicShape(Point(0.0, 0.0), 0.2, 1.0, 0.0)
        s2 = PolarConicShape(Point(1.0, 0.0), 0.2, 1.0, 0.0)
        with pytest.raises(DomainError):
            confocal_intersections(s1, s2)


class TestPipeline:
    """End-to-end chord-envelope checks on a non-concentric annulus."""

    def test_fit_and_focus(self):
        a = Annulus.canonical(3.0, 0.7, 0.9)
        fit = fit_dual_conic([
            chord_through_centers(a, chord_at(a, 2.0 * math.pi * i / 12.0
                                              + 0.05).line)
            for i in range(12)])
        assert fit.line_rank == 3
        worst = 0.0
        for i in range(24):
            t = chord_at(a, 2.0 * math.pi * i / 24.0 + 0.11).line
            chord = chord_through_centers(a, t)
            worst = max(worst, abs(fit.dual.residual(chord)))
        assert worst < 1e-7
        gamma = point_of(fit.dual)
        assert min(f.distance(a.inner.center)
                   for f in conic_foci(gamma)) < 1e-6 * a.R

    def test_fit_rotation_equivariance(self):
        # fitting in a rotated world frame rotates the envelope
        a0 = Annulus.canonical(3.0, 0.7, 0.9)
        phi = 0.6
        outer = Circle(Point(0.0, 0.0), 3.0)
        inner = Circle(Point(0.9 * math.cos(phi), 0.9 * math.sin(phi)), 0.7)
        a1 = Annulus(outer, inner)
        angles = [2.0 * math.pi * i / 12.0 + 0.05 for i in range(12)]
        fit0 = fit_dual_conic([
            chord_through_centers(a0, chord_at(a0, t).line) for t in angles])
        fit1 = fit_dual_conic([
            chord_through_centers(a1, chord_at(a1, t + phi).line)
            for t in angles])
        cs, sn = math.cos(phi), math.sin(phi)
        foci1 = conic_foci(point_of(fit1.dual))
        for f in conic_foci(point_of(fit0.dual)):
            q = Point(cs * f.x - sn * f.y, sn * f.x + cs * f.y)
            assert min(q.distance(g) for g in foci1) < 1e-8
