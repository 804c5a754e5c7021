"""Tests for planar primitives and tangency operations."""

import math
import random

import pytest

from closurelab.chains import Word, run_chain, seed_element
from closurelab.errors import DegeneracyError, DomainError
from closurelab.geometry import (
    Annulus,
    AtInfinity,
    Chord,
    Circle,
    Line,
    Point,
    Theorem1Scalars,
    chord_at,
    closure_criterion_residual,
    euler_like_residual,
    external_similitude_center,
    inscribed_circle_at,
    inscribed_circles_tangent_to_line,
    segment_inscribed_radius,
    theorem1_radii,
    theorem2_frame,
    theorem2_meeting_point,
    wrap_pi,
)


def random_annulus(rng, R=3.1, r=0.8):
    d = rng.uniform(0.0, R - r - 0.3)
    beta = rng.uniform(0.0, 2.0 * math.pi)
    ox = rng.uniform(-2.0, 2.0)
    oy = rng.uniform(-2.0, 2.0)
    outer = Circle(Point(ox, oy), R)
    inner = Circle(Point(ox + d * math.cos(beta), oy + d * math.sin(beta)), r)
    return Annulus(outer, inner)


class TestLine:
    def test_unit_normal_enforced(self):
        with pytest.raises(DomainError):
            Line(3.0, 4.0, 1.0)

    def test_from_normal_rescales(self):
        line = Line.from_normal(3.0, 4.0, 10.0)
        assert line.nx == pytest.approx(0.6)
        assert line.ny == pytest.approx(0.8)
        assert line.c == pytest.approx(2.0)

    def test_from_normal_rejects_zero(self):
        with pytest.raises(DomainError):
            Line.from_normal(0.0, 0.0, 1.0)

    def test_signed_distance_and_foot(self):
        line = Line(0.0, 1.0, 2.0)
        p = Point(5.0, 7.0)
        assert line.signed_distance(p) == pytest.approx(5.0)
        foot = line.foot(p)
        assert foot.x == pytest.approx(5.0)
        assert foot.y == pytest.approx(2.0)

    def test_direction_is_left_turn_of_normal(self):
        line = Line(1.0, 0.0, 0.0)
        assert line.direction() == (0.0, 1.0)


class TestCircle:
    def test_positive_radius_enforced(self):
        with pytest.raises(DomainError):
            Circle(Point(0.0, 0.0), 0.0)
        with pytest.raises(DomainError):
            Circle(Point(0.0, 0.0), -1.0)

    def test_point_at(self):
        c = Circle(Point(1.0, 2.0), 2.0)
        p = c.point_at(math.pi / 2.0)
        assert p.x == pytest.approx(1.0)
        assert p.y == pytest.approx(4.0)


class TestAnnulus:
    def test_requires_strict_containment(self):
        with pytest.raises(DomainError):
            Annulus.canonical(3.0, 1.0, 2.0)
        with pytest.raises(DomainError):
            Annulus.canonical(3.0, 1.0, 2.5)

    def test_scale_bounds(self):
        for R in (1e-149, 1e150):
            assert Annulus.canonical(R, 0.25 * R, 0.3 * R).R == R
        for R in (1e-151, 1e151):
            with pytest.raises(DomainError):
                Annulus.canonical(R, 0.25 * R, 0.3 * R)
        with pytest.raises(DomainError):
            Annulus.canonical(1e100, 1e-151, 0.0)

    def test_canonical_scalars(self):
        a = Annulus.canonical(3.5, 1.0, 1.5)
        assert a.R == 3.5
        assert a.r == 1.0
        assert a.d == pytest.approx(1.5)
        assert a.axis_angle == pytest.approx(0.0)

    def test_axis_angle_general_position(self):
        outer = Circle(Point(1.0, 1.0), 3.0)
        inner = Circle(Point(1.0, 2.0), 0.5)
        a = Annulus(outer, inner)
        assert a.axis_angle == pytest.approx(math.pi / 2.0)


class TestSimilitudeCenters:
    def test_external_divides_by_radii(self):
        p = external_similitude_center(Circle(Point(0.0, 0.0), 1.0),
                                       Circle(Point(3.0, 0.0), 2.0))
        assert p.x == pytest.approx(-3.0)
        assert p.y == pytest.approx(0.0)

    def test_external_equal_radii_at_infinity(self):
        m = external_similitude_center(Circle(Point(0.0, 0.0), 1.0),
                                       Circle(Point(3.0, 0.0), 1.0))
        assert isinstance(m, AtInfinity)
        assert m.dx == pytest.approx(1.0)
        assert m.dy == pytest.approx(0.0)

    def test_external_concentric_equal_degenerate(self):
        c = Circle(Point(0.0, 0.0), 1.0)
        with pytest.raises(DegeneracyError):
            external_similitude_center(c, Circle(Point(0.0, 0.0), 1.0))


class TestScalarFormulas:
    def test_scalar_domain(self):
        with pytest.raises(DomainError):
            Theorem1Scalars(0.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            Theorem1Scalars(1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            Theorem1Scalars(1.0, 1.0, -0.1)

    def test_symmetric_case_equal_radii(self):
        sc = Theorem1Scalars(4.0, 1.0, 0.0)
        r1, r2 = theorem1_radii(sc, 2.0, 1.0)
        assert r1 == pytest.approx(1.4)
        assert r2 == pytest.approx(1.4)

    def test_criterion_matches_radius_product(self):
        # residual equals (r1*r2 - r^2) scaled by the two denominators
        sc = Theorem1Scalars(3.0, 2.0, 1.0)
        R, r = 2.0, 1.0
        r1, r2 = theorem1_radii(sc, R, r)
        den1 = sc.s2 + sc.m2 + sc.x2
        den2 = sc.s2 + sc.m2 - sc.x2
        res = closure_criterion_residual(sc, R, r)
        assert res == pytest.approx((r1 * r2 - r * r) * den1 * den2)

    def test_criterion_zero_forces_product(self):
        # pick scalars on the criterion: s2*R - m2*r = r*(s2 + m2)
        R, r = 3.0, 1.0
        s2 = 2.0
        m2 = s2 * (R - r) / (2.0 * r)  # solves the criterion for +rhs
        sc = Theorem1Scalars(s2, m2, 0.5)
        assert closure_criterion_residual(sc, R, r) == pytest.approx(0.0, abs=1e-12)
        r1, r2 = theorem1_radii(sc, R, r)
        assert r1 * r2 == pytest.approx(r * r)

    def test_degenerate_spread_rejected(self):
        # den2 <= 0 would need x2 >= s2 + m2, impossible under m2 - x2 > 0,
        # so the guard is exercised at construction time
        with pytest.raises(DomainError):
            Theorem1Scalars(1.0, 1.0, 1.5)


class TestClosureLocus:
    def test_zero_on_the_locus(self):
        assert euler_like_residual(3.5, 1.0, 1.5) == pytest.approx(0.0, abs=1e-15)
        assert euler_like_residual(3.0, 1.0, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_sign_off_the_locus(self):
        assert euler_like_residual(3.5, 1.0, 1.7) > 0.0
        assert euler_like_residual(3.5, 1.0, 1.3) < 0.0

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            euler_like_residual(-1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            euler_like_residual(3.0, 1.0, -0.5)


class TestInscribedCircles:
    def test_canonical_tangencies(self):
        a = Annulus.canonical(3.5, 1.0, 1.5)
        for theta in (0.0, 1.0, 2.2, 3.6, 5.1):
            c = inscribed_circle_at(a, theta)
            assert c.center.distance(a.outer.center) == pytest.approx(a.R - c.radius)
            assert c.center.distance(a.inner.center) == pytest.approx(a.r + c.radius)

    def test_world_frame_angle_roundtrip(self):
        rng = random.Random(20)
        for _ in range(10):
            a = random_annulus(rng)
            theta = rng.uniform(0.0, 2.0 * math.pi)
            c = inscribed_circle_at(a, theta)
            back = math.atan2(c.center.y - a.inner.center.y,
                              c.center.x - a.inner.center.x)
            assert wrap_pi(back - theta) == pytest.approx(0.0, abs=1e-12)

    def test_concentric_radius_constant(self):
        a = Annulus.canonical(3.0, 1.0, 0.0)
        for theta in (0.0, 1.3, 4.2):
            assert inscribed_circle_at(a, theta).radius == pytest.approx(1.0)


class TestChords:
    def test_validate_accepts_constructed_chord(self):
        rng = random.Random(21)
        for _ in range(10):
            a = random_annulus(rng)
            chord = chord_at(a, rng.uniform(0.0, 2.0 * math.pi))
            chord.validate(a)
            assert chord.line.signed_distance(a.inner.center) == pytest.approx(a.r)

    def test_validate_rejects_foreign_chord(self):
        a = Annulus.canonical(3.0, 1.0, 0.0)
        b = Annulus.canonical(3.0, 1.2, 0.0)
        chord = chord_at(b, 0.7)
        with pytest.raises(DomainError):
            chord.validate(a)

    def test_tangency_between_endpoints(self):
        a = Annulus.canonical(3.5, 1.0, 1.5)
        chord = chord_at(a, 2.0)
        dx, dy = chord.line.direction()
        s1 = dx * (chord.p1.x - chord.tangency.x) + dy * (chord.p1.y - chord.tangency.y)
        s2 = dx * (chord.p2.x - chord.tangency.x) + dy * (chord.p2.y - chord.tangency.y)
        assert s1 * s2 < 0.0


class TestLineTangentCircles:
    def test_concentric_pair_positions(self):
        # chord at angle 0 is the vertical line x = 1; the two inscribed
        # circles tangent to it sit symmetrically above and below the axis
        a = Annulus.canonical(3.0, 1.0, 0.0)
        chord = chord_at(a, 0.0)
        sols = sorted(inscribed_circles_tangent_to_line(a, chord.line),
                      key=lambda c: c.center.y)
        assert len(sols) == 2
        assert sols[0].center.x == pytest.approx(0.0, abs=1e-10)
        assert sols[0].center.y == pytest.approx(-2.0)
        assert sols[1].center.y == pytest.approx(2.0)
        assert sols[0].radius == pytest.approx(1.0)
        assert sols[1].radius == pytest.approx(1.0)

    def test_world_frame_residuals(self):
        rng = random.Random(22)
        for _ in range(25):
            a = random_annulus(rng)
            chord = chord_at(a, rng.uniform(0.0, 2.0 * math.pi))
            sols = inscribed_circles_tangent_to_line(a, chord.line)
            assert len(sols) == 2
            for c in sols:
                assert c.center.distance(a.outer.center) == pytest.approx(
                    a.R - c.radius, abs=1e-9)
                assert c.center.distance(a.inner.center) == pytest.approx(
                    a.r + c.radius, abs=1e-9)
                assert chord.line.signed_distance(c.center) == pytest.approx(
                    c.radius, abs=1e-9)

    def test_rejects_non_tangent_line(self):
        a = Annulus.canonical(3.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            inscribed_circles_tangent_to_line(a, Line(1.0, 0.0, 2.5))

    def test_rejects_wrong_orientation(self):
        a = Annulus.canonical(3.0, 1.0, 0.0)
        chord = chord_at(a, 0.0)
        flipped = Line(-chord.line.nx, -chord.line.ny, -chord.line.c)
        with pytest.raises(DomainError):
            inscribed_circles_tangent_to_line(a, flipped)


class TestSteinerNeighbors:
    """The two tangent inscribed neighbours, as the successors a cc run
    takes in either orientation."""

    @staticmethod
    def neighbors(a, theta):
        seed = seed_element(a, "c", theta)
        return seed.circle, [
            run_chain(a, Word("cc"), seed, orientation=o).elements[1].circle
            for o in (1, -1)]

    def test_concentric_angles(self):
        a = Annulus.canonical(3.0, 1.0, 0.0)
        _, nbrs = self.neighbors(a, 0.0)
        angles = sorted(math.atan2(n.center.y, n.center.x) for n in nbrs)
        expect = 2.0 * math.asin((a.R - a.r) / (a.R + a.r))
        assert angles[0] == pytest.approx(-expect)
        assert angles[1] == pytest.approx(expect)

    def test_neighbors_are_tangent(self):
        rng = random.Random(23)
        for _ in range(10):
            a = random_annulus(rng)
            c0, nbrs = self.neighbors(a, rng.uniform(0.0, 2.0 * math.pi))
            for n in nbrs:
                gap = n.center.distance(c0.center) - (n.radius + c0.radius)
                assert gap == pytest.approx(0.0, abs=1e-9)


class TestSegmentRadius:
    def test_signed_offsets(self):
        assert segment_inscribed_radius(3.0, 1.0) == pytest.approx(1.0)
        assert segment_inscribed_radius(3.0, -1.0) == pytest.approx(2.0)
        assert segment_inscribed_radius(3.0, 0.0) == pytest.approx(1.5)

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            segment_inscribed_radius(3.0, 3.0)
        with pytest.raises(DomainError):
            segment_inscribed_radius(3.0, -3.5)


class TestAlignedFrame:
    def test_frame_scalars_at_ratio_two(self):
        a = theorem2_frame(2.0)
        assert a.R == pytest.approx(3.5)
        assert a.r == pytest.approx(1.0)
        assert a.d == pytest.approx(1.5)

    def test_frame_lies_on_closure_locus(self):
        for ratio in (1.5, 2.0, 3.0, 4.7):
            a = theorem2_frame(ratio)
            assert euler_like_residual(a.R, a.r, a.d) == pytest.approx(
                0.0, abs=1e-10)

    def test_ratio_law_for_inscribed_circles(self):
        # inscribed radius is ((a-1)/(a+1)) times the centre abscissa
        ratio = 2.0
        a = theorem2_frame(ratio)
        k = (ratio - 1.0) / (ratio + 1.0)
        for theta in (0.4, 1.7, 3.0, 5.5):
            c = inscribed_circle_at(a, theta)
            assert c.radius == pytest.approx(k * c.center.x, abs=1e-9)

    def test_meeting_points_collinear_on_y_axis(self):
        a = theorem2_frame(2.0)
        for theta in (0.3, 1.1, 2.5, 4.0, 5.7):
            c = inscribed_circle_at(a, theta)
            m = theorem2_meeting_point(a, c)
            if isinstance(m, AtInfinity):
                # the vertical direction is the limiting axis position
                assert abs(m.dx) < 1e-9
                continue
            assert m.x == pytest.approx(0.0, abs=1e-9)

    def test_equal_radius_position_goes_to_infinity(self):
        # centre abscissa where the inscribed radius equals r: x = r (a+1)/(a-1)
        ratio = 2.0
        a = theorem2_frame(ratio)
        # the inner centre sits left of the outer centre in this frame, so
        # theta = 0 gives the widest inscribed circle (radius 2) and
        # theta = pi the narrowest (radius 1/2); the crossing is between
        lo, hi = 0.0, math.pi
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if inscribed_circle_at(a, mid).radius > a.r:
                lo = mid
            else:
                hi = mid
        c = inscribed_circle_at(a, 0.5 * (lo + hi))
        assert c.radius == pytest.approx(a.r, abs=1e-9)
        m = theorem2_meeting_point(a, c)
        assert isinstance(m, AtInfinity)

    def test_meeting_point_rejects_non_inscribed_circle(self):
        a = Annulus.canonical(3.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            theorem2_meeting_point(a, Circle(Point(1.5, 0.0), 0.4))

    def test_invalid_ratio(self):
        with pytest.raises(DomainError):
            theorem2_frame(1.0)
        with pytest.raises(DomainError):
            theorem2_frame(0.5)
