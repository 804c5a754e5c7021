"""Tests for the word-driven chain interpreter."""

import math

import pytest

from closurelab import _kernels as kern
from closurelab.chains import (
    ChainRun,
    ChordElement,
    CircleElement,
    Word,
    closure_sweep,
    is_closure_config,
    monodromy_defect,
    run_chain,
    seed_element,
)
from closurelab.conics import centers_ellipse, chord_through_centers, fit_dual_conic
from closurelab.errors import (
    ChainError,
    DeadEndError,
    DomainError,
    TieError,
)
from closurelab.geometry import Annulus, Circle, Point, chord_at

TWO_PI = 2.0 * math.pi

# closure loci used below; all with R normalized where convenient:
#   cscs      d^2 = (R - r)^2 - 4 r^2
#   sss       d^2 = R (R - 2 r)
#   ssss      (R^2 - d^2)^2 = 2 r^2 (R^2 + d^2)
#   cc...c    concentric, sin(pi/n) = (R - r) / (R + r)
CONCENTRIC_CS2 = Annulus.canonical(3.0, 1.0, 0.0)
CONCENTRIC_S3 = Annulus.canonical(2.0, 1.0, 0.0)


def advance(e_from, e_to):
    return (e_to.omega_contact - e_from.omega_contact) % TWO_PI


def world_annulus(r, d, beta):
    """Annulus of outer radius 1 about (2, -1), inner centre at angle beta."""
    return Annulus(Circle(Point(2.0, -1.0), 1.0),
                   Circle(Point(2.0 + d * math.cos(beta),
                                -1.0 + d * math.sin(beta)), r))


class TestWord:
    def test_validation(self):
        with pytest.raises(DomainError):
            Word("c")
        with pytest.raises(DomainError):
            Word("cxs")
        with pytest.raises(DomainError):
            Word("")

    def test_cyclic_indexing(self):
        w = Word("cscs")
        assert w.letter(0) == "c"
        assert w.letter(3) == "s"
        assert w.letter(4) == "c"
        assert w.letter(-1) == "s"



class TestSeeds:
    def test_concentric_circle_seed(self):
        e = seed_element(CONCENTRIC_CS2, "c", 0.0)
        assert isinstance(e, CircleElement)
        assert e.circle.center.x == pytest.approx(2.0)
        assert e.circle.center.y == pytest.approx(0.0, abs=1e-12)
        assert e.circle.radius == pytest.approx(1.0)
        assert e.entry_point is None

    def test_concentric_chord_seed(self):
        e = seed_element(CONCENTRIC_S3, "s", -math.pi / 2.0)
        assert isinstance(e, ChordElement)
        ends = sorted([(e.chord.p1.x, e.chord.p1.y),
                       (e.chord.p2.x, e.chord.p2.y)])
        assert ends[0][0] == pytest.approx(-math.sqrt(3.0))
        assert ends[0][1] == pytest.approx(-1.0)
        assert ends[1][0] == pytest.approx(math.sqrt(3.0))

    def test_concentric_rotation_symmetry(self):
        delta = 0.9
        e0 = seed_element(CONCENTRIC_CS2, "c", 0.4)
        e1 = seed_element(CONCENTRIC_CS2, "c", 0.4 + delta)
        assert advance(e0, e1) == pytest.approx(delta)
        assert e1.circle.radius == pytest.approx(e0.circle.radius)

    def test_bad_letter(self):
        with pytest.raises(DomainError):
            seed_element(CONCENTRIC_CS2, "x", 0.0)


class TestSteps:
    """Single steps, read off the first two elements of two-letter runs."""

    def test_circle_to_circle_concentric_advance(self):
        # tangent inscribed neighbours: central angle 2*arcsin((R-r)/(R+r))
        run = run_chain(CONCENTRIC_CS2, Word("cc"),
                        seed_element(CONCENTRIC_CS2, "c", 0.0))
        e, nxt = run.elements[:2]
        assert advance(e, nxt) == pytest.approx(math.pi / 3.0)
        gap = nxt.circle.center.distance(e.circle.center) \
            - nxt.circle.radius - e.circle.radius
        assert gap == pytest.approx(0.0, abs=1e-12)

    def test_chord_to_chord_concentric_advance(self):
        # tangent-chord rotation 2*arccos(r/R); R = 2r gives 2*pi/3
        run = run_chain(CONCENTRIC_S3, Word("ss"),
                        seed_element(CONCENTRIC_S3, "s", -math.pi / 2.0))
        e, nxt = run.elements[:2]
        assert advance(e, nxt) == pytest.approx(2.0 * math.pi / 3.0)
        # common endpoint
        d = min(nxt.entry_point.distance(p)
                for p in (e.chord.p1, e.chord.p2))
        assert d == pytest.approx(0.0, abs=1e-12)

    def test_circle_to_chord_symmetric_exits(self):
        # the two tangents touch at +-arccos((r-rho)/(r+rho)) around the
        # circle's progress; R = 3r makes that angle pi/2
        e = seed_element(CONCENTRIC_CS2, "c", 0.0)
        plus = run_chain(CONCENTRIC_CS2, Word("cs"), e, orientation=1)
        minus = run_chain(CONCENTRIC_CS2, Word("cs"), e, orientation=-1)
        assert advance(e, plus.elements[1]) == pytest.approx(math.pi / 2.0)
        assert advance(minus.elements[1], e) == pytest.approx(math.pi / 2.0)

    def test_chord_to_circle_tangency(self):
        a = Annulus.canonical(1.0, 0.2, 0.5)
        run = run_chain(a, Word("sc"), seed_element(a, "s", 1.1))
        e, nxt = run.elements[:2]
        assert isinstance(nxt, CircleElement)
        assert abs(e.chord.line.signed_distance(nxt.circle.center)
                   - nxt.circle.radius) < 1e-9
        assert nxt.entry_point is not None
        assert abs(e.chord.line.signed_distance(nxt.entry_point)) < 1e-9

    def test_orientation_only_matters_at_seed(self):
        R, r, d = 1.0, 0.25, 0.3
        status, _, elems = kern.chain_run(R, r, d, "cs", 0.7, 1)
        assert status == kern.OK
        # once an entry point exists the successor is forced
        s1, m1 = kern.step_element(R, r, d, elems[1], "c", 1)
        s2, m2 = kern.step_element(R, r, d, elems[1], "c", -1)
        assert s1 == s2 == kern.OK
        assert m1 == m2


class TestRunChain:
    def test_cs2_closes_concentric(self):
        run = run_chain(CONCENTRIC_CS2, Word("cscs"),
                        seed_element(CONCENTRIC_CS2, "c", 0.3))
        assert run.closed
        assert abs(run.defect) < 1e-9
        assert len(run.elements) == 5
        assert [e.letter for e in run.elements] == list("cscsc")

    def test_cs3_closes_concentric(self):
        a = Annulus.canonical(7.0, 1.0, 0.0)
        run = run_chain(a, Word("cscscs"), seed_element(a, "c", 1.1))
        assert run.closed
        assert abs(run.defect) < 1e-9

    def test_cs2_open_off_ratio(self):
        a = Annulus.canonical(4.0, 1.0, 0.0)
        run = run_chain(a, Word("cscs"), seed_element(a, "c", 0.0))
        assert not run.closed
        assert abs(run.defect) > 0.1

    def test_seed_letter_mismatch(self):
        with pytest.raises(DomainError):
            run_chain(CONCENTRIC_CS2, Word("cscs"),
                      seed_element(CONCENTRIC_CS2, "s", 0.0))

    def test_seed_with_entry_point_rejected(self):
        seed = seed_element(CONCENTRIC_CS2, "c", 0.0)
        entered = CircleElement(seed.circle, seed.omega_contact,
                                entry_point=Point(3.0, 0.0))
        with pytest.raises(DomainError):
            run_chain(CONCENTRIC_CS2, Word("cscs"), entered)

    def test_entry_points_chain_through(self):
        run = run_chain(CONCENTRIC_CS2, Word("cscs"),
                        seed_element(CONCENTRIC_CS2, "c", 0.0))
        assert run.elements[0].entry_point is None
        assert all(e.entry_point is not None for e in run.elements[1:])

    def test_chord_tangency_between_endpoints(self):
        a = Annulus.canonical(1.0, 0.22, 0.41)
        run = run_chain(a, Word("cscs"), seed_element(a, "c", 2.0))
        for e in run.elements:
            if isinstance(e, ChordElement):
                e.chord.validate(a)


class TestMonodromy:
    def test_cs2_concentric_zero_everywhere(self):
        for theta in (0.0, 0.7, 2.1):
            assert abs(monodromy_defect(CONCENTRIC_CS2, Word("cscs"),
                                        theta)) < 1e-9

    def test_s3_poncelet_triangle(self):
        for theta in (0.0, 1.0, 2.5):
            assert abs(monodromy_defect(CONCENTRIC_S3, Word("sss"),
                                        theta)) < 1e-9

    def test_c6_hexagonal_ring(self):
        for theta in (0.0, 0.9, 3.3):
            assert abs(monodromy_defect(CONCENTRIC_CS2, Word("cccccc"),
                                        theta)) < 1e-9

    def test_c3_ring_ratio(self):
        # sin(pi/3) = (R - r)/(R + r) gives r/R = 7 - 4*sqrt(3)
        a = Annulus.canonical(1.0, 7.0 - 4.0 * math.sqrt(3.0), 0.0)
        for theta in (0.0, 1.4):
            assert abs(monodromy_defect(a, Word("ccc"), theta)) < 1e-9

    def test_cs4_certified_ratio(self):
        a = Annulus.canonical(7.0 + 4.0 * math.sqrt(2.0), 1.0, 0.0)
        for theta in (0.0, 0.8):
            assert abs(monodromy_defect(a, Word("cscscscs"), theta)) < 1e-9

    def test_s4_fuss_locus(self):
        # (R^2 - d^2)^2 = 2 r^2 (R^2 + d^2)
        d = 0.2
        r = math.sqrt((1.0 - d * d) ** 2 / (2.0 * (1.0 + d * d)))
        a = Annulus.canonical(1.0, r, d)
        for theta in (0.0, 0.9, 2.2, 4.8):
            assert abs(monodromy_defect(a, Word("ssss"), theta)) < 1e-9

    def test_s3_euler_locus(self):
        # d^2 = R (R - 2 r)
        r = 0.3
        a = Annulus.canonical(1.0, r, math.sqrt(1.0 - 2.0 * r))
        for theta in (0.0, 1.3, 3.1):
            assert abs(monodromy_defect(a, Word("sss"), theta)) < 1e-9

    def test_cs2_mixed_locus_porism(self):
        # d^2 = (R - r)^2 - 4 r^2 at r = 0.2
        a = Annulus.canonical(1.0, 0.2, math.sqrt(0.48))
        for i in range(16):
            theta = TWO_PI * i / 16.0
            assert abs(monodromy_defect(a, Word("cscs"), theta)) < 1e-9

    def test_concentric_defect_theta_invariant(self):
        # rotation symmetry holds whether or not the chain closes
        a = Annulus.canonical(1.0, 0.23, 0.0)
        for word in ("cscs", "sss", "ccss"):
            base = monodromy_defect(a, Word(word), 0.0)
            for theta in (0.5, 1.7, 4.1):
                assert monodromy_defect(a, Word(word),
                                        theta) == pytest.approx(
                                            base, abs=1e-10)

    def test_off_locus_defect_bounded_away(self):
        a = Annulus.canonical(1.0, 0.2, 0.5)
        assert abs(monodromy_defect(a, Word("cscs"), 0.3)) > 1e-3


class TestClosureVerdicts:
    def test_locus_point_closed_everywhere(self):
        a = Annulus.canonical(1.0, 0.2, math.sqrt(0.48))
        assert is_closure_config(a, Word("cscs"), 64) == "closed-everywhere"

    def test_off_locus_closed_nowhere(self):
        a = Annulus.canonical(1.0, 0.2, 0.5)
        assert is_closure_config(a, Word("cscs"), 64) == "closed-nowhere"

    def test_vacuous_tolerance(self):
        a = Annulus.canonical(1.0, 0.2, 0.5)
        assert is_closure_config(a, Word("cscs"), 64,
                                 tol=math.pi) == "closed-everywhere"

    def test_sweep_counts_dead_seeds(self):
        # inner circle 1e-7 from the outer one: one of 8 ccs seeds dies
        dead = Annulus.canonical(1.0, 0.5, 0.4999999)
        sweep = closure_sweep(dead, Word("ccs"), 8)
        assert sweep.dead == 1
        assert sweep.verdict == "closed-nowhere"
        assert closure_sweep(CONCENTRIC_CS2, Word("cscs"), 8).dead == 0

    def test_grid_size_guard(self):
        with pytest.raises(DomainError):
            is_closure_config(CONCENTRIC_CS2, Word("cscs"), 4)

    @pytest.mark.parametrize("word,annulus", [
        ("cscs", Annulus.canonical(3.0, 1.0, 0.0)),
        ("cscscs", Annulus.canonical(7.0, 1.0, 0.0)),
        ("sss", Annulus.canonical(2.0, 1.0, 0.0)),
        ("ccc", Annulus.canonical(1.0, 7.0 - 4.0 * math.sqrt(3.0), 0.0)),
        ("cccccc", Annulus.canonical(3.0, 1.0, 0.0)),
    ])
    def test_all_or_nothing_with_percent_perturbation(self, word, annulus):
        assert is_closure_config(annulus, Word(word), 32,
                                 tol=1e-8) == "closed-everywhere"
        bumped = Annulus.canonical(annulus.R * 1.01, annulus.r, annulus.d)
        assert is_closure_config(bumped, Word(word), 32,
                                 tol=1e-8) == "closed-nowhere"

    def test_s4_all_or_nothing(self):
        d = 0.2
        r = math.sqrt((1.0 - d * d) ** 2 / (2.0 * (1.0 + d * d)))
        a = Annulus.canonical(1.0, r, d)
        assert is_closure_config(a, Word("ssss"), 32,
                                 tol=1e-8) == "closed-everywhere"
        bumped = Annulus.canonical(1.01, r, d)
        assert is_closure_config(bumped, Word("ssss"), 32,
                                 tol=1e-8) == "closed-nowhere"


class TestReversibility:
    @pytest.mark.parametrize("letters,r,d,theta", [
        ("cscs", 0.2, 0.5, 0.4),
        ("ccss", 0.15, 0.3, 1.2),
        ("cccs", 0.25, 0.2, 5.0),
        ("sss", 0.3, 0.25, 2.3),
    ])
    def test_reverse_run_returns_to_seed(self, letters, r, d, theta):
        a = Annulus.canonical(1.0, r, d)
        w = Word(letters)
        fwd = run_chain(a, w, seed_element(a, w.letter(0), theta))
        back_word = Word(letters[0] + letters[:0:-1])
        back_seed = seed_element(a, fwd.elements[-1].letter,
                                 fwd.elements[-1].omega_contact)
        back = run_chain(a, back_word, back_seed, orientation=-1)
        gap = math.remainder(back.elements[-1].omega_contact
                             - fwd.elements[0].omega_contact, TWO_PI)
        assert abs(gap) < 1e-8


class TestErrors:
    def test_dead_end_carries_partial_chain(self):
        # inner circle 1e-7 from the outer one: the chord after the second
        # (tiny) circle cannot satisfy the separation condition
        a = Annulus.canonical(1.0, 0.5, 0.4999999)
        with pytest.raises(DeadEndError) as info:
            run_chain(a, Word("ccs"), seed_element(a, "c", 0.0))
        assert info.value.index == 2
        assert len(info.value.elements) == 2
        # the defect alone carries no partial chain
        with pytest.raises(DeadEndError) as info:
            monodromy_defect(a, Word("ccs"), 0.0)
        assert info.value.index is None
        assert info.value.elements == []

    def test_tie_on_contact_at_divider(self):
        # entry placed exactly at the circle's outer-tangency point (3, 0)
        # makes the separation test degenerate
        seed = kern.seed_element(3.0, 1.0, 0.0, "c", 0.0)
        rigged = seed[:5] + (3.0, 0.0, 1)
        assert kern.step_element(3.0, 1.0, 0.0, rigged, "s") == \
            (kern.TIE, None)

    def test_chain_error_is_value_error(self):
        assert issubclass(ChainError, ValueError)
        assert issubclass(DeadEndError, ChainError)
        assert issubclass(TieError, ChainError)


class TestFrameEquivariance:
    def test_defect_matches_canonical_frame(self):
        beta = 0.7
        d = math.sqrt(0.48)
        canonical = Annulus.canonical(1.0, 0.2, d)
        world = world_annulus(0.2, d, beta)
        for theta in (0.2, 1.5, 4.0):
            d1 = monodromy_defect(canonical, Word("cscs"), theta)
            d2 = monodromy_defect(world, Word("cscs"), theta + beta)
            assert d1 == pytest.approx(d2, abs=1e-12)


class TestOneChainLoop:
    @pytest.mark.parametrize("letters", ["cscs", "ccs", "sss", "cccs", "scsc"])
    def test_run_defect_is_the_monodromy_defect(self, letters):
        # run_chain and monodromy_defect share the kernel loop, so their
        # defects agree exactly in every frame
        w = Word(letters)
        for beta in (0.3, 0.7, 2.0, -1.1, 3.0):
            for d in (0.0, 0.1, 0.3, 0.55):
                a = world_annulus(0.2, d, beta)
                for theta in (0.0, 1.3, 2.6, 4.0, 5.5):
                    seed = seed_element(a, w.letter(0), theta)
                    run = run_chain(a, w, seed)
                    assert run.defect == monodromy_defect(
                        a, w, seed.omega_contact)


class TestPoncletReduction:
    def test_center_chords_tangent_to_fitted_envelope(self):
        # the c-centers of a cscs chain ride the focal ellipse while the
        # lines through consecutive centers stay tangent to one envelope
        a = Annulus.canonical(1.0, 0.2, math.sqrt(0.48))
        fe = centers_ellipse(a)
        fit = fit_dual_conic([
            chord_through_centers(a, chord_at(a, TWO_PI * i / 12.0
                                              + 0.03).line)
            for i in range(12)])
        for theta in (0.1, 0.9, 2.0, 3.4, 5.0):
            run = run_chain(a, Word("cscs"), seed_element(a, "c", theta))
            circles = [e for e in run.elements
                       if isinstance(e, CircleElement)]
            for e in circles:
                s = (e.circle.center.distance(fe.focus1)
                     + e.circle.center.distance(fe.focus2))
                assert s == pytest.approx(fe.sum, abs=1e-9)
            for e_prev, e_next in zip(circles, circles[1:]):
                p, q = e_prev.circle.center, e_next.circle.center
                from closurelab.geometry import Line
                chord = Line.from_normal(-(q.y - p.y), q.x - p.x,
                                         -(q.y - p.y) * p.x
                                         + (q.x - p.x) * p.y)
                assert abs(fit.dual.residual(chord)) < 1e-7
