"""Tests for the per-statement numeric verification suites."""

import math

import pytest

from closurelab.chains import Word
from closurelab.errors import DegeneracyError, DomainError
from closurelab.geometry import Annulus, theorem2_frame
from closurelab.verification import (
    center_chord_family,
    chain_center_sides,
    fitted_gamma,
    frame_ratio,
    verify_sangaku,
    verify_t1,
    verify_t2,
    verify_t3,
    verify_t4,
    verify_t5,
    verify_t6,
)


def locus_annulus(r):
    """Corollary-locus annulus with R = 1 and the given inner radius."""
    return Annulus.canonical(1.0, r, math.sqrt((1.0 - r) ** 2 - 4 * r * r))

CONCENTRIC_PAIR = Annulus.canonical(3.0, 1.0, 0.0)
GENERIC = Annulus.canonical(1.0, 0.25, 0.3)


class TestVerifyT1:
    def test_concentric_locus_verifies(self):
        rep = verify_t1(CONCENTRIC_PAIR)
        assert rep.verified is True
        assert rep.exit_code == 0
        assert rep.checks["corollary_residual"]["value"] == 0.0
        assert rep.checks["chain_defect"]["value"] < 1e-10
        assert rep.checks["chain_defect"]["tolerance"] == 1e-8
        assert rep.flags["radii_product_iff_criterion"] is True

    def test_eccentric_locus_verifies(self):
        rep = verify_t1(locus_annulus(0.2), scalar_samples=100)
        assert rep.verified is True

    def test_off_locus_falsifies_with_raw_residual(self):
        rep = verify_t1(Annulus.canonical(3.0, 1.0, 0.5))
        assert rep.verified is False
        assert rep.exit_code == 1
        assert rep.checks["corollary_residual"]["value"] == \
            pytest.approx(0.25)
        assert rep.checks["chain_defect"]["passed"] is False

    def test_dead_seed_makes_the_chain_defect_inf(self):
        # inner circle 1e-7 from the outer one: one of 8 cscs seeds dies
        dead = Annulus.canonical(1.0, 0.5, 0.4999999)
        rep = verify_t1(dead, seeds=8, scalar_samples=10)
        assert rep.checks["chain_defect"]["value"] == math.inf
        assert rep.checks["chain_defect"]["passed"] is False

    def test_needs_eight_seeds(self):
        for seeds in (0, -5, 7):
            with pytest.raises(DomainError):
                verify_t1(GENERIC, seeds=seeds, scalar_samples=10)

    def test_product_law_scale_invariance(self):
        rep = verify_t1(Annulus.canonical(30.0, 10.0, 0.0),
                        scalar_samples=100)
        assert rep.checks["radii_product_on_criterion"]["passed"] is True


class TestVerifyT2:
    def test_frame_ratio_round_trip(self):
        assert frame_ratio(Annulus.canonical(3.5, 1.0, 1.5)) == \
            pytest.approx(2.0)
        for ratio in (1.5, 1.7, 3.0):
            assert frame_ratio(theorem2_frame(ratio)) == \
                pytest.approx(ratio)

    def test_non_frame_annulus_rejected(self):
        with pytest.raises(DegeneracyError):
            frame_ratio(Annulus.canonical(3.5, 1.0, 0.7))

    def test_frame_suite_verifies(self):
        for ratio in (1.5, 2.0, 3.0):
            rep = verify_t2(ratio)
            assert rep.verified is True
            assert rep.checks["meeting_points_collinear"]["passed"]
            assert rep.checks["radius_abscissa_ratio"]["value"] < 1e-10
            assert rep.flags["parallel_limits_on_line"] is True
            assert rep.details["meeting_points"] + \
                rep.details["parallel_pairs"] == 50

    def test_abscissa_ratio_constant(self):
        rep = verify_t2(2.0)
        assert rep.details["abscissa_ratio"] == pytest.approx(1.0 / 3.0)


class TestCenterChords:
    def test_sides_lie_on_the_centers_ellipse(self):
        sides, worst = chain_center_sides(GENERIC, Word("cscs"), seeds=12)
        assert worst < 1e-12
        # three circle elements per run give two sides each
        assert len(sides) == 24

    def test_non_alternating_word_rejected(self):
        with pytest.raises(DomainError):
            chain_center_sides(GENERIC, Word("ccs"), seeds=4)
        with pytest.raises(DomainError):
            chain_center_sides(GENERIC, Word("cc"), seeds=4)

    def test_family_lines_touch_the_fit(self):
        chords = center_chord_family(GENERIC, 12)
        assert len(chords) == 12
        gamma = fitted_gamma(GENERIC)
        assert gamma is not None

    def test_fitted_gamma_degenerates_on_the_locus(self):
        assert fitted_gamma(locus_annulus(0.2)) is None


class TestVerifyT3T4T5:
    ANNULI = [Annulus.canonical(1.0, 0.25, 0.3),
              Annulus.canonical(3.0, 1.0, 0.7),
              Annulus.canonical(2.0, 0.5, 0.9)]

    def test_reduction_verifies_on_generic_annuli(self):
        for a in self.ANNULI:
            rep = verify_t3(a)
            assert rep.verified is True
            assert rep.checks["centers_on_ellipse"]["tolerance"] == \
                pytest.approx(1e-9 * a.R)
            assert rep.checks["center_sides_tangent"]["tolerance"] == 1e-7
            assert rep.details["envelope_rank"] == 3

    def test_reduction_verifies_for_longer_pair_words(self):
        rep = verify_t3(GENERIC, Word("cscscs"), seeds=12)
        assert rep.verified is True
        assert rep.details["sides"] == 36

    def test_reduction_needs_eccentricity(self):
        with pytest.raises(DegeneracyError):
            verify_t3(CONCENTRIC_PAIR)

    def test_holdout_verifies_on_generic_annuli(self):
        for a in self.ANNULI:
            rep = verify_t4(a)
            assert rep.verified is True
            assert rep.details["envelope_rank"] == 3
            assert rep.checks["holdout_tangency"]["tolerance"] == 1e-7

    def test_concentric_family_is_a_point_envelope_at_center(self):
        rep = verify_t4(CONCENTRIC_PAIR)
        assert rep.verified is True
        assert rep.flags["degenerate_envelope_rank2"] is True
        assert rep.checks["envelope_at_center"]["value"] < 1e-12
        assert rep.checks["envelope_at_center"]["tolerance"] == \
            pytest.approx(1e-9 * 3.0)

    def test_concentric_envelope_is_a_circle_off_r_equals_three(self):
        # at d = 0 the envelope is the circle of radius |R - 3r|/2, so the
        # point-envelope checks apply only at R = 3r
        rep = verify_t4(Annulus.canonical(1.0, 0.25, 0.0))
        assert rep.verified is True
        assert rep.details["envelope_rank"] == 3
        assert "envelope_at_center" not in rep.checks
        assert "degenerate_envelope_rank2" not in rep.flags

    def test_locus_family_is_concurrent_at_inner_center(self):
        # closed pair chains send every center chord through I
        rep = verify_t4(locus_annulus(0.2))
        assert rep.verified is True
        assert rep.details["envelope_rank"] == 2

    def test_focus_matches_inner_center(self):
        for a in self.ANNULI:
            rep = verify_t5(a)
            assert rep.verified is True
            assert rep.checks["focus_matches_inner_center"]["value"] < \
                1e-12 * a.R
            assert rep.checks["focus_directrix_residual"]["passed"] is True

    def test_gamma_confocal_eccentricity(self):
        for a in self.ANNULI:
            rep = verify_t5(a)
            assert rep.details["eccentricity"] == \
                pytest.approx(a.d / (a.R + a.r), rel=1e-9)

    def test_focal_statement_needs_a_conic(self):
        with pytest.raises(DegeneracyError):
            verify_t5(CONCENTRIC_PAIR)
        with pytest.raises(DegeneracyError):
            verify_t5(locus_annulus(0.2))


class TestVerifyT6:
    def test_tracking_verifies(self):
        rep = verify_t6()
        assert rep.verified is True
        assert rep.details["steps_completed"] == 50
        assert rep.checks["pass_through_residual"]["value"] < 1e-10
        assert rep.flags["rotation_tracked_every_step"] is True

    def test_steps_stay_within_the_cap(self):
        rep = verify_t6(steps=20, step_cap=0.005, rng_seed=3)
        assert rep.verified is True
        assert rep.details["largest_phase_step"] <= 0.005 + 1e-9

    def test_other_eccentricities(self):
        rep = verify_t6(eccentricities=(0.15, 0.4, 0.3), steps=10)
        assert rep.verified is True


class TestVerifySangaku:
    def test_concentric_locus_product(self):
        rep = verify_sangaku(CONCENTRIC_PAIR)
        assert rep.verified is True
        assert rep.checks["segment_radii_product"]["value"] < 1e-12
        assert rep.flags["pair_chains_closed"] is True

    def test_eccentric_locus_product(self):
        for r in (0.1, 0.2, 0.3):
            rep = verify_sangaku(locus_annulus(r))
            assert rep.verified is True

    def test_off_locus_rejected(self):
        with pytest.raises(DegeneracyError):
            verify_sangaku(Annulus.canonical(3.0, 1.0, 0.5))
