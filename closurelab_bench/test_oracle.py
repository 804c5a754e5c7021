"""The oracle at textbook points.

Run with: python3 -m pytest closurelab_bench
"""

import math

import pytest

import oracle

SQRT2 = math.sqrt(2.0)


@pytest.mark.parametrize("word, ratio", [
    ("cscs", 3.0),                     # pair porism, winding 1
    ("cscscscs", 7.0 + 4.0 * SQRT2),   # (cs)^4, winding 3
    ("cccccc", 3.0),                   # Steiner hexlet
    ("sss", 2.0),                      # equilateral triangle, R = 2r
    ("ssss", SQRT2),                   # square, R = sqrt(2) r
])
def test_textbook_concentric_closures(word, ratio):
    assert abs(oracle.concentric_defect(word, ratio, 1.0)) < 1e-12


def test_step_rotations_at_ratio_three():
    # R = 3r: the Steiner step is pi/3 and the pair step a quarter turn.
    assert oracle.step_rotation("cc", 3.0, 1.0) == pytest.approx(math.pi / 3)
    assert oracle.step_rotation("cs", 3.0, 1.0) == pytest.approx(math.pi / 2)
    assert oracle.step_rotation("sc", 3.0, 1.0) == pytest.approx(math.pi / 2)
    assert oracle.step_rotation("ss", 3.0, 1.0) == \
        pytest.approx(2.0 * math.acos(1.0 / 3.0))


def test_defect_is_wrapped_and_off_locus_nonzero():
    d = oracle.concentric_defect("cscs", 2.5, 1.0)
    assert -math.pi < d <= math.pi
    assert abs(d) > 1e-3
    assert oracle.wrap_pi(-math.pi) == math.pi


@pytest.mark.parametrize("word, ratio", [
    ("cscs", 3.0), ("cccccc", 3.0), ("sss", 2.0), ("ssss", SQRT2)])
def test_loci_pass_through_textbook_points(word, ratio):
    g, _ = oracle.classical_locus(word)
    assert abs(g(ratio, 1.0, 0.0)) < 1e-12
    assert oracle.locus_distance(word, ratio, 1.0, 0.0) < 1e-12


@pytest.mark.parametrize("word", ["ccc", "cccc", "sss", "ssss", "cscs"])
def test_locus_and_defect_agree_on_the_concentric_line(word):
    # Bisect g(1, r, 0) for its root in (0, 1); the concentric chain of
    # the word must close there.
    g, _ = oracle.classical_locus(word)
    lo, hi = 1e-9, 1.0 - 1e-9
    if (g(1.0, lo, 0.0) < 0.0) == (g(1.0, hi, 0.0) < 0.0):
        lo, hi = 1e-9, 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (g(1.0, lo, 0.0) < 0.0) == (g(1.0, mid, 0.0) < 0.0):
            lo = mid
        else:
            hi = mid
    assert abs(oracle.concentric_defect(word, 1.0, 0.5 * (lo + hi))) < 1e-9


def test_locus_distance_is_first_order():
    # A point moved by h along d from the pair locus sits about h away.
    R, r = 1.0, 0.2
    d = oracle.pair_locus_d(R, r)
    assert oracle.locus_distance("cscs", R, r, d) < 1e-15
    h = 1e-6
    assert oracle.locus_distance("cscs", R, r, d + h) == \
        pytest.approx(h * 2.0 * d / math.hypot(2.0 * (R - r) + 8.0 * r,
                                               2.0 * d), rel=1e-4)


@pytest.mark.parametrize("a", [1.5, 2.0, 3.0])
def test_aligned_frame_is_on_the_pair_locus(a):
    R, r, d = oracle.aligned_frame(a)
    assert oracle.locus_distance("cscs", R, r, d) < 1e-12 * R


def test_envelope_eccentricity():
    assert oracle.envelope_eccentricity(1.0, 0.25, 0.3) == pytest.approx(0.24)
    assert oracle.envelope_eccentricity(3.0, 1.0, 0.0) == 0.0


def test_word_families():
    assert oracle.necklaces(4) == ["ccc", "ccs", "css", "sss", "cccc",
                                   "cccs", "ccss", "cscs", "csss", "ssss"]
    certified = [w for w in oracle.necklaces(4) if oracle.is_power_family(w)]
    assert certified == ["ccc", "sss", "cccc", "cscs", "ssss"]
    assert oracle.classical_locus("ccs") is None
