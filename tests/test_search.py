"""Parameter-space search: scans, loci, certification, enumeration, fits."""

import csv
import io
import math
import warnings
from functools import lru_cache
from math import gcd

import numpy as np
import pytest

from closurelab import _kernels as kern
from closurelab.chains import CLOSED_EVERYWHERE, Word, is_closure_config, \
    monodromy_defect
from closurelab.cli import main
from closurelab.errors import DomainError
from closurelab.geometry import Annulus, euler_like_residual
from closurelab.search import (
    CELL_DEAD,
    CELL_INVALID,
    CELL_OK,
    DefectGrid,
    ZeroLocus,
    _bisect_edge,
    certify_closure_sequence,
    enumerate_words,
    fit_relation,
    scan_defect,
    trace_zero_locus,
)

STEINER3_ECC = 7.0 - 4.0 * math.sqrt(3.0)


@lru_cache(maxsize=None)
def grid(letters: str, n: int = 64) -> DefectGrid:
    return scan_defect(Word(letters), n, n)


@lru_cache(maxsize=None)
def locus(letters: str, n: int = 64) -> ZeroLocus:
    return trace_zero_locus(Word(letters), grid(letters, n))


class TestDefectGrid:
    def test_axes_monotone_and_in_range(self):
        g = grid("cscs")
        assert all(b > a for a, b in zip(g.r_values, g.r_values[1:]))
        assert all(b > a for a, b in zip(g.d_values, g.d_values[1:]))
        assert 0.0 < g.r_values[0] and g.r_values[-1] < 1.0
        assert g.d_values[0] == 0.0 and g.d_values[-1] < 1.0
        assert g.shape == (64, 64)

    def test_invalid_cells_are_exactly_the_annulus_violations(self):
        g = grid("cscs")
        expected = np.array([[d + r >= 1.0 for d in g.d_values]
                             for r in g.r_values])
        assert np.array_equal(g.status == CELL_INVALID, expected)

    def test_markers_are_never_numeric(self):
        g = grid("ccc")
        assert np.all(np.isfinite(g.defect[g.status == CELL_OK]))
        assert np.all(np.isnan(g.defect[g.status != CELL_OK]))

    def test_too_coarse_grid_rejected(self):
        with pytest.raises(DomainError):
            scan_defect(Word("cscs"), 8, 64)
        with pytest.raises(DomainError):
            scan_defect(Word("cscs"), 64, 15)

    def test_mismatched_arrays_rejected(self):
        g = grid("cscs", 16)
        with pytest.raises(DomainError):
            DefectGrid(g.word, g.r_values, g.d_values[:-1], g.defect,
                       g.status)

    def test_non_monotone_axis_rejected(self):
        g = grid("cscs", 16)
        backwards = tuple(reversed(g.r_values))
        with pytest.raises(DomainError):
            DefectGrid(g.word, backwards, g.d_values, g.defect, g.status)


class TestScanOracles:
    def test_steiner_triple_zero_on_concentric_row(self):
        # the d = 0 row changes sign next to the n = 3 closure radius
        g = grid("ccc")
        row = g.defect[:, 0]
        crossings = [i for i in range(63)
                     if g.status[i, 0] == CELL_OK
                     and g.status[i + 1, 0] == CELL_OK
                     and row[i] * row[i + 1] < 0.0
                     and abs(row[i] - row[i + 1]) < math.pi]
        assert [i for i in crossings
                if g.r_values[i] < STEINER3_ECC < g.r_values[i + 1]]

    def test_pure_circle_words_complete_on_every_cell(self):
        # thin annuli included: every circle step has both neighbours
        for letters in ("ccc", "cccc"):
            g = grid(letters)
            assert not np.any(g.status == CELL_DEAD)
            assert np.all(np.isfinite(g.defect[g.status == CELL_OK]))

    def test_mixed_word_sign_change_brackets_concentric_closure(self):
        g = grid("cscs")
        row = g.defect[:, 0]
        crossings = [i for i in range(63)
                     if g.status[i, 0] == CELL_OK
                     and g.status[i + 1, 0] == CELL_OK
                     and row[i] * row[i + 1] < 0.0
                     and abs(row[i] - row[i + 1]) < math.pi]
        assert any(g.r_values[i] < 1.0 / 3.0 < g.r_values[i + 1]
                   for i in crossings)


def grid_by_cells(w: Word, nr: int, nd: int, rows: bool) -> DefectGrid:
    """scan_defect's grid from one kernel call per row, or per cell."""
    g = scan_defect(w, nr, nd)
    defect = np.full(g.shape, math.nan)
    status = np.full(g.shape, CELL_INVALID, dtype=np.int8)
    for i, r in enumerate(g.r_values):
        cols = [j for j, d in enumerate(g.d_values) if d + r < 1.0]
        if rows:
            batches = [cols]
        else:
            batches = [[j] for j in cols]
        for batch in batches:
            code, cells = kern.chain_defect_many(
                1.0, r, [g.d_values[j] for j in batch], w.letters, 0.0)
            for j, c, v in zip(batch, code, cells):
                status[i, j] = CELL_OK if c == kern.OK else CELL_DEAD
                defect[i, j] = v if c == kern.OK else math.nan
    return DefectGrid(w, g.r_values, g.d_values, defect, status)


class TestScanDeterminism:
    def test_grids_identical_across_batch_sizes(self, monkeypatch):
        for letters in ("cscs", "ccs"):
            g = scan_defect(Word(letters), 32, 32)
            assert grid_by_cells(Word(letters), 32, 32, rows=True) == g
            assert grid_by_cells(Word(letters), 32, 32, rows=False) == g
            # kernel passes of 37 lanes, which cut rows in the middle
            with monkeypatch.context() as m:
                m.setattr(kern, "_LANES", 37)
                assert scan_defect(Word(letters), 32, 32) == g

    def test_csv_bytes_identical_across_batch_sizes(self):
        bufs = []
        for g in (scan_defect(Word("ccc"), 24, 24),
                  grid_by_cells(Word("ccc"), 24, 24, rows=True),
                  grid_by_cells(Word("ccc"), 24, 24, rows=False)):
            bufs.append(io.StringIO())
            g.write_csv(bufs[-1])
        assert bufs[0].getvalue() == bufs[1].getvalue() == bufs[2].getvalue()


class TestFloatingPointWarnings:
    """Lanes that die or are not annuli compute on meaningless values;
    none of that may surface as a RuntimeWarning."""

    def test_scan_with_dead_and_invalid_cells(self):
        # the cell r = 232/241, d = 14/375 is 1/90375 from the outer
        # circle, close enough for its cscs chain to dead-end
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = scan_defect(Word("cscs"), 240, 375)
        assert np.any(g.status == CELL_DEAD)
        assert np.any(g.status == CELL_INVALID)

    def test_certify_with_dead_seeds(self):
        points = ((0.5, 0.4999999), (0.2, 0.3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = certify_closure_sequence(
                Word("ccs"), ZeroLocus(Word("ccs"), points, (0,)), thetas=8)
        assert not rep.certified
        assert rep.counterexamples[0].r == 0.5

    def test_search_command(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["search", "--max-len", "4", "--nr", "16",
                         "--nd", "16", "--thetas", "8"])
        assert code == 0
        assert '"certified"' in capsys.readouterr().out


class TestCsvRoundTrip:
    def test_round_trip_is_exact_with_dead_and_invalid_cells(self, tmp_path):
        # scans of the shipped grid sizes complete every annulus cell, so
        # the dead cells are marked by hand
        scanned = scan_defect(Word("ccc"), 32, 32)
        status = scanned.status.copy()
        defect = scanned.defect.copy()
        status[[0, 5, 20], [3, 0, 7]] = CELL_DEAD
        defect[status == CELL_DEAD] = math.nan
        g = DefectGrid(scanned.word, scanned.r_values, scanned.d_values,
                       defect, status)
        assert int(np.sum(g.status == CELL_INVALID)) > 0
        path = tmp_path / "scan.csv"
        g.to_csv(path)
        assert DefectGrid.from_csv(path, Word("ccc")) == g

    def test_header_and_marker_token(self, tmp_path):
        g = scan_defect(Word("ccc"), 16, 16)
        path = tmp_path / "scan.csv"
        g.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "r,d,defect"
        assert len(lines) == 1 + 16 * 16
        assert any(line.endswith(",DEAD") for line in lines[1:])

    def test_bytes_match_the_csv_module(self):
        g = scan_defect(Word("cscs"), 16, 20)
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(["r", "d", "defect"])
        for i, r in enumerate(g.r_values):
            for j, d in enumerate(g.d_values):
                cell = (repr(float(g.defect[i, j]))
                        if g.status[i, j] == CELL_OK else "DEAD")
                writer.writerow([repr(r), repr(d), cell])
        got = io.StringIO()
        g.write_csv(got)
        assert got.getvalue() == want.getvalue()

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,z\n1,2,3\n")
        with pytest.raises(DomainError):
            DefectGrid.from_csv(path, Word("cscs"))


class TestTraceZeroLocus:
    def test_mixed_pair_locus_matches_the_closure_relation(self):
        pts = locus("cscs").points
        assert len(pts) > 40
        assert max(abs(euler_like_residual(1.0, r, d)) for r, d in pts) < 1e-5

    def test_sample_point_on_the_closure_relation(self):
        best = min(locus("cscs").points, key=lambda p: abs(p[0] - 0.2))
        assert abs(best[0] - 0.2) < 1e-12
        assert abs(best[1] - 0.692820323027551) < 1e-6

    def test_points_are_zeros_of_the_defect(self):
        for r, d in locus("cscs").points[::15]:
            a = Annulus.canonical(1.0, r, d)
            assert abs(monodromy_defect(a, Word("cscs"), 0.0)) < 1e-10

    def test_consecutive_points_within_one_cell(self):
        g, loc = grid("cscs"), locus("cscs")
        diag = math.hypot(g.r_values[1] - g.r_values[0],
                          g.d_values[1] - g.d_values[0])
        for comp in loc.components():
            for (r1, d1), (r2, d2) in zip(comp, comp[1:]):
                assert math.hypot(r2 - r1, d2 - d1) < 1.5 * diag

    def test_mixed_pair_concentric_endpoint(self):
        hits = [r for r, d in locus("cscs").points if d == 0.0]
        assert hits and min(abs(r - 1.0 / 3.0) for r in hits) < 1e-6

    def test_mixed_triple_concentric_closure(self):
        hits = [r for r, d in locus("cscscs").points if d == 0.0]
        assert hits and min(abs(r - 1.0 / 7.0) for r in hits) < 1e-6

    def test_chord_triple_contains_equilateral_point(self):
        best = min(locus("sss").points,
                   key=lambda p: math.hypot(p[0] - 0.5, p[1]))
        assert math.hypot(best[0] - 0.5, best[1]) < 1e-6

    def test_no_sign_change_gives_empty_locus(self):
        # a single mixed pair advances by less than a full turn everywhere
        loc = trace_zero_locus(Word("cs"), scan_defect(Word("cs"), 16, 16))
        assert loc.points == ()
        assert loc.component_offsets == ()

    def test_word_grid_mismatch_rejected(self):
        with pytest.raises(DomainError):
            trace_zero_locus(Word("sss"), grid("cscs", 16))

    def test_edge_across_a_jump_gives_up_at_adjacent_floats(self,
                                                             monkeypatch):
        # at d near 1 one ulp of d is 1.1e-16, so the refined ends of this
        # ccc edge meet at adjacent floats without |defect| falling below
        # LOCUS_TOL; they stop there instead of running out the cap
        p1, p2 = (0.04, 0.9166666666666666), (0.04, 0.9583333333333334)
        f1 = kern.chain_defect(1.0, *p1, "ccc", 0.0)[1]
        f2 = kern.chain_defect(1.0, *p2, "ccc", 0.0)[1]
        assert f1 < 0.0 < f2 and f2 - f1 < math.pi
        calls = []

        def counted(*args, chain_defect=kern.chain_defect):
            calls.append(args)
            return chain_defect(*args)

        monkeypatch.setattr(kern, "chain_defect", counted)
        assert _bisect_edge("ccc", p1, f1, p2, f2) is None
        assert len(calls) <= 64

    def test_refinement_moves_points_less_than_a_coarse_cell(self):
        coarse, fine = locus("cscs", 32), locus("cscs", 64)
        diag = math.hypot(1.0 / 33.0, 1.0 / 32.0)
        for r1, d1 in coarse.points:
            assert min(math.hypot(r1 - r2, d1 - d2)
                       for r2, d2 in fine.points) < diag


class TestCertification:
    def test_mixed_pair_certified_on_its_locus(self):
        rep = certify_closure_sequence(Word("cscs"), locus("cscs"), thetas=16)
        assert rep.certified
        assert set(rep.verdicts) == {CLOSED_EVERYWHERE}
        assert rep.counterexamples == ()
        assert all(rep.locus.certified)

    def test_pure_words_certified(self):
        for letters in ("sss", "ccc", "ssss"):
            rep = certify_closure_sequence(Word(letters), locus(letters),
                                           thetas=16)
            assert rep.certified, letters

    def test_symmetry_only_locus_is_rejected_with_counterexamples(self):
        # ccs vanishes at theta = 0 on a curve by mirror symmetry alone
        rep = certify_closure_sequence(Word("ccs"), locus("ccs", 48),
                                       thetas=16)
        assert not rep.certified
        assert rep.counterexamples
        for cex in rep.counterexamples:
            assert cex.verdict != CLOSED_EVERYWHERE
            assert cex.theta is not None
            assert cex.defect is None or cex.defect > 1e-8

    def test_counterexample_is_the_worst_seed(self):
        rep = certify_closure_sequence(Word("ccs"), locus("ccs", 48),
                                       thetas=16)
        for cex in rep.counterexamples[:5]:
            # one kernel call per seed; TestLockstepParity ties the
            # kernel to the scalar one
            gaps = [abs(float(kern.chain_defect_many(
                        1.0, cex.r, cex.d, "ccs", 2.0 * math.pi * i / 16)[1]))
                    for i in range(16)]
            worst = max(range(16), key=lambda i: gaps[i])
            assert cex.theta == 2.0 * math.pi * worst / 16
            assert cex.defect == gaps[worst]

    def test_certified_points_survive_denser_seed_grids(self):
        rep = certify_closure_sequence(Word("cscs"), locus("cscs"), thetas=8)
        sample = [p for p, ok in zip(rep.locus.points, rep.locus.certified)
                  if ok][::12]
        assert sample
        for r, d in sample:
            a = Annulus.canonical(1.0, r, d)
            assert is_closure_config(a, Word("cscs"), 32) == CLOSED_EVERYWHERE

    def test_empty_locus_rejected(self):
        empty = ZeroLocus(Word("cscs"), (), ())
        with pytest.raises(DomainError):
            certify_closure_sequence(Word("cscs"), empty)

    def test_too_few_seed_angles_rejected(self):
        with pytest.raises(DomainError):
            certify_closure_sequence(Word("cscs"), locus("cscs"), thetas=4)


def dihedral_class_count(n: int) -> int:
    """Burnside count of binary cyclic words up to rotation and reversal."""
    rotations = sum(2 ** gcd(k, n) for k in range(n))
    if n % 2:
        reflections = n * 2 ** ((n + 1) // 2)
    else:
        reflections = (n // 2) * (2 ** (n // 2 + 1) + 2 ** (n // 2))
    return (rotations + reflections) // (2 * n)


class TestEnumeration:
    def test_length_three_classes(self):
        words = [w.letters for w in enumerate_words(3)]
        assert words == ["ccc", "ccs", "css", "sss"]

    def test_lengths_three_and_four(self):
        words = [w.letters for w in enumerate_words(4)]
        assert words == ["ccc", "ccs", "css", "sss",
                         "cccc", "cccs", "ccss", "cscs", "csss", "ssss"]

    @pytest.mark.parametrize("n", range(3, 9))
    def test_class_counts_match_orbit_counting(self, n):
        count = sum(1 for w in enumerate_words(n) if len(w) == n)
        assert count == dihedral_class_count(n)

    def test_rotation_and_reversal_share_a_canonical_word(self):
        reps = {w.letters for w in enumerate_words(9) if len(w) == 9}
        rng = np.random.default_rng(11)
        for _ in range(20):
            letters = "".join(rng.choice(["c", "s"], size=9))
            orbit = {v[k:] + v[:k] for v in (letters, letters[::-1])
                     for k in range(9)}
            # every rotation and the reversal map to one representative,
            # the smallest word of the orbit
            assert orbit & reps == {min(orbit)}

    def test_length_bounds_enforced(self):
        with pytest.raises(DomainError):
            enumerate_words(2)
        with pytest.raises(DomainError):
            enumerate_words(17)


class TestRelationFit:
    def test_mixed_pair_relation_recovered(self):
        fit = fit_relation(locus("cscs"), 2)
        assert fit.term_labels() == ("R^2", "R*r", "r^2", "d^2")
        target = np.array([1.0, -2.0, -3.0, -1.0]) / math.sqrt(15.0)
        assert np.abs(np.array(fit.coefficients) - target).max() < 1e-6
        assert fit.max_residual < 1e-6
        assert fit.nullspace_dim == 1

    def test_chord_triple_recovers_the_euler_relation(self):
        fit = fit_relation(locus("sss"), 2)
        target = np.array([1.0, -2.0, 0.0, -1.0]) / math.sqrt(6.0)
        assert np.abs(np.array(fit.coefficients) - target).max() < 1e-6
        assert fit.max_residual < 1e-6

    def test_residual_at_tracks_the_fitted_relation(self):
        fit = fit_relation(locus("cscs"), 2)
        assert fit.residual_at(1.0, 0.2, math.sqrt(0.48)) < 1e-9
        assert fit.residual_at(3.0, 0.6, 3.0 * math.sqrt(0.48)) < 1e-7
        assert fit.residual_at(1.0, 0.2, 0.5) > 1e-2

    def test_low_degree_reports_lack_of_fit(self):
        assert fit_relation(locus("cscs"), 1).max_residual > 1e-3

    def test_redundant_basis_reports_nullspace_dimension(self):
        assert fit_relation(locus("cscs"), 4).nullspace_dim >= 2

    def test_too_few_points_rejected(self):
        short = ZeroLocus(Word("cscs"), locus("cscs").points[:5], (0,))
        with pytest.raises(DomainError):
            fit_relation(short, 2)

    def test_bad_degree_rejected(self):
        with pytest.raises(DomainError):
            fit_relation(locus("cscs"), 0)


def certify_on(w: Word, points: ZeroLocus, thetas: int = 16) -> bool:
    """Whether w closes everywhere at every point of a traced locus."""
    on = ZeroLocus(w, points.points, points.component_offsets)
    return certify_closure_sequence(w, on, thetas).certified


class TestPowerWords:
    def test_chord_triple_power_closes_on_the_base_locus(self):
        base = locus("sss", 32)
        power = Word("ssssss")
        assert certify_on(Word("sss"), base)
        assert certify_on(power, trace_zero_locus(power, grid("ssssss", 32)))
        assert certify_on(power, base)

    def test_mixed_pair_power_gains_a_new_concentric_family(self):
        base = locus("cscs", 32)
        power = Word("cscscscs")
        power_locus = trace_zero_locus(power, grid("cscscscs", 32))
        assert certify_on(Word("cscs"), base)
        assert certify_on(power, power_locus)
        # the doubled word closes wherever the base word does...
        assert certify_on(power, base)
        # ...but its own locus reaches a second concentric closure point
        base_axis = [r for r, d in base.points if d == 0.0]
        power_axis = [r for r, d in power_locus.points if d == 0.0]
        fresh = 1.0 / (7.0 + 4.0 * math.sqrt(2.0))
        assert min(abs(r - fresh) for r in power_axis) < 1e-6
        assert min(abs(r - fresh) for r in base_axis) > 0.1
