"""Acceptance suite: one verdict line per headline claim.

Each test exercises one published claim end to end at its stated
tolerance and prints a single PASS or FAIL line (run with -s to see
them).  Runtime caps are asserted alongside the numeric checks.
"""

import json
import math
import subprocess
import sys
import time
from typing import Optional

import numpy as np

from closurelab import (
    Annulus,
    Theorem1Scalars,
    Word,
    certify_closure_sequence,
    closure_criterion_residual,
    enumerate_words,
    euler_like_residual,
    fit_relation,
    monodromy_defect,
    run_chain,
    scan_defect,
    seed_element,
    theorem1_radii,
    trace_zero_locus,
)
from closurelab import _kernels as kern
from closurelab.errors import ChainError
from closurelab.search import DefectGrid
from closurelab.verification import (
    verify_sangaku,
    verify_t2,
    verify_t3,
    verify_t4,
    verify_t5,
    verify_t6,
)

TWO_PI = 2.0 * math.pi
PAIR = Word("cscs")
GENERIC_ANNULI = [Annulus.canonical(*t) for t in
                  [(1.0, 0.25, 0.3), (1.0, 0.3, 0.2), (3.0, 1.0, 0.7),
                   (1.0, 0.15, 0.5), (2.0, 0.5, 0.9)]]


def criterion(num: int, label: str, ok: bool, detail: str,
              elapsed: float, cap: Optional[float] = None) -> None:
    within = cap is None or elapsed < cap
    status = "PASS" if ok and within else "FAIL"
    budget = f", cap {cap:g}s" if cap is not None else ""
    print(f"[{status}] criterion {num:02d} {label}: {detail} "
          f"({elapsed:.2f}s{budget})")
    assert ok, f"criterion {num:02d} {label}: {detail}"
    if cap is not None:
        assert elapsed < cap, \
            f"criterion {num:02d} ran {elapsed:.2f}s, cap {cap}s"


def wrap_2pi(x: float) -> float:
    y = math.fmod(x, TWO_PI)
    return y + TWO_PI if y < 0.0 else y


def locus_r_values() -> np.ndarray:
    return np.linspace(0.05, 0.32, 20)


def locus_d(r: float) -> float:
    return math.sqrt(1.0 - 2.0 * r - 3.0 * r * r)


def test_criterion_01_pair_porism_splits_the_locus():
    t0 = time.perf_counter()
    thetas = [0.05 + TWO_PI * i / 64 for i in range(64)]
    worst_on = 0.0
    min_off = math.inf
    for r in locus_r_values():
        d_on = locus_d(r)
        a_on = Annulus.canonical(1.0, r, d_on)
        for theta in thetas:
            worst_on = max(worst_on,
                           abs(monodromy_defect(a_on, PAIR, theta)))
        d_off = d_on + 0.12 if d_on + 0.12 + r < 1.0 else d_on - 0.12
        assert abs(euler_like_residual(1.0, r, d_off)) > 0.05
        a_off = Annulus.canonical(1.0, r, d_off)
        for theta in thetas:
            try:
                defect = abs(monodromy_defect(a_off, PAIR, theta))
            except ChainError:
                continue
            min_off = min(min_off, defect)
    ok = worst_on < 1e-8 and min_off > 1e-3
    criterion(1, "pair porism on and off the locus", ok,
              f"on-locus max defect {worst_on:.2e} < 1e-8, "
              f"off-locus min defect {min_off:.2e} > 1e-3",
              time.perf_counter() - t0, cap=10.0)


def test_criterion_02_radius_product_iff_criterion():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    worst_on = 0.0
    iff_holds = True
    for _ in range(1000):
        s2 = rng.uniform(0.5, 3.0)
        m2 = rng.uniform(0.5, 3.0)
        sc = Theorem1Scalars(s2, m2, m2 * rng.uniform(0.05, 0.95))
        r = rng.uniform(0.3, 2.0)
        R_on = r * (2.0 * m2 + s2) / s2
        p1, p2 = theorem1_radii(sc, R_on, r)
        worst_on = max(worst_on, abs(p1 * p2 - r * r) / (r * r))
        R_off = R_on * (1.0 + rng.uniform(0.05, 0.5))
        q1, q2 = theorem1_radii(sc, R_off, r)
        residual = abs(closure_criterion_residual(sc, R_off, r))
        if residual > 1e-9 and abs(q1 * q2 - r * r) / (r * r) <= 1e-9:
            iff_holds = False
    ok = worst_on < 1e-9 and iff_holds
    criterion(2, "paired radii product law", ok,
              f"1000 tuples, on-criterion worst {worst_on:.2e} < 1e-9, "
              f"converse holds {iff_holds}",
              time.perf_counter() - t0, cap=1.0)


def test_criterion_03_meeting_points_collinear():
    t0 = time.perf_counter()
    worst_line = 0.0
    worst_ratio = 0.0
    for ratio in (1.5, 2.0, 3.0):
        rep = verify_t2(ratio, samples=50)
        assert rep.verified, ratio
        scale = rep.checks["meeting_points_collinear"]["tolerance"] / 1e-8
        worst_line = max(worst_line,
                         rep.checks["meeting_points_collinear"]["value"]
                         / scale)
        worst_ratio = max(worst_ratio,
                          rep.checks["radius_abscissa_ratio"]["value"])
    ok = worst_line < 1e-8 and worst_ratio < 1e-10
    criterion(3, "meeting points of tangent pairs", ok,
              f"collinearity {worst_line:.2e} < 1e-8 of outer radius, "
              f"radius ratio law {worst_ratio:.2e} < 1e-10",
              time.perf_counter() - t0, cap=5.0)


def test_criterion_04_centers_and_their_chords():
    t0 = time.perf_counter()
    worst_center = 0.0
    worst_side = 0.0
    for a in GENERIC_ANNULI:
        rep = verify_t3(a)
        assert rep.verified, (a.R, a.r, a.d)
        worst_center = max(worst_center,
                           rep.checks["centers_on_ellipse"]["value"] / a.R)
        worst_side = max(worst_side,
                         rep.checks["center_sides_tangent"]["value"])
    ok = worst_center < 1e-9 and worst_side < 1e-7
    criterion(4, "chain centers and connecting chords", ok,
              f"centers on ellipse {worst_center:.2e} < 1e-9 of R, "
              f"chord tangency {worst_side:.2e} < 1e-7",
              time.perf_counter() - t0, cap=10.0)


def test_criterion_05_chord_envelope_holdout():
    t0 = time.perf_counter()
    worst = 0.0
    for a in GENERIC_ANNULI:
        rep = verify_t4(a)
        assert rep.verified, (a.R, a.r, a.d)
        worst = max(worst, rep.checks["holdout_tangency"]["value"])
    concentric = verify_t4(Annulus.canonical(3.0, 1.0, 0.0))
    center_off = concentric.checks["envelope_at_center"]["value"] / 3.0
    ok = (worst < 1e-7 and concentric.verified
          and concentric.flags["degenerate_envelope_rank2"]
          and center_off < 1e-9)
    criterion(5, "center chord envelope", ok,
              f"12-fit/24-holdout tangency {worst:.2e} < 1e-7, "
              f"concentric point envelope off center by "
              f"{center_off:.2e} < 1e-9",
              time.perf_counter() - t0, cap=5.0)


def test_criterion_06_envelope_focus_at_inner_center():
    t0 = time.perf_counter()
    worst_focus = 0.0
    worst_pair = 0.0
    for a in GENERIC_ANNULI:
        rep = verify_t5(a)
        assert rep.verified, (a.R, a.r, a.d)
        worst_focus = max(worst_focus,
                          rep.checks["focus_matches_inner_center"]["value"]
                          / a.R)
        worst_pair = max(worst_pair,
                         rep.checks["focus_directrix_residual"]["value"])
    ok = worst_focus < 1e-6 and worst_pair < 1e-6
    criterion(6, "envelope focus sits at the inner center", ok,
              f"focus offset {worst_focus:.2e} < 1e-6 of R, "
              f"focus-directrix residual {worst_pair:.2e} < 1e-6",
              time.perf_counter() - t0, cap=5.0)


def test_criterion_07_rotation_tracking():
    t0 = time.perf_counter()
    rep = verify_t6(steps=50, step_cap=0.01, tol=1e-8)
    residual = rep.checks["pass_through_residual"]["value"]
    ok = (rep.verified and rep.details["steps_completed"] == 50
          and rep.details["largest_phase_step"] <= 0.01
          and residual < 1e-8)
    criterion(7, "third shape tracks rotating pairs", ok,
              f"50 steps <= 0.01 rad, pass-through residual "
              f"{residual:.2e} < 1e-8",
              time.perf_counter() - t0, cap=5.0)


def test_criterion_08_segment_radius_product():
    t0 = time.perf_counter()
    worst = 0.0
    for r in locus_r_values():
        a = Annulus.canonical(1.0, r, locus_d(r))
        rep = verify_sangaku(a)
        assert rep.verified, (a.r, a.d)
        worst = max(worst, rep.checks["segment_radii_product"]["value"])
    ok = worst < 1e-9
    criterion(8, "segment radii product on the locus", ok,
              f"20 annuli, worst relative error {worst:.2e} < 1e-9",
              time.perf_counter() - t0, cap=2.0)


def measured_advance(R: float, r: float, letters: str, k: int) -> float:
    a = Annulus.canonical(R, r, 0.0)
    run = run_chain(a, Word(letters), seed_element(a, letters[0], 0.4))
    return wrap_2pi(run.elements[k].omega_contact -
                    run.elements[0].omega_contact)


def test_criterion_09_concentric_step_rotations():
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(10):
        r = rng.uniform(0.2, 1.0)
        R = r * rng.uniform(1.5, 8.0)
        forms = [
            ("ss", 1, 2.0 * math.acos(r / R)),
            ("cc", 1, 2.0 * math.asin((R - r) / (R + r))),
            ("cs", 2, 2.0 * math.acos((3.0 * r - R) / (R + r))),
        ]
        for letters, k, closed_form in forms:
            worst = max(worst,
                        abs(measured_advance(R, r, letters, k)
                            - closed_form))
    points = [("cscs", 3.0, 1), ("cscscs", 7.0, 2),
              ("cscscscs", 7.0 + 4.0 * math.sqrt(2.0), 3),
              ("sss", 2.0, 1), ("cccccc", 3.0, 1)]
    worst_defect = 0.0
    worst_wind = 0.0
    for letters, ratio, winding in points:
        a = Annulus.canonical(ratio, 1.0, 0.0)
        worst_defect = max(worst_defect,
                           abs(monodromy_defect(a, Word(letters), 0.7)))
        run = run_chain(a, Word(letters), seed_element(a, letters[0], 0.7))
        total = sum(wrap_2pi(run.elements[i + 1].omega_contact -
                             run.elements[i].omega_contact)
                    for i in range(len(letters)))
        worst_wind = max(worst_wind, abs(total - TWO_PI * winding))
    ok = worst < 1e-10 and worst_defect < 1e-10 and worst_wind < 1e-10
    criterion(9, "concentric step rotations", ok,
              f"closed forms {worst:.2e} < 1e-10, certified points "
              f"defect {worst_defect:.2e}, winding {worst_wind:.2e}",
              time.perf_counter() - t0, cap=5.0)


def test_criterion_10_search_certifies_the_power_families():
    t0 = time.perf_counter()
    words = enumerate_words(4)
    certified = []
    cscs_locus = None
    for w in words:
        grid = scan_defect(w, 128, 128)
        locus = trace_zero_locus(w, grid)
        if w.letters == "cscs":
            cscs_locus = locus
        if len(locus) and certify_closure_sequence(w, locus,
                                                   thetas=32).certified:
            certified.append(w.letters)
    fit = fit_relation(cscs_locus, 2)
    coeff = dict(zip(fit.term_labels(), fit.coefficients))
    lead = coeff["R^2"]
    ratios_ok = (abs(coeff["R*r"] / lead + 2.0) < 1e-6
                 and abs(coeff["r^2"] / lead + 3.0) < 1e-6
                 and abs(coeff["d^2"] / lead + 1.0) < 1e-6)
    ok = (len(words) == 10
          and certified == ["ccc", "sss", "cccc", "cscs", "ssss"]
          and ratios_ok and fit.max_residual < 1e-6)
    criterion(10, "survey certifies exactly the power families", ok,
              f"10 words at 128x128, certified {certified}, pair relation "
              f"residual {fit.max_residual:.2e} < 1e-6",
              time.perf_counter() - t0, cap=60.0)


def test_criterion_11_deterministic_artifacts(tmp_path):
    t0 = time.perf_counter()
    runs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "closurelab.cli", "scan",
             "--word", "cscs", "--nr", "32", "--nd", "32",
             "--out", str(path)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        rep = json.loads(proc.stdout)
        del rep["timing_s"]
        runs.append((path.read_bytes(), rep))
    # the same cells scanned one kernel call per cell, in this process
    grid = scan_defect(PAIR, 32, 32)
    defect = np.full(grid.shape, math.nan)
    for i, r in enumerate(grid.r_values):
        for j, d in enumerate(grid.d_values):
            if d + r < 1.0:
                code, value = kern.chain_defect_many(1.0, r, d, "cscs", 0.0)
                if code == kern.OK:
                    defect[i, j] = value
    by_cell = tmp_path / "by_cell.csv"
    DefectGrid(PAIR, grid.r_values, grid.d_values, defect,
               grid.status).to_csv(by_cell)
    svgs = []
    for name in ("a.svg", "b.svg"):
        path = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "closurelab.cli", "render",
             "--R", "1", "--r", "0.25", "--d", "0.3", "--word", "cscs",
             "--out", str(path)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        svgs.append(path.read_bytes())
    ok = (runs[0] == runs[1] and by_cell.read_bytes() == runs[0][0]
          and svgs[0] == svgs[1])
    criterion(11, "artifacts are run-for-run identical", ok,
              "scan CSV and report identical across two processes and "
              "to a cell-by-cell scan, render SVG identical across "
              "invocations",
              time.perf_counter() - t0)
