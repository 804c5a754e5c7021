"""Numeric verification suites for the closure statements.

Each verify_* function runs one statement's invariants at a configurable
scale and returns a Report whose checks carry the tolerances they were
judged against; the suite verifies exactly when every check passes.
Inputs for which a statement is vacuous (wrong frame, concentric where
eccentric is required, off-locus where closure is presumed) raise
DegeneracyError so the command surface can report invalid input instead
of a false falsification.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .chains import (
    CircleElement,
    ChordElement,
    Word,
    closure_sweep,
    run_chain,
    seed_element,
)
from .conics import (
    Conic,
    PolarConicShape,
    chord_through_centers,
    confocal_intersections,
    conic_foci,
    fit_dual_conic,
    focus_directrix_pairs,
    focus_directrix_residual,
    point_of,
    shape_through_two_points,
    theorem6_rotation,
)
from .errors import DegeneracyError, DomainError
from .geometry import (
    Annulus,
    AtInfinity,
    Line,
    Point,
    Theorem1Scalars,
    chord_at,
    closure_criterion_residual,
    euler_like_residual,
    inscribed_circle_at,
    segment_inscribed_radius,
    theorem1_radii,
    theorem2_frame,
    theorem2_meeting_point,
)
from .report import Report

PAIR_WORD = Word("cscs")

_CONCENTRIC_EPS = 1e-12


def verify_t1(a: Annulus, seeds: int = 64, tol: float = 1e-8,
              scalar_samples: int = 1000, rng_seed: int = 0) -> Report:
    """Mixed-pair porism on one annulus, plus the two-radius product law.

    The annulus verifies when it sits on the closure locus
    d^2 = (R-r)^2 - 4r^2 and its alternating circle-chord chain closes
    from every sampled seed.  Independently, on random scalar tuples of
    the two-tangent construction, the product of the paired radii equals
    r^2 exactly when the closure criterion residual vanishes.
    """
    rep = Report("verify t1", inputs={
        "R": a.R, "r": a.r, "d": a.d, "seeds": seeds, "tol": tol,
        "scalar_samples": scalar_samples})
    rep.check("corollary_residual", abs(euler_like_residual(a.R, a.r, a.d)),
              1e-6 * a.R * a.R)
    sweep = closure_sweep(a, PAIR_WORD, seeds, tol)
    rep.check("chain_defect", math.inf if sweep.dead else sweep.defect, tol)

    rng = np.random.default_rng(rng_seed)
    worst_on = 0.0
    iff_holds = True
    for _ in range(scalar_samples):
        s2 = rng.uniform(0.5, 3.0)
        m2 = rng.uniform(0.5, 3.0)
        x2 = m2 * rng.uniform(0.05, 0.95)
        r0 = rng.uniform(0.3, 2.0)
        sc = Theorem1Scalars(s2, m2, x2)
        # zero the criterion residual: s2*R - m2*r = r*(s2 + m2)
        r_on = r0 * (2.0 * m2 + s2) / s2
        p1, p2 = theorem1_radii(sc, r_on, r0)
        worst_on = max(worst_on, abs(p1 * p2 - r0 * r0) / (r0 * r0))
        r_off = r_on * (1.0 + rng.uniform(0.05, 0.5))
        q1, q2 = theorem1_radii(sc, r_off, r0)
        off_criterion = abs(closure_criterion_residual(sc, r_off, r0))
        off_product = abs(q1 * q2 - r0 * r0) / (r0 * r0)
        if off_criterion > 1e-9 and off_product <= 1e-9:
            iff_holds = False
    rep.check("radii_product_on_criterion", worst_on, 1e-9)
    rep.flag("radii_product_iff_criterion", iff_holds)
    return rep.finish()


def frame_ratio(a: Annulus, tol: float = 1e-9) -> float:
    """Ratio of the aligned four-point frame matching the annulus.

    The outer radius determines the candidate ratio; the annulus must
    then reproduce the frame's inner radius and center distance.
    """
    ratio = (2.0 * a.R + 1.0) ** (1.0 / 3.0)
    frame = theorem2_frame(ratio)
    scale = max(1.0, a.R)
    if abs(a.r - frame.r) > tol * scale or abs(a.d - frame.d) > tol * scale:
        raise DegeneracyError(
            f"annulus ({a.R}, {a.r}, {a.d}) is not an aligned four-point "
            f"frame; the ratio {ratio} frame has r = {frame.r}, d = {frame.d}")
    return ratio


def verify_t2(ratio: float, samples: int = 50, line_tol: float = 1e-8,
              ratio_tol: float = 1e-10) -> Report:
    """Meeting-point collinearity in the aligned four-point frame.

    For inscribed circles around the frame annulus, the meeting points
    of their common tangents with the inner circle are collinear, and
    each circle's radius is (ratio-1)/(ratio+1) times its center
    abscissa in the frame.
    """
    rep = Report("verify t2", inputs={
        "ratio": ratio, "samples": samples, "line_tol": line_tol,
        "ratio_tol": ratio_tol})
    frame = theorem2_frame(ratio)
    k_target = (ratio - 1.0) / (ratio + 1.0)
    meeting = []
    vertical_limits = True
    infinite = 0
    worst_ratio = 0.0
    for i in range(samples):
        theta = 2.0 * math.pi * (i + 0.5) / samples
        w1 = inscribed_circle_at(frame, theta)
        worst_ratio = max(worst_ratio,
                          abs(w1.radius - k_target * w1.center.x))
        spot = theorem2_meeting_point(frame, w1)
        if isinstance(spot, AtInfinity):
            infinite += 1
            vertical_limits = vertical_limits and abs(spot.dx) < 1e-9
        else:
            meeting.append((spot.x, spot.y))
    if len(meeting) < max(3, samples - 2):
        raise DegeneracyError("too many tangent pairs were parallel to "
                              "test collinearity")
    arr = np.array(meeting)
    centered = arr - arr.mean(axis=0)
    _, _, vt = np.linalg.svd(centered)
    deviation = float(np.abs(centered @ vt[-1]).max())
    rep.check("meeting_points_collinear", deviation, line_tol * frame.R)
    rep.check("radius_abscissa_ratio", worst_ratio, ratio_tol)
    rep.flag("parallel_limits_on_line", vertical_limits)
    rep.details.update({"meeting_points": len(meeting),
                        "parallel_pairs": infinite,
                        "abscissa_ratio": k_target})
    return rep.finish()


def _line_through(p: Point, q: Point) -> Line:
    return Line.from_normal(q.y - p.y, p.x - q.x,
                            (q.y - p.y) * p.x + (p.x - q.x) * p.y)


def _require_alternating(w: Word) -> None:
    if any(w.letter(i) == w.letter(i + 1) for i in range(len(w))):
        raise DomainError(f"word {w.letters!r} must alternate c and s for "
                          "the chord-of-centers reduction")


def center_chord_family(a: Annulus, count: int,
                        offset: float = 0.35) -> list[Line]:
    """Center chords taken at uniformly spaced inner-tangency angles."""
    return [chord_through_centers(
        a, chord_at(a, offset + 2.0 * math.pi * i / count).line)
        for i in range(count)]


def chain_center_sides(a: Annulus, w: Word, seeds: int,
                       offset: float = 0.05) -> tuple[list[Line], float]:
    """Sides of the circle-center polygonal chains over a seed sweep.

    Each run of the alternating word contributes the chords joining
    consecutive circle-element centers, final element included.  Returns
    the sides in seed order together with the worst deviation of any
    center from the two-center ellipse with focal sum R + r.
    """
    _require_alternating(w)
    sides: list[Line] = []
    worst = 0.0
    focus_o, focus_i = a.outer.center, a.inner.center
    for i in range(seeds):
        theta = offset + 2.0 * math.pi * i / seeds
        run = run_chain(a, w, seed_element(a, "c", theta))
        centers = [e.circle.center for e in run.elements
                   if isinstance(e, CircleElement)]
        for c in centers:
            gap = c.distance(focus_o) + c.distance(focus_i) - (a.R + a.r)
            worst = max(worst, abs(gap))
        sides.extend(_line_through(centers[j], centers[j + 1])
                     for j in range(len(centers) - 1))
    return sides, worst


def fitted_gamma(a: Annulus, count: int = 12) -> Optional[Conic]:
    """Envelope conic of the center-chord family; None if degenerate."""
    fit = fit_dual_conic(center_chord_family(a, count))
    if fit.line_rank < 3:
        return None
    return point_of(fit.dual)


def verify_t3(a: Annulus, w: Word = PAIR_WORD, seeds: int = 36,
              fit_count: int = 12, ellipse_tol: float = 1e-9,
              tangency_tol: float = 1e-7) -> Report:
    """Reduction of the alternating chain to a two-conic billiard.

    Circle-element centers must lie on the ellipse with foci at the two
    circle centers and focal sum R + r, and every side of the center
    polygon must be tangent to the envelope fitted from fit_count
    independent center chords.
    """
    if a.d <= _CONCENTRIC_EPS * a.R:
        raise DegeneracyError("reduction statement needs a non-concentric "
                              "annulus")
    rep = Report("verify t3", inputs={
        "R": a.R, "r": a.r, "d": a.d, "word": w.letters, "seeds": seeds,
        "fit_count": fit_count, "ellipse_tol": ellipse_tol,
        "tangency_tol": tangency_tol})
    sides, worst_center = chain_center_sides(a, w, seeds=seeds)
    fit = fit_dual_conic(center_chord_family(a, fit_count))
    worst_tangency = max(abs(fit.dual.residual(line)) for line in sides)
    rep.check("centers_on_ellipse", worst_center, ellipse_tol * a.R)
    rep.check("center_sides_tangent", worst_tangency, tangency_tol)
    rep.details.update({"sides": len(sides),
                        "envelope_rank": fit.line_rank})
    return rep.finish()


def verify_t4(a: Annulus, fit_count: int = 12, holdout: int = 24,
              tangency_tol: float = 1e-7, center_tol: float = 1e-9) -> Report:
    """Envelope fit generalizes to held-out center chords.

    The conic fitted from fit_count chords keeps all held-out chords
    tangent.  On a concentric annulus the envelope is the circle of
    radius |R - 3r|/2 about the common center, which degenerates to
    that center only at R = 3r; there the fit must additionally detect
    the concurrent family as a rank-2 point envelope at the center
    instead of inventing a conic.
    """
    rep = Report("verify t4", inputs={
        "R": a.R, "r": a.r, "d": a.d, "fit_count": fit_count,
        "holdout": holdout, "tangency_tol": tangency_tol,
        "center_tol": center_tol})
    chords = center_chord_family(a, fit_count + holdout)
    fit = fit_dual_conic(chords[:fit_count])
    worst = max(abs(fit.dual.residual(line)) for line in chords[fit_count:])
    rep.check("holdout_tangency", worst, tangency_tol)
    rep.details["envelope_rank"] = fit.line_rank
    if a.d <= _CONCENTRIC_EPS * a.R and \
            abs(a.R - 3.0 * a.r) <= _CONCENTRIC_EPS * a.R:
        rep.flag("degenerate_envelope_rank2", fit.line_rank == 2)
        if fit.envelope_point is None:
            rep.check("envelope_at_center", math.inf, center_tol * a.R)
        else:
            rep.check("envelope_at_center",
                      fit.envelope_point.distance(a.outer.center),
                      center_tol * a.R)
    return rep.finish()


def verify_t5(a: Annulus, fit_count: int = 12, focus_tol: float = 1e-6,
              directrix_tol: float = 1e-6) -> Report:
    """The fitted envelope is focal: one focus at the inner center.

    Checks the nearest focus of the fitted conic against the inner
    circle's center and the focus-directrix law at that focus.
    """
    if a.d <= _CONCENTRIC_EPS * a.R:
        raise DegeneracyError("focal statement needs a non-concentric "
                              "annulus; the concentric envelope is a point")
    rep = Report("verify t5", inputs={
        "R": a.R, "r": a.r, "d": a.d, "fit_count": fit_count,
        "focus_tol": focus_tol, "directrix_tol": directrix_tol})
    fit = fit_dual_conic(center_chord_family(a, fit_count))
    if fit.line_rank < 3:
        raise DegeneracyError("center chords are concurrent; the envelope "
                              "degenerates to a point")
    gamma = point_of(fit.dual)
    inner = a.inner.center
    foci = conic_foci(gamma)
    if not foci:
        raise DegeneracyError("fitted envelope has no real foci")
    rep.check("focus_matches_inner_center",
              min(f.distance(inner) for f in foci), focus_tol * a.R)
    focus, directrix, ecc = min(focus_directrix_pairs(gamma),
                                key=lambda fde: fde[0].distance(inner))
    rep.check("focus_directrix_residual",
              focus_directrix_residual(gamma, focus, directrix, ecc),
              directrix_tol)
    rep.details["eccentricity"] = ecc
    return rep.finish()


def _pass_through_gap(shape: PolarConicShape, phase: float,
                      points: list[Point]) -> float:
    worst = 0.0
    for q in points:
        radius = q.distance(shape.focus)
        theta = math.atan2(q.y - shape.focus.y, q.x - shape.focus.x)
        gap = shape.semi_latus / radius - 1.0 \
            - shape.eccentricity * math.cos(theta - phase)
        worst = max(worst, abs(gap))
    return worst


def verify_t6(eccentricities: tuple[float, float, float] = (0.2, 0.32, 0.45),
              steps: int = 50, step_cap: float = 0.01, tol: float = 1e-8,
              rng_seed: int = 7) -> Report:
    """Third-shape rotation tracking for three confocal shapes.

    Three shapes share a focus and two intersection points.  Each step
    revolves the first two shapes by a random small increment; a
    rotation of the third through both moved intersection points exists
    only when the relative phase of the first two is preserved, so the
    increment is common to both.  The rotation solver must re-find the
    third phase from scratch, tracked continuously from the previous
    value.
    """
    rep = Report("verify t6", inputs={
        "eccentricities": list(eccentricities), "steps": steps,
        "step_cap": step_cap, "tol": tol, "rng_seed": rng_seed})
    e1, e2, e3 = eccentricities
    focus = Point(0.0, 0.0)
    s1 = PolarConicShape(focus, e1, 1.0, 0.25)
    s2 = PolarConicShape(focus, e2, 1.15, 1.35)
    start = confocal_intersections(s1, s2)
    if len(start) < 2:
        raise DegeneracyError("first two shapes do not meet twice")
    third = shape_through_two_points(focus, e3, start[0], start[1])
    if not third:
        raise DegeneracyError("no third shape through the intersection pair")
    s3 = third[0]

    rng = np.random.default_rng(rng_seed)
    phase1, phase2, phase3 = s1.phase, s2.phase, s3.phase
    tracked = True
    worst_gap = 0.0
    largest_step = 0.0
    done = 0
    for _ in range(steps):
        delta = rng.uniform(-step_cap, step_cap)
        phase1 += delta
        phase2 += delta
        moved = confocal_intersections(s1.with_phase(phase1),
                                       s2.with_phase(phase2))
        if len(moved) < 2:
            tracked = False
            break
        candidates = theorem6_rotation(s3, moved[0], moved[1], tol)
        if not candidates:
            tracked = False
            break
        new_phase = min(candidates,
                        key=lambda c: abs(math.remainder(c - phase3,
                                                         2.0 * math.pi)))
        largest_step = max(largest_step,
                           abs(math.remainder(new_phase - phase3,
                                              2.0 * math.pi)))
        phase3 = new_phase
        worst_gap = max(worst_gap, _pass_through_gap(s3, phase3, moved))
        done += 1
    rep.flag("rotation_tracked_every_step", tracked)
    rep.flag("rotation_steps_stay_small", largest_step < 0.2)
    rep.check("pass_through_residual", worst_gap, tol)
    rep.details.update({"steps_completed": done,
                        "largest_phase_step": largest_step})
    return rep.finish()


def verify_sangaku(a: Annulus, seeds: int = 20, tol: float = 1e-9,
                   locus_tol: float = 1e-6) -> Report:
    """Segment-circle product law on a closure-locus annulus.

    For each seed, the two chords of the closed circle-chord-pair chain
    cut segments off the outer circle; the radii of the circles
    inscribed in those segments multiply to r^2.
    """
    locus_residual = abs(euler_like_residual(a.R, a.r, a.d)) / (a.R * a.R)
    if locus_residual >= locus_tol:
        raise DegeneracyError(
            f"annulus is off the closure locus (residual {locus_residual}); "
            "the product law presumes a closing pair chain")
    rep = Report("verify sangaku", inputs={
        "R": a.R, "r": a.r, "d": a.d, "seeds": seeds, "tol": tol})
    worst = 0.0
    all_closed = True
    for i in range(seeds):
        theta = 0.3 + 2.0 * math.pi * i / seeds
        run = run_chain(a, PAIR_WORD, seed_element(a, "c", theta))
        all_closed = all_closed and run.closed
        product = 1.0
        for elem in run.elements[:len(PAIR_WORD)]:
            if isinstance(elem, ChordElement):
                offset = elem.chord.line.signed_distance(a.outer.center)
                product *= segment_inscribed_radius(a.R, offset)
        worst = max(worst, abs(product - a.r * a.r) / (a.r * a.r))
    rep.flag("pair_chains_closed", all_closed)
    rep.check("segment_radii_product", worst, tol)
    return rep.finish()
