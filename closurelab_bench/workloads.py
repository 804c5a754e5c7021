"""The benchmark's workloads: inputs drawn from a seed, and output checks.

A workload is a list of closurelab command lines, run in order as one
round through ``closurelab.cli.main``.  Every round runs the same command
lines.  Each command line has a check that looks at its report and
artifacts after the timed interval and returns the problems it finds,
compared against the closed forms in ``oracle`` or against properties
the method must have.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from typing import Optional

import oracle

LOCUS_DIST_TOL = 1e-9    # certified locus points vs classical loci
FIT_RATIO_TOL = 1e-6     # cscs relation coefficients vs -2, -3, -1
CONCENTRIC_TOL = 1e-12   # concentric defects vs the oracle
ECC_TOL = 1e-6           # t5 eccentricity vs d / (R + r)
CHAIN_TOL = 1e-7         # the chain command's default closure tolerance


@dataclass
class Result:
    """One command's outcome: exit code, stdout and the parsed report."""

    argv: list
    code: Optional[int]
    stdout: str
    error: Optional[str] = None
    report: Optional[dict] = None


def run_op(main, argv: list) -> Result:
    """Run one command line in this process with stdout captured.

    An exception out of main marks the operation as failed (error is set).
    """
    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            code = main(argv)
    except (Exception, SystemExit) as exc:
        return Result(argv, None, buf.getvalue(),
                      error=f"{type(exc).__name__}: {exc}")
    return Result(argv, code, buf.getvalue())


def parse_report(res: Result) -> None:
    """Fill res.report, or mark the operation as failed when stdout is not
    exactly one JSON report."""
    if res.error is not None:
        return
    try:
        report, end = json.JSONDecoder().raw_decode(res.stdout)
    except json.JSONDecodeError as exc:
        res.error = f"stdout is not one JSON report: {exc}"
        return
    if res.stdout[end:].strip() or not isinstance(report, dict):
        res.error = "stdout holds more than one JSON report"
        return
    res.report = report


def _expect_verdict(res: Result, verified: bool) -> list:
    """Problems with the report's verdict and with its exit code, which the
    README table fixes: 0 verified/closed/completed, 1 otherwise."""
    problems = []
    want = 0 if res.report["verified"] else 1
    if res.code != want:
        problems.append(f"{' '.join(res.argv)}: exit {res.code} for "
                        f"verified={res.report['verified']}")
    if res.report["verified"] != verified:
        problems.append(f"{' '.join(res.argv)}: verified="
                        f"{res.report['verified']}, expected {verified}; "
                        f"checks {res.report['checks']}, flags "
                        f"{res.report['flags']}")
    return problems


@dataclass
class Workload:
    """Command lines of one round and one check per command line.

    Every round of a workload runs the same commands on inputs of the
    same size whatever the seed, so that its wall time (the end-to-end
    metric round_s) compares across seeds.
    """

    ops: list
    checks: list  # of Callable[[Result], list[str]]


def _annulus_flags(R: float, r: float, d: float) -> list:
    return ["--R", repr(R), "--r", repr(r), "--d", repr(d)]


# ---------------------------------------------------------------------------
# survey: the criterion-10 pipeline

def survey(seed: int, small: bool, outdir: str) -> Workload:
    """search --max-len 4 at 24x24 with 32 seeds, then the cscs fit.

    The certified set holds at this grid, as at 16, 20, 32 and 64 cells
    a side.  24x24 keeps a round at 3-7 s, so a run holds several rounds,
    while every word's locus still has 17 to 34 points.  The pipeline has
    a single input, so the seed does not change it.
    """
    max_len, n = (3, 16) if small else (4, 24)
    grid = ["--nr", str(n), "--nd", str(n)]
    ops = [["search", "--max-len", str(max_len), "--thetas", "32"] + grid,
           ["fit", "--word", "cscs", "--degree", "2"] + grid]
    words = oracle.necklaces(max_len)
    want = [w for w in words if oracle.is_power_family(w)]

    def check_search(res):
        problems = _expect_verdict(res, True)
        det = res.report["details"]
        seen = [e["word"] for e in det["words"]]
        if seen != words:
            problems.append(f"search covered {seen}, expected {words}")
        if det["certified"] != want:
            problems.append(f"certified {det['certified']}, expected {want}")
        for entry in det["words"]:
            w = entry["word"]
            if w in want:
                pts = entry.get("locus", {}).get("points", [])
                worst = max((oracle.locus_distance(w, 1.0, r, d)
                             for r, d in pts), default=math.inf)
                if not worst <= LOCUS_DIST_TOL:
                    problems.append(f"{w}: locus point {worst:.3g} from "
                                    "the classical locus")
            else:
                cex = entry.get("counterexamples", [])
                if entry["outcome"] != "not-certified" or not cex or any(
                        c["verdict"] == "closed-everywhere" for c in cex):
                    problems.append(f"{w}: no valid counterexample "
                                    f"({entry['outcome']})")
        return problems

    def check_fit(res):
        problems = _expect_verdict(res, True)
        fit = res.report["details"]["fit"]
        coeff = dict(zip(fit["terms"], fit["coefficients"]))
        for term, ratio in (("R*r", -2.0), ("r^2", -3.0), ("d^2", -1.0)):
            got = coeff[term] / coeff["R^2"]
            if not abs(got - ratio) <= FIT_RATIO_TOL:
                problems.append(f"cscs fit {term}/R^2 = {got!r}, "
                                f"expected {ratio}")
        return problems

    return Workload(ops, [check_search, check_fit])


# ---------------------------------------------------------------------------
# scan: large defect grids written as CSV

SCAN_WORDS = ("cccc", "cscs", "ssss")  # covers cc, cs, sc and ss steps
# Grid shapes (nr, nd) of 4608 cells each (256 at smoke size): the seed
# picks the shape, never the number of cells.
SCAN_SHAPES = ((48, 96), (64, 72), (72, 64), (96, 48))
SMALL_SCAN_SHAPES = ((16, 16), (8, 32), (32, 8))


def scan(seed: int, small: bool, outdir: str) -> Workload:
    """scan --out of one grid per word; the seed draws the grid shape
    from SCAN_SHAPES and the word order."""
    rng = random.Random(seed)
    nr, nd = rng.choice(SMALL_SCAN_SHAPES if small else SCAN_SHAPES)
    words = list(SCAN_WORDS)
    rng.shuffle(words)
    ops = [["scan", "--word", w, "--nr", str(nr), "--nd", str(nd),
            "--out", os.path.join(outdir, f"scan-{w}.csv")] for w in words]

    def check_scan(res):
        from closurelab.chains import Word
        from closurelab.search import DefectGrid

        w, path = res.argv[2], res.argv[-1]
        problems = _expect_verdict(res, True)
        det = res.report["details"]
        if det["shape"] != [nr, nd] or \
                det["ok_cells"] + det["marked_cells"] != nr * nd:
            problems.append(f"scan {w}: report shape {det}")
        with open(path, encoding="ascii", newline="") as fh:
            text = fh.read()
        rows = list(csv.reader(io.StringIO(text)))
        if rows[0] != ["r", "d", "defect"] or len(rows) != nr * nd + 1:
            return problems + [f"scan {w}: bad header or row count"]
        ok = 0
        worst = 0.0
        for k, (rs, ds, cell) in enumerate(rows[1:]):
            i, j = divmod(k, nd)
            r, d = float(rs), float(ds)
            if r != (i + 1) / (nr + 1) or d != j / nd:
                return problems + [f"scan {w}: cell {i},{j} at ({r}, {d})"]
            if cell == "DEAD":
                continue
            ok += 1
            if d + r >= 1.0:
                return problems + [f"scan {w}: ({r}, {d}) is no annulus "
                                   "but carries a defect"]
            if j == 0:
                worst = max(worst, abs(oracle.wrap_pi(
                    float(cell) - oracle.concentric_defect(w, 1.0, r))))
        if ok != det["ok_cells"]:
            problems.append(f"scan {w}: {ok} completed cells in the file, "
                            f"{det['ok_cells']} in the report")
        if not worst <= CONCENTRIC_TOL:
            problems.append(f"scan {w}: concentric defect off the closed "
                            f"form by {worst:.3g}")
        back = io.StringIO()
        DefectGrid.from_csv(path, Word(w)).write_csv(back)
        if back.getvalue() != text:
            problems.append(f"scan {w}: from_csv does not restore the "
                            "written grid")
        return problems

    return Workload(ops, [check_scan] * len(ops))


# ---------------------------------------------------------------------------
# verify: single statements, chains and scenes on annuli from the seed

# Words of 6 letters whose cyclic steps include all four letter pairs,
# so that every verify round times every kind of kernel step.
MIXED_WORDS = [w for bits in range(2 ** 6)
               for w in ["".join("cs"[(bits >> k) & 1] for k in range(6))]
               if {w[i] + w[(i + 1) % 6] for i in range(6)}
               == {"cc", "cs", "sc", "ss"}]


def verify(seed: int, small: bool, outdir: str) -> Workload:
    """verify t1-t6 and sangaku, chain and render on drawn annuli.

    The seed draws an outer radius R in [1, 4] and these annuli of it:
    one on the cscs locus (r/R in [0.15, 0.28]), two off it with the same
    r (d scaled by 0.5..0.85, and d moved 20..60 % of the way from the
    locus to the outer circle), one concentric (r/R in [0.2, 0.6]) with a
    word from MIXED_WORDS and a seed angle, and an aligned four-point
    frame (ratio in [1.5, 3]) for t2.  Every statement runs inside its
    domain: t3 needs d > 0, sangaku the locus, and t5 a proper envelope,
    which the locus annuli do not have (their center chords are
    concurrent).  t4 runs on eccentric annuli only; see the README.
    """
    rng = random.Random(seed)
    R = rng.uniform(1.0, 4.0)
    r = R * rng.uniform(0.15, 0.28)
    d_on = oracle.pair_locus_d(R, r)
    d_off = d_on * rng.uniform(0.5, 0.85)
    d_far = d_on + (R - r - d_on) * rng.uniform(0.2, 0.6)
    r_conc = R * rng.uniform(0.2, 0.6)
    word = rng.choice(MIXED_WORDS)
    theta = repr(rng.uniform(0.0, 2.0 * math.pi))
    frame = oracle.aligned_frame(rng.uniform(1.5, 3.0))
    on = _annulus_flags(R, r, d_on)
    off = _annulus_flags(R, r, d_off)
    far = _annulus_flags(R, r, d_far)
    conc = _annulus_flags(R, r_conc, 0.0)
    conc_defect = oracle.concentric_defect(word, R, r_conc)

    def verdict(want):
        return lambda res: _expect_verdict(res, want)

    def eccentricity(d):
        def check(res):
            problems = verdict(True)(res)
            got = res.report["details"]["eccentricity"]
            expected = oracle.envelope_eccentricity(R, r, d)
            if not abs(got - expected) <= ECC_TOL:
                problems.append(f"t5 eccentricity {got!r}, expected "
                                f"{expected!r}")
            return problems
        return check

    def chain(want, defect=None):
        def check(res):
            problems = verdict(want)(res)
            det = res.report["details"]
            if "defect" not in det:
                return problems + [f"{' '.join(res.argv)}: chain failed: "
                                   f"{det.get('error')}"]
            if defect is not None:
                gap = abs(oracle.wrap_pi(det["defect"] - defect))
                if not gap <= CONCENTRIC_TOL:
                    problems.append(f"concentric {word} defect off the "
                                    f"closed form by {gap:.3g}")
            return problems
        return check

    def scene(gamma):
        def check(res):
            problems = verdict(True)(res)
            det = res.report["details"]
            size = os.path.getsize(res.argv[res.argv.index("--out") + 1])
            if size != det["svg_bytes"]:
                problems.append(f"render wrote {size} bytes, the report "
                                f"says {det['svg_bytes']}")
            if det["gamma_drawn"] != gamma:
                problems.append(f"render: envelope drawn "
                                f"{det['gamma_drawn']}, expected {gamma}")
            return problems
        return check

    plan = [
        (["verify", "t1"] + on, verdict(True)),
        (["verify", "t1"] + off, verdict(False)),
        (["verify", "t2"] + _annulus_flags(*frame), verdict(True)),
        (["verify", "t3"] + on, verdict(True)),
        (["verify", "t3"] + off, verdict(True)),
        (["verify", "t4"] + on, verdict(True)),
        (["verify", "t4"] + off, verdict(True)),
        (["verify", "t5"] + off, eccentricity(d_off)),
        (["verify", "t5"] + far, eccentricity(d_far)),
        (["verify", "t6"], verdict(True)),
        (["verify", "sangaku"] + on, verdict(True)),
        (["chain", "--word", "cscs", "--theta0", theta] + on, chain(True)),
        (["chain", "--word", "cscs", "--theta0", theta] + off, chain(False)),
        (["chain", "--word", word, "--theta0", theta] + conc,
         chain(abs(conc_defect) < CHAIN_TOL, conc_defect)),
        (["render", "--word", "cscs", "--theta0", theta,
          "--out", os.path.join(outdir, "scene.svg")] + off,
         scene(True)),
        (["render", "--word", word, "--theta0", theta,
          "--out", os.path.join(outdir, "scene-concentric.svg")] + conc,
         scene(False)),
    ]
    return Workload([argv for argv, _ in plan],
                    [check for _, check in plan])


WORKLOADS = {"survey": survey, "scan": scan, "verify": verify}
