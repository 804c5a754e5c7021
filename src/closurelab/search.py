"""Parameter-space search for closing words.

With the outer radius fixed at 1, every annulus is a point of the open
triangle {(r, d) : r > 0, d >= 0, r + d < 1}.  This module scans the
monodromy defect of a word over that triangle, traces the zero locus of
the defect by regula falsi along sign-changing grid edges, certifies traced
loci against seed independence, enumerates candidate words up to cyclic
rotation and reversal, and fits polynomial relations in (R, r, d) to
traced loci.

Scans seed every chain at theta = 0.  That is deliberately one-sided:
a vanishing defect at a single seed is only a candidate, and the
certification step re-runs the chain over a full seed grid to decide
whether the configuration closes everywhere.  Only d >= 0 is scanned
because reflecting the annulus across the center line negates d without
changing any defect.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import Iterator, Optional, Sequence

import numpy as np

from . import _kernels as kern
from .chains import CLOSED_EVERYWHERE, Word, closure_sweeps
from .errors import DomainError
from .geometry import Annulus

LOCUS_TOL = 1e-10
CERTIFY_TOL = 1e-8

CELL_OK = 0
CELL_DEAD = 1
CELL_INVALID = 2

_MARKER = "DEAD"
_MIN_GRID = 16
_BISECT_MAX = 200
_NULLSPACE_REL_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class DefectGrid:
    """Monodromy defect of one word sampled over the (r, d) triangle.

    defect[i, j] is the defect of the chain seeded at theta = 0 in the
    annulus (1, r_values[i], d_values[j]).  Cells that are not annuli
    (d + r >= 1) or whose chain fails to complete carry a non-numeric
    marker in status and nan in defect, so sign-change tracing can never
    cross them.
    """

    word: Word
    r_values: tuple[float, ...]
    d_values: tuple[float, ...]
    defect: np.ndarray
    status: np.ndarray

    def __post_init__(self):
        shape = (len(self.r_values), len(self.d_values))
        if self.defect.shape != shape or self.status.shape != shape:
            raise DomainError("grid arrays do not match the axis lengths")
        for axis in (self.r_values, self.d_values):
            if any(b <= a for a, b in zip(axis, axis[1:])):
                raise DomainError("grid axes must be strictly increasing")
        self.defect.setflags(write=False)
        self.status.setflags(write=False)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.r_values), len(self.d_values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DefectGrid):
            return NotImplemented
        return (self.word.letters == other.word.letters
                and self.r_values == other.r_values
                and self.d_values == other.d_values
                and np.array_equal(self.defect, other.defect, equal_nan=True)
                and np.array_equal(self.status, other.status))

    def write_csv(self, fh) -> None:
        """Rows r, d, defect in row-major order; markers spell DEAD."""
        d_texts = [repr(d) for d in self.d_values]
        fh.write("r,d,defect\n")
        for i, r in enumerate(self.r_values):
            r_text = repr(r)
            fh.write("".join(
                f"{r_text},{d_text},{repr(value) if ok else _MARKER}\n"
                for d_text, ok, value in zip(d_texts,
                                             self.status[i] == CELL_OK,
                                             self.defect[i].tolist())))

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="ascii", newline="") as fh:
            self.write_csv(fh)

    @classmethod
    def from_csv(cls, path, word: Word) -> "DefectGrid":
        """Exact inverse of to_csv for the given word.

        The marker does not distinguish annulus violations from dead
        chains, but the former are exactly the cells with d + r >= 1, so
        the split is recomputed from the coordinates.
        """
        with open(path, "r", encoding="ascii", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["r", "d", "defect"]:
                raise DomainError(f"unexpected scan header: {header!r}")
            rows = [(float(r), float(d), cell) for r, d, cell in reader]
        if not rows:
            raise DomainError("scan file has no cells")
        d_values = []
        for _, d, _ in rows:
            if d_values and d == d_values[0]:
                break
            d_values.append(d)
        nd = len(d_values)
        if len(rows) % nd != 0:
            raise DomainError("scan file is not a full grid")
        nr = len(rows) // nd
        r_values = [rows[i * nd][0] for i in range(nr)]
        defect = np.full((nr, nd), math.nan)
        status = np.empty((nr, nd), dtype=np.int8)
        for k, (r, d, cell) in enumerate(rows):
            i, j = divmod(k, nd)
            if r != r_values[i] or d != d_values[j]:
                raise DomainError("scan file is not a full grid")
            if cell == _MARKER:
                status[i, j] = CELL_INVALID if d + r >= 1.0 else CELL_DEAD
            else:
                status[i, j] = CELL_OK
                defect[i, j] = float(cell)
        return cls(word, tuple(r_values), tuple(d_values), defect, status)


def scan_defect(w: Word, nr: int, nd: int) -> DefectGrid:
    """Defect of w at theta = 0 on an nr-by-nd grid of (r, d) cells.

    r is sampled at (i+1)/(nr+1) for i < nr and d at j/nd for j < nd, so
    the d axis starts at the concentric line d = 0 and neither axis
    touches the degenerate boundary r in {0, 1}.  All annulus cells run
    in one lockstep kernel call.
    """
    if nr < _MIN_GRID or nd < _MIN_GRID:
        raise DomainError(f"grid must be at least {_MIN_GRID} per axis, "
                          f"got {nr}x{nd}")
    r_values = tuple((i + 1) / (nr + 1) for i in range(nr))
    d_values = tuple(j / nd for j in range(nd))
    r, d = np.meshgrid(r_values, d_values, indexing="ij")
    valid = d + r < 1.0
    code, cells = kern.chain_defect_many(1.0, r[valid], d[valid], w.letters,
                                         0.0)
    done = code == kern.OK
    status = np.full((nr, nd), CELL_INVALID, dtype=np.int8)
    status[valid] = np.where(done, CELL_OK, CELL_DEAD)
    defect = np.full((nr, nd), math.nan)
    defect[valid] = np.where(done, cells, math.nan)
    return DefectGrid(w, r_values, d_values, defect, status)


@dataclass(frozen=True)
class ZeroLocus:
    """Bisection-refined zeros of the defect, chained into polylines.

    points holds every traced (r, d) in walk order; component_offsets
    marks where each polyline starts, so consecutive points inside one
    component lie in adjacent grid cells.  certified stays None until a
    certification pass fills one flag per point.
    """

    word: Word
    points: tuple[tuple[float, float], ...]
    component_offsets: tuple[int, ...]
    certified: Optional[tuple[bool, ...]] = None

    def __post_init__(self):
        for r, d in self.points:
            if not (r > 0.0 and d >= 0.0 and r + d < 1.0):
                raise DomainError(f"locus point ({r}, {d}) is not an annulus")
        if self.points and (not self.component_offsets
                            or self.component_offsets[0] != 0):
            raise DomainError("component offsets must start at 0")
        if self.certified is not None and len(self.certified) != len(self.points):
            raise DomainError("one certification flag per point required")

    def __len__(self) -> int:
        return len(self.points)

    def components(self) -> Iterator[tuple[tuple[float, float], ...]]:
        bounds = list(self.component_offsets) + [len(self.points)]
        for a, b in zip(bounds, bounds[1:]):
            yield self.points[a:b]

    def with_certification(self, flags: Sequence[bool]) -> "ZeroLocus":
        return replace(self, certified=tuple(bool(f) for f in flags))


def _bisect_edge(letters: str, p_neg, f_neg: float, p_pos, f_pos: float):
    """Zero of the defect on the segment p_neg..p_pos, or None.

    Illinois regula falsi: the false-position point of the bracket, with
    the function value of an end kept twice in a row halved so that both
    ends keep moving.  The search gives up once no float lies strictly
    between the ends.
    """
    kept = 0  # +1 when p_pos was kept last time, -1 for p_neg
    for _ in range(_BISECT_MAX):
        t = f_neg / (f_neg - f_pos)
        mid = (p_neg[0] + t * (p_pos[0] - p_neg[0]),
               p_neg[1] + t * (p_pos[1] - p_neg[1]))
        code, fm = kern.chain_defect(1.0, mid[0], mid[1], letters, 0.0, 1)
        if code != kern.OK:
            return None
        if abs(fm) < LOCUS_TOL:
            return mid
        if fm < 0.0:
            p_neg, f_neg = mid, fm
            if kept == 1:
                f_pos *= 0.5
            kept = 1
        else:
            p_pos, f_pos = mid, fm
            if kept == -1:
                f_neg *= 0.5
            kept = -1
        if (abs(p_pos[0] - p_neg[0]) + abs(p_pos[1] - p_neg[1])) < 1e-16:
            return None
        # an edge across a jump of the defect, not a zero, ends with
        # adjacent floats, which the width test misses where d is near 1
        if all(a == b or math.nextafter(a, b) == b
               for a, b in zip(p_neg, p_pos)):
            return None
    return None


def trace_zero_locus(w: Word, grid: DefectGrid) -> ZeroLocus:
    """Polylines through the sign changes of the grid.

    Each edge between two completed cells whose defects change sign is
    refined to |defect| < LOCUS_TOL; edges touching a marked cell are
    skipped, as are jumps of pi or more, which are wrap-around artifacts
    of the angle-valued defect rather than zeros.  A cell whose defect
    is exactly zero is itself a locus point; its edges carry no sign
    change, so it is collected separately.  Points are chained through
    cells that carry exactly two crossings; cells with more are left as
    component breaks rather than guessed through.
    """
    if w.letters != grid.word.letters:
        raise DomainError(f"grid was scanned for {grid.word.letters!r}, "
                          f"not {w.letters!r}")
    nr, nd = grid.shape
    status, defect = grid.status, grid.defect
    points: dict[tuple, tuple[float, float]] = {}

    def probe(kind, i, j, i2, j2):
        if status[i, j] != CELL_OK or status[i2, j2] != CELL_OK:
            return
        f1, f2 = defect[i, j], defect[i2, j2]
        if f1 == 0.0 or f2 == 0.0 or f1 * f2 > 0.0:
            return
        if abs(f1 - f2) >= math.pi:
            return
        p1 = (grid.r_values[i], grid.d_values[j])
        p2 = (grid.r_values[i2], grid.d_values[j2])
        if f1 > f2:
            p1, f1, p2, f2 = p2, f2, p1, f1
        hit = _bisect_edge(w.letters, p1, f1, p2, f2)
        if hit is not None:
            points[(kind, i, j)] = hit

    for i in range(nr - 1):
        for j in range(nd):
            probe("h", i, j, i + 1, j)
    for i in range(nr):
        for j in range(nd - 1):
            probe("v", i, j, i, j + 1)
    for i in range(nr):
        for j in range(nd):
            if status[i, j] == CELL_OK and defect[i, j] == 0.0:
                points[("n", i, j)] = (grid.r_values[i], grid.d_values[j])

    adjacency: dict[tuple, list[tuple]] = {key: [] for key in points}
    for i in range(nr - 1):
        for j in range(nd - 1):
            around = [key for key in (("h", i, j), ("h", i, j + 1),
                                      ("v", i, j), ("v", i + 1, j),
                                      ("n", i, j), ("n", i + 1, j),
                                      ("n", i, j + 1), ("n", i + 1, j + 1))
                      if key in points]
            if len(around) == 2:
                a, b = around
                adjacency[a].append(b)
                adjacency[b].append(a)

    ordered: list[list[tuple]] = []
    seen: set[tuple] = set()
    for start in sorted(points):
        if start in seen:
            continue
        component = {start}
        frontier = [start]
        while frontier:
            key = frontier.pop()
            for nxt in adjacency[key]:
                if nxt not in component:
                    component.add(nxt)
                    frontier.append(nxt)
        seen |= component
        ends = sorted(key for key in component if len(adjacency[key]) < 2)
        walk = [ends[0] if ends else min(component)]
        visited = {walk[0]}
        while len(walk) < len(component):
            options = [key for key in adjacency[walk[-1]]
                       if key not in visited]
            if not options:
                break
            nxt = min(options)
            walk.append(nxt)
            visited.add(nxt)
        ordered.append(walk)

    ordered.sort(key=lambda walk: points[walk[0]])
    flat: list[tuple[float, float]] = []
    offsets: list[int] = []
    for walk in ordered:
        offsets.append(len(flat))
        flat.extend(points[key] for key in walk)
    return ZeroLocus(w, tuple(flat), tuple(offsets))


@dataclass(frozen=True)
class Counterexample:
    """A locus point that failed certification, with its worst seed."""

    r: float
    d: float
    verdict: str
    theta: Optional[float]
    defect: Optional[float]


@dataclass(frozen=True)
class CertificationReport:
    word: Word
    locus: ZeroLocus
    verdicts: tuple[str, ...]
    certified: bool
    counterexamples: tuple[Counterexample, ...]


def certify_closure_sequence(w: Word, locus: ZeroLocus, thetas: int = 32,
                             tol: float = CERTIFY_TOL) -> CertificationReport:
    """Seed-independence check of every locus point.

    A point passes when closure_sweep reports closed-everywhere over a
    thetas-point seed grid; the word is certified on the locus only if
    every point passes.  Failing points come back as counterexamples
    carrying the seed angle that realizes the worst defect.
    """
    if not locus.points:
        raise DomainError("cannot certify an empty locus")
    sweeps = closure_sweeps([Annulus.canonical(1.0, r, d)
                             for r, d in locus.points], w, thetas, tol)
    flags = [sweep.verdict == CLOSED_EVERYWHERE for sweep in sweeps]
    bad = tuple(Counterexample(r, d, sweep.verdict, sweep.theta, sweep.defect)
                for (r, d), sweep, passed in zip(locus.points, sweeps, flags)
                if not passed)
    return CertificationReport(w, locus.with_certification(flags),
                               tuple(sweep.verdict for sweep in sweeps),
                               all(flags), bad)


def _dihedral_orbit(letters: str) -> Iterator[str]:
    for variant in (letters, letters[::-1]):
        for k in range(len(variant)):
            yield variant[k:] + variant[:k]


def enumerate_words(max_len: int) -> list[Word]:
    """One representative per rotation/reversal class, lengths 3..max_len."""
    if not 3 <= max_len <= 16:
        raise DomainError(f"max_len must be in 3..16, got {max_len}")
    out = []
    for n in range(3, max_len + 1):
        classes = set()
        for bits in range(2 ** n):
            letters = "".join("cs"[(bits >> k) & 1] for k in range(n))
            classes.add(min(_dihedral_orbit(letters)))
        out.extend(Word(letters) for letters in sorted(classes))
    return out


@dataclass(frozen=True)
class RelationFit:
    """Unit-norm polynomial relation fitted to a traced locus.

    exponents lists (R, r, d) powers of each basis monomial; with the
    locus scanned at R = 1 the R power is the total-degree homogenizer.
    nullspace_dim counts the near-zero singular directions: 1 is a clean
    single relation, more means the basis is rank deficient on this
    locus and the coefficient vector is only one member of a family.
    """

    word: Word
    degree: int
    exponents: tuple[tuple[int, int, int], ...]
    coefficients: tuple[float, ...]
    singular_values: tuple[float, ...]
    max_residual: float
    nullspace_dim: int

    def term_labels(self) -> tuple[str, ...]:
        labels = []
        for powers in self.exponents:
            parts = [f"{name}^{p}" if p > 1 else name
                     for name, p in zip("Rrd", powers) if p > 0]
            labels.append("*".join(parts) if parts else "1")
        return tuple(labels)

    def residual_at(self, R: float, r: float, d: float) -> float:
        total = 0.0
        for c, (pR, pr, pd) in zip(self.coefficients, self.exponents):
            total += c * R ** pR * r ** pr * d ** pd
        return abs(total)

    def format(self) -> str:
        terms = [f"{c:+.12g}*{label}"
                 for c, label in zip(self.coefficients, self.term_labels())]
        return " ".join(terms) + " = 0"


def fit_relation(locus: ZeroLocus, degree: int) -> RelationFit:
    """Best unit-norm homogeneous relation of the given total degree.

    The basis is every monomial R^(D-a-b) r^a d^b with a + b <= D and b
    even; odd powers of d cannot appear because the locus is symmetric
    under d -> -d.  The coefficient vector is the smallest right
    singular vector of the evaluation matrix, with the first
    non-negligible coefficient made positive.
    """
    if degree < 1:
        raise DomainError(f"degree must be positive, got {degree}")
    pairs = sorted(((a, b) for b in range(0, degree + 1, 2)
                    for a in range(degree - b + 1)),
                   key=lambda ab: (ab[0] + ab[1], ab[1], ab[0]))
    exponents = tuple((degree - a - b, a, b) for a, b in pairs)
    if len(locus.points) < 3 * len(exponents):
        raise DomainError(
            f"need at least {3 * len(exponents)} locus points for degree "
            f"{degree}, got {len(locus.points)}")
    matrix = np.array([[r ** a * d ** b for a, b in pairs]
                       for r, d in locus.points])
    _, singular, vt = np.linalg.svd(matrix)
    coeffs = vt[-1]
    for c in coeffs:
        if abs(c) > 1e-12:
            if c < 0.0:
                coeffs = -coeffs
            break
    residuals = np.abs(matrix @ coeffs)
    nullspace = int(np.sum(singular < _NULLSPACE_REL_TOL * singular[0]))
    return RelationFit(locus.word, degree, exponents,
                       tuple(float(c) for c in coeffs),
                       tuple(float(s) for s in singular),
                       float(residuals.max()), nullspace)
