"""Conic machinery: focal shapes, implicit forms, dual fitting, foci.

Implicit conics are stored as six homogeneous coefficients of
Ax^2 + Bxy + Cy^2 + Dx + Ey + F = 0, normalized to unit Euclidean norm with
the first nonzero coefficient positive, so equal conics have equal
coefficient vectors.  Dual conics use the same convention on the quadratic
form in homogeneous line coordinates (u, v, w), where a line
nx*x + ny*y = c has coordinates (nx, ny, -c).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, DomainError
from .geometry import Annulus, Line, Point, inscribed_circles_tangent_to_line

_SIGN_EPS = 1e-12
_RANK_TOL = 1e-8
_KIND_TOL = 1e-10


def _normalize6(coeffs) -> tuple[float, ...]:
    v = np.asarray(coeffs, dtype=float)
    if v.shape != (6,):
        raise DomainError("conic takes exactly six coefficients")
    n = float(np.linalg.norm(v))
    if n == 0.0 or not np.isfinite(n):
        raise DomainError("conic coefficients must be finite and nonzero")
    v = v / n
    for x in v:
        if abs(x) > _SIGN_EPS:
            if x < 0.0:
                v = -v
            break
    return tuple(float(x) for x in v)


def _matrix_from6(coeffs) -> np.ndarray:
    a, b, c, d, e, f = coeffs
    return np.array([[a, b / 2.0, d / 2.0],
                     [b / 2.0, c, e / 2.0],
                     [d / 2.0, e / 2.0, f]])


def _matrix_to6(m: np.ndarray) -> tuple[float, ...]:
    return (m[0, 0], 2.0 * m[0, 1], m[1, 1], 2.0 * m[0, 2], 2.0 * m[1, 2],
            m[2, 2])


def _matrix_rank3(m: np.ndarray) -> int:
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(s > _RANK_TOL * s[0]))


@dataclass(frozen=True)
class Conic:
    """Implicit conic with unit-norm, sign-fixed coefficients."""

    a: float
    b: float
    c: float
    d: float
    e: float
    f: float

    def __post_init__(self):
        a, b, c, d, e, f = _normalize6((self.a, self.b, self.c,
                                        self.d, self.e, self.f))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "f", f)

    @property
    def coefficients(self) -> tuple[float, ...]:
        return (self.a, self.b, self.c, self.d, self.e, self.f)

    def matrix(self) -> np.ndarray:
        return _matrix_from6(self.coefficients)

    def evaluate(self, x: float, y: float) -> float:
        return (self.a * x * x + self.b * x * y + self.c * y * y
                + self.d * x + self.e * y + self.f)


@dataclass(frozen=True)
class DualConic:
    """Quadratic form on homogeneous line coordinates, same normalization."""

    a: float
    b: float
    c: float
    d: float
    e: float
    f: float

    def __post_init__(self):
        a, b, c, d, e, f = _normalize6((self.a, self.b, self.c,
                                        self.d, self.e, self.f))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "f", f)

    @property
    def coefficients(self) -> tuple[float, ...]:
        return (self.a, self.b, self.c, self.d, self.e, self.f)

    def matrix(self) -> np.ndarray:
        return _matrix_from6(self.coefficients)

    def residual(self, line: Line) -> float:
        """Form value on the line's unit-norm homogeneous coordinates."""
        h = np.array(line.homogeneous())
        h = h / np.linalg.norm(h)
        return float(h @ self.matrix() @ h)


def _adjugate(m: np.ndarray) -> np.ndarray:
    out = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            minor = np.delete(np.delete(m, i, axis=0), j, axis=1)
            out[j, i] = ((-1.0) ** (i + j)) * np.linalg.det(minor)
    return out


def point_of(dc: DualConic) -> Conic:
    """Point form of a nondegenerate dual conic."""
    m = dc.matrix()
    if _matrix_rank3(m) < 3:
        raise DegeneracyError("degenerate dual conic has no point form")
    return Conic(*_matrix_to6(_adjugate(m)))


# ---------------------------------------------------------------------------
# focal shapes

@dataclass(frozen=True)
class FocalEllipse:
    """Ellipse as two foci and the constant sum of focal distances."""

    focus1: Point
    focus2: Point
    sum: float

    def __post_init__(self):
        if not self.sum > self.focus1.distance(self.focus2):
            raise DomainError("focal sum must exceed the focal distance")

    def point_at(self, t: float) -> Point:
        ax = 0.5 * self.sum
        ch = 0.5 * self.focus1.distance(self.focus2)
        bx = math.sqrt(ax * ax - ch * ch)
        cx = 0.5 * (self.focus1.x + self.focus2.x)
        cy = 0.5 * (self.focus1.y + self.focus2.y)
        if ch == 0.0:
            ex, ey = 1.0, 0.0
        else:
            ex = (self.focus2.x - self.focus1.x) / (2.0 * ch)
            ey = (self.focus2.y - self.focus1.y) / (2.0 * ch)
        u = ax * math.cos(t)
        v = bx * math.sin(t)
        return Point(cx + u * ex - v * ey, cy + u * ey + v * ex)


@dataclass(frozen=True)
class PolarConicShape:
    """Conic in focal polar form r = p / (1 + e*cos(theta - phi))."""

    focus: Point
    eccentricity: float
    semi_latus: float
    phase: float

    def __post_init__(self):
        if not self.eccentricity >= 0.0:
            raise DomainError("eccentricity must be nonnegative")
        if not self.semi_latus > 0.0:
            raise DomainError("semi-latus rectum must be positive")

    def radius_at(self, theta: float) -> float:
        den = 1.0 + self.eccentricity * math.cos(theta - self.phase)
        if den <= 0.0:
            raise DomainError("direction has no finite radius on this branch")
        return self.semi_latus / den

    def point_at(self, theta: float) -> Point:
        r = self.radius_at(theta)
        return Point(self.focus.x + r * math.cos(theta),
                     self.focus.y + r * math.sin(theta))

    def with_phase(self, phase: float) -> "PolarConicShape":
        return PolarConicShape(self.focus, self.eccentricity,
                               self.semi_latus, phase)


# ---------------------------------------------------------------------------
# focal constructions on an annulus

def centers_ellipse(a: Annulus) -> FocalEllipse:
    """Locus of inscribed-circle centres: foci at the two circle centres,
    focal sum R + r."""
    return FocalEllipse(a.outer.center, a.inner.center, a.R + a.r)


def conic_from_focal(shape) -> Conic:
    """Implicit six-coefficient form of a focal shape."""
    if isinstance(shape, FocalEllipse):
        ax = 0.5 * shape.sum
        ch = 0.5 * shape.focus1.distance(shape.focus2)
        b2 = ax * ax - ch * ch
        if b2 <= 0.0:
            raise DegeneracyError("flat ellipse has no implicit form")
        cx = 0.5 * (shape.focus1.x + shape.focus2.x)
        cy = 0.5 * (shape.focus1.y + shape.focus2.y)
        if ch == 0.0:
            ex, ey = 1.0, 0.0
        else:
            ex = (shape.focus2.x - shape.focus1.x) / (2.0 * ch)
            ey = (shape.focus2.y - shape.focus1.y) / (2.0 * ch)
        m0 = np.diag([1.0 / (ax * ax), 1.0 / b2, -1.0])
        rot = np.array([[ex, -ey, cx], [ey, ex, cy], [0.0, 0.0, 1.0]])
        t_inv = np.linalg.inv(rot)
        return Conic(*_matrix_to6(t_inv.T @ m0 @ t_inv))
    if isinstance(shape, PolarConicShape):
        # r = p - e*(u . (X - F)) squared, u the phase direction
        e = shape.eccentricity
        p = shape.semi_latus
        ux = math.cos(shape.phase)
        uy = math.sin(shape.phase)
        fx, fy = shape.focus.x, shape.focus.y
        # |w|^2 - (p - e*(u.w))^2 = 0 with w = X - F
        a = 1.0 - e * e * ux * ux
        b = -2.0 * e * e * ux * uy
        cc = 1.0 - e * e * uy * uy
        # linear terms from w = X - F and the cross term 2*p*e*(u.w)
        d = -2.0 * a * fx - b * fy + 2.0 * p * e * ux
        ee = -2.0 * cc * fy - b * fx + 2.0 * p * e * uy
        f = (a * fx * fx + b * fx * fy + cc * fy * fy
             - 2.0 * p * e * (ux * fx + uy * fy) - p * p)
        return Conic(a, b, cc, d, ee, f)
    raise DomainError(f"unsupported focal shape: {type(shape).__name__}")


def chord_through_centers(a: Annulus, t: Line) -> Line:
    """Line through the centres of the two inscribed circles tangent to the
    chord line `t`."""
    sols = inscribed_circles_tangent_to_line(a, t)
    if len(sols) != 2:
        raise DegeneracyError(
            f"expected two tangent inscribed circles, found {len(sols)}")
    p1, p2 = sols[0].center, sols[1].center
    dx = p2.x - p1.x
    dy = p2.y - p1.y
    if math.hypot(dx, dy) < 1e-13 * a.R:
        raise DegeneracyError("tangent circle centres coincide")
    return Line.from_normal(-dy, dx, -dy * p1.x + dx * p1.y)


# ---------------------------------------------------------------------------
# dual-conic fitting

@dataclass(frozen=True)
class DualConicFit:
    """Least-squares dual conic with rank diagnostics.

    line_rank is the rank of the stacked homogeneous line coordinates;
    rank 2 means the family is concurrent and envelope_point carries the
    common point (None when the null direction is at infinity).
    """

    dual: DualConic
    singular_values: tuple[float, ...]
    line_rank: int
    envelope_point: Point | None


def fit_dual_conic(lines: list[Line]) -> DualConicFit:
    """Fit the tangent-line quadratic form to a family of lines.

    Homogeneous least squares on unit-norm line coordinates; the fit is the
    right singular vector of the smallest singular value of the 6-column
    design matrix.  A concurrent family (line rank 2) is reported with the
    double-point envelope at the common point.
    """
    if len(lines) < 5:
        raise DomainError(f"dual fit needs at least 5 lines, got {len(lines)}")
    coords = np.array([line.homogeneous() for line in lines], dtype=float)
    coords /= np.linalg.norm(coords, axis=1, keepdims=True)
    line_sv = np.linalg.svd(coords, compute_uv=False)
    line_rank = int(np.sum(line_sv > _RANK_TOL * line_sv[0]))

    u = coords[:, 0]
    v = coords[:, 1]
    w = coords[:, 2]
    design = np.column_stack([u * u, u * v, v * v, u * w, v * w, w * w])
    _, svals, vt = np.linalg.svd(design)
    dual = DualConic(*vt[-1])

    envelope = None
    if line_rank == 2:
        null = np.linalg.svd(coords)[2][-1]
        if abs(null[2]) > 1e-12:
            envelope = Point(float(null[0] / null[2]), float(null[1] / null[2]))
            h = np.array([envelope.x, envelope.y, 1.0])
            dual = DualConic(*_matrix_to6(np.outer(h, h)))
    return DualConicFit(dual, tuple(float(s) for s in svals),
                        line_rank, envelope)


# ---------------------------------------------------------------------------
# principal-axis reduction

@dataclass(frozen=True)
class _Reduced:
    kind: str
    frame: np.ndarray      # columns are the axis directions
    center: Point          # conic centre, or the vertex for a parabola
    s1: float              # squared semi-axis along frame column 0
    s2: float              # squared semi-axis along column 1; 4p for parabola


def _sign_fix(v: np.ndarray) -> np.ndarray:
    pivot = v[0] if abs(v[0]) > _SIGN_EPS else v[1]
    return v if pivot > 0.0 else -v


def _reduce(c: Conic) -> _Reduced:
    m3 = c.matrix()
    if _matrix_rank3(m3) < 3:
        raise DegeneracyError("degenerate conic has no principal-axis form")
    m2 = m3[:2, :2]
    evals, evecs = np.linalg.eigh(m2)
    e1 = _sign_fix(evecs[:, 0])
    e2 = _sign_fix(evecs[:, 1])
    lin = np.array([c.d, c.e])

    scale = float(np.max(np.abs(evals)))
    if min(abs(evals[0]), abs(evals[1])) > _KIND_TOL * scale:
        # central conic
        center = np.linalg.solve(2.0 * m2, -lin)
        f_c = float(c.evaluate(center[0], center[1]))
        frame = np.column_stack([e1, e2])
        s1 = -f_c / evals[0]
        s2 = -f_c / evals[1]
        kind = "ellipse" if (s1 > 0.0 and s2 > 0.0) else "hyperbola"
        if s1 <= 0.0 and s2 <= 0.0:
            raise DegeneracyError("conic has no real points")
        return _Reduced(kind, frame, Point(float(center[0]), float(center[1])),
                        float(s1), float(s2))

    # parabola: axis along the (near) zero eigenvalue direction
    if abs(evals[0]) <= abs(evals[1]):
        axis, perp, lam = e1, e2, evals[1]
    else:
        axis, perp, lam = e2, e1, evals[0]
    d_lin = float(lin @ axis)
    e_lin = float(lin @ perp)
    if abs(d_lin) < _KIND_TOL:
        raise DegeneracyError("conic degenerates to parallel lines")
    v0 = -e_lin / (2.0 * lam)
    u0 = -(c.f - e_lin * e_lin / (4.0 * lam)) / d_lin
    four_p = -d_lin / lam
    vertex = u0 * axis + v0 * perp
    frame = np.column_stack([axis, perp])
    return _Reduced("parabola", frame,
                    Point(float(vertex[0]), float(vertex[1])), 0.0, four_p)


def conic_foci(c: Conic) -> list[Point]:
    """Real foci: two for a central conic, one for a parabola."""
    red = _reduce(c)
    fx, fy = red.center.x, red.center.y
    if red.kind == "parabola":
        p = 0.25 * red.s2
        return [Point(float(fx + p * red.frame[0, 0]),
                      float(fy + p * red.frame[1, 0]))]
    if red.kind == "ellipse":
        # major axis has the larger squared semi-axis
        if red.s1 >= red.s2:
            ch = math.sqrt(red.s1 - red.s2)
            ax = red.frame[:, 0]
        else:
            ch = math.sqrt(red.s2 - red.s1)
            ax = red.frame[:, 1]
    else:
        # transverse axis has the positive squared semi-axis
        if red.s1 > 0.0:
            ch = math.sqrt(red.s1 - red.s2)
            ax = red.frame[:, 0]
        else:
            ch = math.sqrt(red.s2 - red.s1)
            ax = red.frame[:, 1]
    return [Point(float(fx - ch * ax[0]), float(fy - ch * ax[1])),
            Point(float(fx + ch * ax[0]), float(fy + ch * ax[1]))]


def focus_directrix_pairs(c: Conic) -> list[tuple[Point, Line, float]]:
    """(focus, directrix, eccentricity) triples of a noncircular conic.

    Central conics yield two pairs (each focus with the directrix on its own
    side); parabolas yield one.  Circles have no finite directrix and return
    an empty list.
    """
    red = _reduce(c)
    if red.kind == "parabola":
        p = 0.25 * red.s2
        ax = red.frame[:, 0]
        focus = Point(float(red.center.x + p * ax[0]),
                      float(red.center.y + p * ax[1]))
        dline = Line.from_normal(
            ax[0], ax[1],
            ax[0] * red.center.x + ax[1] * red.center.y - p)
        return [(focus, dline, 1.0)]
    if red.kind == "ellipse":
        big, small = max(red.s1, red.s2), min(red.s1, red.s2)
        ax = red.frame[:, 0] if red.s1 >= red.s2 else red.frame[:, 1]
        ch2 = big - small
    else:
        big = red.s1 if red.s1 > 0.0 else red.s2
        small = -(red.s2 if red.s1 > 0.0 else red.s1)
        ax = red.frame[:, 0] if red.s1 > 0.0 else red.frame[:, 1]
        ch2 = big + small
    if ch2 <= _KIND_TOL * big:
        return []
    ch = math.sqrt(ch2)
    a_len = math.sqrt(big)
    ecc = ch / a_len
    out = []
    for sgn in (-1.0, 1.0):
        focus = Point(float(red.center.x + sgn * ch * ax[0]),
                      float(red.center.y + sgn * ch * ax[1]))
        offset = sgn * big / ch
        dline = Line.from_normal(
            ax[0], ax[1],
            ax[0] * red.center.x + ax[1] * red.center.y + offset)
        out.append((focus, dline, ecc))
    return out


def conic_points(c: Conic, n: int = 100) -> list[Point]:
    """Deterministic sample of n points on the conic."""
    red = _reduce(c)
    pts = []
    if red.kind == "ellipse":
        a_len = math.sqrt(red.s1)
        b_len = math.sqrt(red.s2)
        for i in range(n):
            t = 2.0 * math.pi * i / n
            w = red.frame @ np.array([a_len * math.cos(t),
                                      b_len * math.sin(t)])
            pts.append(Point(float(red.center.x + w[0]),
                             float(red.center.y + w[1])))
    elif red.kind == "parabola":
        p = 0.25 * red.s2
        for i in range(n):
            t = -3.0 + 6.0 * i / max(n - 1, 1)
            w = red.frame @ np.array([p * t * t, 2.0 * p * t])
            pts.append(Point(float(red.center.x + w[0]),
                             float(red.center.y + w[1])))
    else:
        a2 = red.s1 if red.s1 > 0.0 else red.s2
        b2 = -(red.s2 if red.s1 > 0.0 else red.s1)
        ax = red.frame[:, 0] if red.s1 > 0.0 else red.frame[:, 1]
        perp = red.frame[:, 1] if red.s1 > 0.0 else red.frame[:, 0]
        a_len, b_len = math.sqrt(a2), math.sqrt(b2)
        half = max(n // 2, 1)
        for branch in (-1.0, 1.0):
            for i in range(half):
                t = -2.0 + 4.0 * i / max(half - 1, 1)
                w = (branch * a_len * math.cosh(t)) * ax \
                    + (b_len * math.sinh(t)) * perp
                pts.append(Point(float(red.center.x + w[0]),
                             float(red.center.y + w[1])))
    return pts


def _conic_diameter(red: _Reduced) -> float:
    if red.kind == "parabola":
        return abs(red.s2)  # latus rectum
    return 2.0 * math.sqrt(max(abs(red.s1), abs(red.s2)))


def focus_directrix_residual(c: Conic, focus: Point, directrix: Line,
                             e: float) -> float:
    """Worst focus-directrix defect over 100 sampled conic points,
    normalized by the conic's diameter."""
    red = _reduce(c)
    scale = _conic_diameter(red)
    worst = 0.0
    for p in conic_points(c, 100):
        lhs = p.distance(focus)
        rhs = e * abs(directrix.signed_distance(p))
        worst = max(worst, abs(lhs - rhs))
    return worst / scale


# ---------------------------------------------------------------------------
# revolving confocal shapes

def _polar_residual(shape: PolarConicShape, phi: float,
                    data: list[tuple[float, float]]) -> float:
    g = 0.0
    for r, theta in data:
        h = shape.semi_latus / r - 1.0 \
            - shape.eccentricity * math.cos(theta - phi)
        g += h * h
    return g


def theorem6_rotation(e3: PolarConicShape, p1: Point, p2: Point,
                      tol: float = 1e-8) -> list[float]:
    """All phases (mod 2pi) at which the shape passes through both points.

    Scans the pass-through residual on a 720-point grid, polishes local
    minima by damped Newton, and keeps phases whose per-point defect is
    below tol.  An empty list means no rotation fits.
    """
    data = []
    for p in (p1, p2):
        r = p.distance(e3.focus)
        if r <= 0.0:
            raise DomainError("target point coincides with the focus")
        data.append((r, math.atan2(p.y - e3.focus.y, p.x - e3.focus.x)))
    e = e3.eccentricity
    p_lat = e3.semi_latus

    def g(phi):
        return _polar_residual(e3, phi, data)

    def dg(phi):
        s = 0.0
        for r, theta in data:
            h = p_lat / r - 1.0 - e * math.cos(theta - phi)
            s += 2.0 * h * (-e * math.sin(theta - phi))
        return s

    def ddg(phi):
        s = 0.0
        for r, theta in data:
            h = p_lat / r - 1.0 - e * math.cos(theta - phi)
            hp = -e * math.sin(theta - phi)
            hpp = e * math.cos(theta - phi)
            s += 2.0 * (hp * hp + h * hpp)
        return s

    n_grid = 720
    grid = [2.0 * math.pi * i / n_grid for i in range(n_grid)]
    vals = [g(phi) for phi in grid]
    sols = []
    for i in range(n_grid):
        prev_v = vals[i - 1]
        next_v = vals[(i + 1) % n_grid]
        if not (vals[i] <= prev_v and vals[i] <= next_v):
            continue
        phi = grid[i]
        for _ in range(60):
            d2 = ddg(phi)
            if abs(d2) < 1e-300:
                break
            step = dg(phi) / d2
            # damp Newton steps to stay inside the grid cell
            step = max(-0.02, min(0.02, step))
            phi -= step
            if abs(step) < 1e-15:
                break
        if g(phi) < tol * tol:
            phi = phi % (2.0 * math.pi)
            if all(abs(_angle_gap(phi, s)) > 1e-9 for s in sols):
                sols.append(phi)
    sols.sort()
    return sols


def _angle_gap(a: float, b: float) -> float:
    return math.remainder(a - b, 2.0 * math.pi)


def shape_through_two_points(focus: Point, eccentricity: float,
                             p1: Point, p2: Point) -> list[PolarConicShape]:
    """Confocal shapes of a given eccentricity through two points.

    Solves for the semi-latus rectum and phase; up to two shapes, ordered by
    semi-latus rectum.
    """
    if not 0.0 <= eccentricity:
        raise DomainError("eccentricity must be nonnegative")
    data = []
    for p in (p1, p2):
        r = p.distance(focus)
        if r <= 0.0:
            raise DomainError("target point coincides with the focus")
        data.append((r, math.atan2(p.y - focus.y, p.x - focus.x)))
    (r1, t1), (r2, t2) = data
    det = math.sin(t2 - t1)
    if abs(det) < 1e-12:
        raise DegeneracyError("points are collinear with the focus")
    # p/r_i - 1 = A cos t_i + B sin t_i with A = e cos phase, B = e sin phase;
    # eliminating (A, B) leaves a quadratic in p via A^2 + B^2 = e^2
    ka = (math.sin(t2) / r1 - math.sin(t1) / r2) / det
    kb = (math.cos(t1) / r2 - math.cos(t2) / r1) / det
    ca = (math.sin(t2) - math.sin(t1)) / det
    cb = (math.cos(t1) - math.cos(t2)) / det
    qa = ka * ka + kb * kb
    qb = -2.0 * (ka * ca + kb * cb)
    qc = ca * ca + cb * cb - eccentricity * eccentricity
    if eccentricity == 0.0:
        if abs(r1 - r2) > 1e-12 * max(r1, r2):
            return []
        return [PolarConicShape(focus, 0.0, 0.5 * (r1 + r2), 0.0)]
    disc = qb * qb - 4.0 * qa * qc
    if disc < 0.0:
        return []
    shapes = []
    for root in sorted({(-qb - math.sqrt(disc)) / (2.0 * qa),
                        (-qb + math.sqrt(disc)) / (2.0 * qa)}):
        if root <= 0.0:
            continue
        a_val = ka * root - ca
        b_val = kb * root - cb
        phase = math.atan2(b_val, a_val) % (2.0 * math.pi)
        shapes.append(PolarConicShape(focus, eccentricity, root, phase))
    return shapes


def confocal_intersections(s1: PolarConicShape,
                           s2: PolarConicShape) -> list[Point]:
    """Intersection points of two confocal polar shapes (0, 1, or 2)."""
    if s1.focus.distance(s2.focus) > 1e-12:
        raise DomainError("shapes must share the focus")
    # equal radii: a cos(theta) + b sin(theta) = c
    a = s2.semi_latus * s1.eccentricity * math.cos(s1.phase) \
        - s1.semi_latus * s2.eccentricity * math.cos(s2.phase)
    b = s2.semi_latus * s1.eccentricity * math.sin(s1.phase) \
        - s1.semi_latus * s2.eccentricity * math.sin(s2.phase)
    c = s1.semi_latus - s2.semi_latus
    amp = math.hypot(a, b)
    if amp < 1e-15:
        raise DegeneracyError("shapes coincide or never meet transversally")
    ratio = c / amp
    if abs(ratio) > 1.0:
        return []
    base = math.atan2(b, a)
    delta = math.acos(max(-1.0, min(1.0, ratio)))
    thetas = {(base - delta) % (2.0 * math.pi),
              (base + delta) % (2.0 * math.pi)}
    return [s1.point_at(t) for t in sorted(thetas)]
