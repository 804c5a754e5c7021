"""Planar primitives and tangency operations in a circular annulus.

Frames are unconstrained: an :class:`Annulus` may sit anywhere in the plane.
Operations convert to the canonical frame used by the kernels (outer centre at
the origin, inner centre on the positive x axis) and convert results back.

Unless stated otherwise, tolerance defaults are relative to the outer radius:
``TANGENCY_TOL`` for tangency/incidence residuals and ``COMPARISON_TOL`` when
deciding whether two constructed objects coincide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _kernels as kern
from .errors import DegeneracyError, DomainError

TANGENCY_TOL = 1e-9
COMPARISON_TOL = 1e-7
SCALE_MIN = 1e-150
SCALE_MAX = 1e150

TWO_PI = 2.0 * math.pi

wrap_2pi = kern.wrap_2pi
wrap_pi = kern.wrap_pi


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def distance(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class AtInfinity:
    """Marker for a similitude centre pushed to infinity (unit direction)."""

    dx: float
    dy: float


@dataclass(frozen=True)
class Line:
    """Oriented line {p : nx*x + ny*y = c} with unit normal.

    The positive side is where nx*x + ny*y - c > 0.  The orientation is fixed
    at construction and never flipped by any operation.
    """

    nx: float
    ny: float
    c: float

    def __post_init__(self):
        n = math.hypot(self.nx, self.ny)
        if abs(n - 1.0) > 1e-9:
            raise DomainError(f"line normal must be unit length, got {n!r}")
        if n != 1.0:
            object.__setattr__(self, "nx", self.nx / n)
            object.__setattr__(self, "ny", self.ny / n)
            object.__setattr__(self, "c", self.c / n)

    @classmethod
    def from_normal(cls, nx: float, ny: float, c: float) -> "Line":
        """Scale (nx, ny, c) to a unit normal, keeping the orientation."""
        n = math.hypot(nx, ny)
        if n == 0.0:
            raise DomainError("line normal must be nonzero")
        return cls(float(nx / n), float(ny / n), float(c / n))

    def signed_distance(self, p: Point) -> float:
        return self.nx * p.x + self.ny * p.y - self.c

    def foot(self, p: Point) -> Point:
        s = self.signed_distance(p)
        return Point(p.x - s * self.nx, p.y - s * self.ny)

    def direction(self) -> tuple[float, float]:
        return -self.ny, self.nx

    def homogeneous(self) -> tuple[float, float, float]:
        """Homogeneous line coordinates (nx, ny, -c)."""
        return self.nx, self.ny, -self.c


@dataclass(frozen=True)
class Circle:
    center: Point
    radius: float

    def __post_init__(self):
        if not (self.radius > 0.0) or not math.isfinite(self.radius):
            raise DomainError(f"circle radius must be positive, got {self.radius!r}")

    def point_at(self, theta: float) -> Point:
        return Point(self.center.x + self.radius * math.cos(theta),
                     self.center.y + self.radius * math.sin(theta))


@dataclass(frozen=True)
class Annulus:
    """Inner circle strictly inside the outer circle (d + r < R).

    Both radii lie in [SCALE_MIN, SCALE_MAX], so that the squared lengths
    and the radius ratio the chain kernel works with stay finite and
    nonzero.
    """

    outer: Circle
    inner: Circle

    def __post_init__(self):
        for radius in (self.outer.radius, self.inner.radius):
            if not SCALE_MIN <= radius <= SCALE_MAX:
                raise DomainError(
                    f"radii must lie in [{SCALE_MIN:g}, {SCALE_MAX:g}], "
                    f"got {radius!r}")
        d = self.outer.center.distance(self.inner.center)
        if not d + self.inner.radius < self.outer.radius:
            raise DomainError(
                "inner circle must lie strictly inside the outer circle "
                f"(d={d!r}, r={self.inner.radius!r}, R={self.outer.radius!r})"
            )

    @classmethod
    def canonical(cls, R: float, r: float, d: float) -> "Annulus":
        """Annulus with outer centre at the origin, inner centre at (d, 0)."""
        if d < 0.0:
            raise DomainError(f"centre distance must be nonnegative, got {d!r}")
        return cls(Circle(Point(0.0, 0.0), R), Circle(Point(d, 0.0), r))

    @property
    def R(self) -> float:
        return self.outer.radius

    @property
    def r(self) -> float:
        return self.inner.radius

    @property
    def d(self) -> float:
        return self.outer.center.distance(self.inner.center)

    @property
    def axis_angle(self) -> float:
        """Angle of the outer-to-inner centre axis (0 for concentric)."""
        dx = self.inner.center.x - self.outer.center.x
        dy = self.inner.center.y - self.outer.center.y
        if math.hypot(dx, dy) == 0.0:
            return 0.0
        return math.atan2(dy, dx)


@dataclass(frozen=True)
class Chord:
    """Chord of the outer circle tangent to the inner circle.

    The line is oriented with the inner centre on its positive side; the
    tangency point lies strictly between the endpoints.
    """

    line: Line
    p1: Point
    p2: Point
    tangency: Point

    def validate(self, a: Annulus, tol: float | None = None) -> None:
        atol = (TANGENCY_TOL if tol is None else tol) * a.R
        for p in (self.p1, self.p2):
            if abs(p.distance(a.outer.center) - a.R) > atol:
                raise DomainError("chord endpoint is not on the outer circle")
        if abs(self.line.signed_distance(a.inner.center) - a.r) > atol:
            raise DomainError("chord line is not tangent to the inner circle")
        dx, dy = self.line.direction()
        s1 = dx * (self.p1.x - self.tangency.x) + dy * (self.p1.y - self.tangency.y)
        s2 = dx * (self.p2.x - self.tangency.x) + dy * (self.p2.y - self.tangency.y)
        if not s1 * s2 < 0.0:
            raise DomainError("tangency point is not between the chord endpoints")


@dataclass(frozen=True)
class Theorem1Scalars:
    """Scalar data (s2, m2, x2) of the two-tangent construction.

    s2 is the squared common tangent length from the internal similitude
    centre, m2 the mean squared distance to the tangency pair, x2 their
    squared half-spread; all are nonnegative with m2 - x2 > 0.
    """

    s2: float
    m2: float
    x2: float

    def __post_init__(self):
        if not (self.s2 > 0.0 and self.m2 > 0.0 and self.x2 >= 0.0):
            raise DomainError("scalars must satisfy s2 > 0, m2 > 0, x2 >= 0")
        if not self.m2 - self.x2 > 0.0:
            raise DomainError("scalars must satisfy m2 - x2 > 0")


# ---------------------------------------------------------------------------
# frame helpers

def _to_canonical_angle(a: Annulus, theta_world: float) -> float:
    return kern.wrap_2pi(theta_world - a.axis_angle)


def _from_canonical(a: Annulus, x: float, y: float) -> Point:
    b = a.axis_angle
    cb = math.cos(b)
    sb = math.sin(b)
    return Point(a.outer.center.x + x * cb - y * sb,
                 a.outer.center.y + x * sb + y * cb)


# ---------------------------------------------------------------------------
# similitude centres

def external_similitude_center(a: Circle, b: Circle,
                               tol: float | None = None):
    """External similitude centre, or an AtInfinity marker for equal radii."""
    scale = max(a.radius, b.radius)
    atol = (TANGENCY_TOL if tol is None else tol) * scale
    if abs(a.radius - b.radius) <= atol:
        dx = b.center.x - a.center.x
        dy = b.center.y - a.center.y
        n = math.hypot(dx, dy)
        if n == 0.0:
            raise DegeneracyError("equal concentric circles: no external centre")
        return AtInfinity(dx / n, dy / n)
    w = b.radius - a.radius
    return Point((b.radius * a.center.x - a.radius * b.center.x) / w,
                 (b.radius * a.center.y - a.radius * b.center.y) / w)


# ---------------------------------------------------------------------------
# two-tangent scalar algebra

def theorem1_radii(sc: Theorem1Scalars, R: float, r: float) -> tuple[float, float]:
    """Radii of the two inscribed circles tangent to a chord, from the scalar
    data of the two-tangent construction."""
    den1 = sc.s2 + sc.m2 + sc.x2
    den2 = sc.s2 + sc.m2 - sc.x2
    if den1 <= 0.0 or den2 <= 0.0:
        raise DomainError("nonpositive denominator in radii formulas")
    r1 = (sc.s2 * R - sc.m2 * r - sc.x2 * r) / den1
    r2 = (sc.s2 * R - sc.m2 * r + sc.x2 * r) / den2
    return r1, r2


def closure_criterion_residual(sc: Theorem1Scalars, R: float, r: float) -> float:
    """Zero exactly when the inscribed-circle pair closes (r1 * r2 = r^2)."""
    lhs = sc.s2 * R - sc.m2 * r
    rhs = r * (sc.s2 + sc.m2)
    return lhs * lhs - rhs * rhs


def euler_like_residual(R: float, r: float, d: float) -> float:
    """Residual of the closure relation d^2 = (R - r)^2 - 4 r^2 for the
    alternating circle-chord pair."""
    if R <= 0.0 or r <= 0.0 or d < 0.0:
        raise DomainError("annulus scalars must satisfy R > 0, r > 0, d >= 0")
    return d * d - ((R - r) * (R - r) - 4.0 * r * r)


# ---------------------------------------------------------------------------
# annulus constructions

def inscribed_circle_at(a: Annulus, theta: float) -> Circle:
    """The inscribed circle whose inner tangency sits at world angle theta."""
    alpha = _to_canonical_angle(a, theta)
    x, y, rho = kern.inscribed_center(a.R, a.r, a.d, alpha)
    return Circle(_from_canonical(a, x, y), rho)


def chord_at(a: Annulus, theta: float) -> Chord:
    """The chord of the outer circle tangent to the inner circle at world
    angle theta, oriented with the inner centre on the positive side."""
    phi = _to_canonical_angle(a, theta)
    tx, ty, e1x, e1y, e2x, e2y = kern.chord_points(a.R, a.r, a.d, phi)
    tangency = _from_canonical(a, tx, ty)
    p1 = _from_canonical(a, e1x, e1y)
    p2 = _from_canonical(a, e2x, e2y)
    ux = (tangency.x - a.inner.center.x) / a.r
    uy = (tangency.y - a.inner.center.y) / a.r
    line = Line.from_normal(-ux, -uy, -(ux * tangency.x + uy * tangency.y))
    return Chord(line, p1, p2, tangency)


def inscribed_circles_tangent_to_line(a: Annulus, t: Line,
                                      tol: float | None = None) -> list[Circle]:
    """Inscribed circles of the annulus tangent to the chord line `t`.

    `t` must be tangent to the inner circle with the inner centre on its
    positive side.  Generically two circles; ordered by eccentric anomaly on
    the ellipse of centres.
    """
    atol = (TANGENCY_TOL if tol is None else tol) * a.R
    sd = t.signed_distance(a.inner.center)
    if abs(sd - a.r) > atol:
        raise DomainError(
            "line is not tangent to the inner circle with the centre on its "
            f"positive side (signed distance {sd!r}, r {a.r!r})"
        )
    phi_world = math.atan2(-t.ny, -t.nx)
    phi = _to_canonical_angle(a, phi_world)
    sols = kern.tangent_circles_to_chord(a.R, a.r, a.d, phi)
    return [Circle(_from_canonical(a, x, y), rho) for x, y, rho in sols]


def _require_inscribed(a: Annulus, c: Circle,
                       tol: float | None = None) -> None:
    atol = (COMPARISON_TOL if tol is None else tol) * a.R
    d_out = c.center.distance(a.outer.center)
    d_in = c.center.distance(a.inner.center)
    if abs(d_out - (a.R - c.radius)) > atol or abs(d_in - (a.r + c.radius)) > atol:
        raise DomainError("circle is not inscribed in the annulus")


def segment_inscribed_radius(R: float, h: float) -> float:
    """Radius of the largest circle inscribed in a circular segment.

    `h` is the signed distance from the circle centre to the chord, measured
    toward the segment; the far boundary is then at distance R, so the
    largest inscribed circle has radius (R - h) / 2.
    """
    if not abs(h) < R:
        raise DomainError(f"chord offset must satisfy |h| < R, got {h!r}")
    return 0.5 * (R - h)


def theorem2_meeting_point(a: Annulus, w1: Circle, tol: float | None = None):
    """Meeting point of the two common tangents of the inner circle and the
    inscribed circle `w1` (their external similitude centre); an AtInfinity
    marker when the radii agree."""
    _require_inscribed(a, w1, tol)
    return external_similitude_center(a.inner, w1)


def theorem2_frame(ratio: float) -> Annulus:
    """Annulus of the aligned four-point frame (1, a, a**2, a**3) on the x
    axis: inner circle on the middle pair, outer circle on the outer pair.

    Every such annulus satisfies the closure relation
    d^2 = (R - r)^2 - 4 r^2, and the tangent meeting points of its inscribed
    circles fall on the y axis.
    """
    if not ratio > 1.0:
        raise DomainError(f"frame ratio must exceed 1, got {ratio!r}")
    a2 = ratio * ratio
    a3 = a2 * ratio
    inner = Circle(Point(0.5 * (a2 + ratio), 0.0), 0.5 * (a2 - ratio))
    outer = Circle(Point(0.5 * (a3 + 1.0), 0.0), 0.5 * (a3 - 1.0))
    return Annulus(outer, inner)
