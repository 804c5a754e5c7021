"""Closed forms for checking closurelab's outputs.

Everything here is classical geometry written out independently of the
program: this module imports nothing from closurelab.  The benchmark
compares the program's reports and artifacts against these formulas
outside its timed interval.

Concentric annulus (d = 0), outer radius R, inner radius r.  A chain
advances its progress angle by a fixed rotation per step, which depends
only on the letters of the two elements:

    cc: 2 asin((R - r) / (R + r))      Steiner's circle-to-circle step
    ss: 2 acos(r / R)                   Poncelet's chord-to-chord step
    cs, sc: acos((3r - R) / (R + r))    circle-to-chord and back

Closure loci in the (r, d) plane, written as g(R, r, d) = 0:

    c^n   Steiner  d^2 = (R - r)^2 - 4 R r tan^2(pi / n)
    sss   Euler    d^2 = R^2 - 2 R r
    ssss  Fuss     (R^2 - d^2)^2 = 2 r^2 (R^2 + d^2)
    cscs  pair     d^2 = (R - r)^2 - 4 r^2
"""

from __future__ import annotations

import math

TWO_PI = 2.0 * math.pi


def wrap_pi(x: float) -> float:
    """Angle wrapped to (-pi, pi]."""
    y = math.remainder(x, TWO_PI)
    return math.pi if y == -math.pi else y


def step_rotation(pair: str, R: float, r: float) -> float:
    """Progress advance of one step between concentric elements."""
    if pair == "cc":
        return 2.0 * math.asin((R - r) / (R + r))
    if pair == "ss":
        return 2.0 * math.acos(r / R)
    if pair in ("cs", "sc"):
        return math.acos((3.0 * r - R) / (R + r))
    raise ValueError(f"letter pair must be two of c and s, got {pair!r}")


def concentric_defect(word: str, R: float, r: float) -> float:
    """Wrapped monodromy defect of a cyclic word at d = 0.

    The n-letter word builds n steps, from letter i to letter i + 1 read
    cyclically, so the defect is the wrapped sum of their rotations.  It
    does not depend on the seed angle.
    """
    n = len(word)
    return wrap_pi(sum(step_rotation(word[i] + word[(i + 1) % n], R, r)
                       for i in range(n)))


def classical_locus(word: str):
    """The word's classical closure relation as (g, grad_g), or None.

    g maps (R, r, d) to the residual; grad_g to its partial derivatives
    in r and d, the coordinates of the survey plane.
    """
    n = len(word)
    if word == "c" * n and n >= 3:
        t2 = math.tan(math.pi / n) ** 2

        def g(R, r, d):
            return d * d - (R - r) ** 2 + 4.0 * R * r * t2

        def grad(R, r, d):
            return 2.0 * (R - r) + 4.0 * R * t2, 2.0 * d
        return g, grad
    if word == "sss":
        return (lambda R, r, d: d * d - R * R + 2.0 * R * r,
                lambda R, r, d: (2.0 * R, 2.0 * d))
    if word == "ssss":
        def g(R, r, d):
            return (R * R - d * d) ** 2 - 2.0 * r * r * (R * R + d * d)

        def grad(R, r, d):
            return (-4.0 * r * (R * R + d * d),
                    -4.0 * d * (R * R - d * d) - 4.0 * r * r * d)
        return g, grad
    if word == "cscs":
        return (lambda R, r, d: d * d - (R - r) ** 2 + 4.0 * r * r,
                lambda R, r, d: (2.0 * (R - r) + 8.0 * r, 2.0 * d))
    return None


def locus_distance(word: str, R: float, r: float, d: float) -> float:
    """First-order distance |g| / |grad g| of (r, d) from the word's locus."""
    g, grad = classical_locus(word)
    gr, gd = grad(R, r, d)
    return abs(g(R, r, d)) / math.hypot(gr, gd)


def pair_locus_d(R: float, r: float) -> float:
    """Center distance that puts (R, r) on the cscs locus; needs r <= R/3."""
    return math.sqrt((R - r) ** 2 - 4.0 * r * r)


def envelope_eccentricity(R: float, r: float, d: float) -> float:
    """Eccentricity of the envelope of the chain's center chords."""
    return d / (R + r)


def aligned_frame(a: float) -> tuple[float, float, float]:
    """(R, r, d) of the annulus on the four collinear points 1, a, a^2, a^3.

    The outer circle has the outer pair (1, a^3) as a diameter and the
    inner circle the middle pair (a, a^2).
    """
    R = 0.5 * (a ** 3 - 1.0)
    r = 0.5 * (a * a - a)
    d = abs(0.5 * (a ** 3 + 1.0) - 0.5 * (a * a + a))
    return R, r, d


def is_power_family(word: str) -> bool:
    """c^n, s^n or (cs)^k: the words the paper says close porism-style."""
    n = len(word)
    return word in ("c" * n, "s" * n, "cs" * (n // 2))


def necklaces(max_len: int) -> list[str]:
    """Smallest representative of every rotation-and-reversal class of
    words over {c, s}, lengths 3..max_len, sorted by length then letters."""
    out = []
    for n in range(3, max_len + 1):
        reps = set()
        for bits in range(2 ** n):
            w = "".join("cs"[(bits >> k) & 1] for k in range(n))
            reps.add(min(v[k:] + v[:k] for v in (w, w[::-1])
                         for k in range(n)))
        out.extend(sorted(reps))
    return out
