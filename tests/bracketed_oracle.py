"""Bracketed root finders for the two kernel solvers, kept as test oracles.

These are the solvers the kernel used before its closed forms: the
tangency condition is sampled on 64 fixed nodes, every sign change is
bisected to 1e-12 and polished with Newton.  They are slow and lose both
roots when the two fall into one bracket (thin annuli), but wherever
they report two roots those roots are accurate, which makes them an
independent check of the closed forms.
"""

import math

from closurelab._kernels import inscribed_center, wrap_2pi, wrap_pi

TWO_PI = 2.0 * math.pi

_BRACKETS = 64
_BISECT_TOL = 1e-12
_NEWTON_TOL = 1e-15
_ANGLE_TIE = 1e-12
_DEDUPE_REL = 1e-9


def _bracket_roots(f):
    """Bisected roots of f over the 64 brackets of [0, 2*pi)."""
    h = TWO_PI / _BRACKETS
    gs = [f(j * h) for j in range(_BRACKETS)]
    roots = []
    for j in range(_BRACKETS):
        a = j * h
        b = a + h
        ga = gs[j]
        gb = gs[(j + 1) % _BRACKETS]
        if ga == 0.0:
            roots.append(a)
            continue
        if gb == 0.0 or (ga < 0.0) == (gb < 0.0):
            continue
        while b - a > _BISECT_TOL:
            m = 0.5 * (a + b)
            gm = f(m)
            if gm == 0.0:
                a = b = m
                break
            if (ga < 0.0) != (gm < 0.0):
                b = m
            else:
                a = m
                ga = gm
        roots.append(0.5 * (a + b))
    return roots


def tangent_circles_to_chord(R, r, d, phi):
    """Inscribed circles tangent to the chord at phi, as (x, y, rho),
    found on the ellipse of centres by eccentric anomaly."""
    ux = math.cos(phi)
    uy = math.sin(phi)
    ct = d * ux + r
    ecx = 0.5 * d
    ae = 0.5 * (R + r)
    be = math.sqrt(ae * ae - ecx * ecx)

    def g(E):
        x = ecx + ae * math.cos(E)
        y = be * math.sin(E)
        return math.hypot(x - d, y) - r + (ux * x + uy * y - ct)

    out = []
    for E in _bracket_roots(g):
        x = ecx + ae * math.cos(E)
        y = be * math.sin(E)
        rho = ct - (ux * x + uy * y)
        for _ in range(12):
            n1 = math.hypot(x, y)
            n2 = math.hypot(x - d, y)
            if n1 == 0.0 or n2 == 0.0:
                break
            f1 = n1 - (R - rho)
            f2 = n2 - (r + rho)
            f3 = (ux * x + uy * y - ct) + rho
            if max(abs(f1), abs(f2), abs(f3)) <= _NEWTON_TOL * R:
                break
            a11 = x / n1
            a12 = y / n1
            a21 = (x - d) / n2
            a22 = y / n2
            det = (a11 * (a22 + uy) - a12 * (a21 + ux)
                   + (a21 * uy - a22 * ux))
            if det == 0.0:
                break
            b1, b2, b3 = -f1, -f2, -f3
            dx = b1 * (a22 + uy) - a12 * (b2 + b3) + (b2 * uy - a22 * b3)
            dy = a11 * (b2 + b3) - b1 * (a21 + ux) + (a21 * b3 - b2 * ux)
            dr = (a11 * (a22 * b3 - b2 * uy) - a12 * (a21 * b3 - b2 * ux)
                  + b1 * (a21 * uy - a22 * ux))
            x += dx / det
            y += dy / det
            rho += dr / det
        if all(math.hypot(x - px, y - py) >= _DEDUPE_REL * R
               for px, py, _ in out):
            out.append((x, y, rho))
    return out


def steiner_pair(R, r, d, alpha):
    """Inner-tangency angles in [0, 2*pi) of the inscribed circles tangent
    to the inscribed circle at alpha."""
    x1, y1, rho1 = inscribed_center(R, r, d, alpha)

    def f(beta):
        x, y, rho = inscribed_center(R, r, d, beta)
        return math.hypot(x - x1, y - y1) - rho1 - rho

    sum2 = (R + r) * (R + r) - d * d
    out = []
    for beta in _bracket_roots(f):
        for _ in range(4):
            cb = math.cos(beta)
            sb = math.sin(beta)
            den = R + r + d * cb
            rho = (R * R - d * d - r * r - 2.0 * r * d * cb) / (2.0 * den)
            rhop = d * sb * sum2 / (2.0 * den * den)
            x = d + (r + rho) * cb
            y = (r + rho) * sb
            dist = math.hypot(x - x1, y - y1)
            if dist == 0.0:
                break
            dxb = rhop * cb - (r + rho) * sb
            dyb = rhop * sb + (r + rho) * cb
            fp = ((x - x1) * dxb + (y - y1) * dyb) / dist - rhop
            if fp == 0.0:
                break
            beta -= (dist - rho1 - rho) / fp
        beta = wrap_2pi(beta)
        if all(abs(wrap_pi(beta - prev)) >= _ANGLE_TIE for prev in out):
            out.append(beta)
    return out
