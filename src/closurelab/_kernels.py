"""Chain kernels: the hot geometric loops of closurelab, in plain Python.

Every chain step is closed-form: the tangency conditions reduce to
quadratics in the tangent of a half angle, so no step searches for roots.

All functions work in the canonical frame: outer circle of radius R centred at
the origin, inner circle of radius r centred at (d, 0), with d >= 0 and
d + r < R.  Chain elements are flat tuples:

    circle: ('c', omega_angle, x, y, rho, entry_x, entry_y, has_entry)
    chord:  ('s', omega_angle, entry_x, entry_y, has_entry)

omega_angle is the angle, seen from the inner centre, of the element's
tangency point on the inner circle; it is the chain's progress coordinate.
The entry fields hold the element's contact point with its predecessor
(has_entry == 0 for seeds).

chain_defect_many runs many chains of one word in lockstep on NumPy
arrays, one lane per chain, under the same rules; the scalar functions
stay for single chains and as its oracle.
"""

import math

import numpy as np

BACKEND = "python"

OK = 0
DEAD_END = 1
TIE = 2
BAD_ANNULUS = 3

TWO_PI = 2.0 * math.pi

_EXCLUDE_REL = 1e-7
_ANGLE_TIE = 1e-12
_SEP_TIE_REL = 1e-12


def wrap_2pi(x):
    """Wrap an angle to [0, 2*pi)."""
    y = x - math.floor(x / TWO_PI) * TWO_PI
    if y >= TWO_PI:
        y -= TWO_PI
    return y


def wrap_pi(x):
    """Wrap an angle to (-pi, pi]."""
    y = wrap_2pi(x)
    if y > math.pi:
        y -= TWO_PI
    return y


def annulus_ok(R, r, d):
    return R > 0.0 and r > 0.0 and d >= 0.0 and d + r < R


def inscribed_rho(R, r, d, alpha):
    """Radius of the inscribed circle whose inner tangency sits at angle alpha."""
    ca = math.cos(alpha)
    return (R * R - d * d - r * r - 2.0 * r * d * ca) / (2.0 * (R + r + d * ca))


def inscribed_center(R, r, d, alpha):
    """Centre and radius (x, y, rho) of the inscribed circle at angle alpha."""
    rho = inscribed_rho(R, r, d, alpha)
    ca = math.cos(alpha)
    sa = math.sin(alpha)
    return d + (r + rho) * ca, (r + rho) * sa, rho


def chord_points(R, r, d, phi):
    """Tangency point and endpoints of the chord tangent at angle phi.

    Returns (tx, ty, e1x, e1y, e2x, e2y) with the endpoints ordered by
    ascending parameter along the direction (-sin phi, cos phi).
    """
    cp = math.cos(phi)
    sp = math.sin(phi)
    tx = d + r * cp
    ty = r * sp
    b = tx * (-sp) + ty * cp
    disc = b * b - (tx * tx + ty * ty - R * R)
    root = math.sqrt(disc)
    s1 = -b - root
    s2 = -b + root
    return tx, ty, tx - s1 * sp, ty + s1 * cp, tx - s2 * sp, ty + s2 * cp


def _half_angle_roots(a, b, c):
    """Both roots gamma in (-pi, pi) of a t^2 + b t + c = 0, t = tan(gamma/2).

    Callers pass a > 0 and c < 0, so the roots are real, distinct and of
    opposite sign; each is taken from the product or the sum of the roots
    so that neither suffers cancellation.
    """
    q = -0.5 * (b + math.copysign(math.sqrt(b * b - 4.0 * a * c), b))
    return 2.0 * math.atan(q / a), 2.0 * math.atan(c / q)


def tangent_circles_to_chord(R, r, d, phi):
    """Inscribed circles tangent to the chord whose inner tangency is at phi.

    With K = (R+r)^2 - d^2 the inscribed circle at inner angle beta has
    r + rho = K / (2 (R + r + d cos beta)), so tangency to the chord reads
    K cos(beta - phi) = 3r^2 + 2rR - R^2 + d^2 + 4rd cos beta.  In
    t = tan((beta - phi)/2) that is the quadratic
    2r(R + r - d cos phi) t^2 - 4rd sin(phi) t - N(phi) = 0 with
    N(phi) = R^2 - d^2 - r^2 - 2rd cos phi > 0: one circle on each side
    of the tangency point.  The quadratic is solved at R = 1, since its
    roots do not depend on scale.  Returns the two (x, y, rho) triples in
    ascending order of their inner-tangency angle in [0, 2*pi).
    """
    u = r / R
    e = d / R
    cp = math.cos(phi)
    sp = math.sin(phi)
    n = 1.0 - e * e - u * u - 2.0 * u * e * cp
    g1, g2 = _half_angle_roots(2.0 * u * (1.0 + u - e * cp),
                               -4.0 * u * e * sp, -n)
    b1 = wrap_2pi(phi + g1)
    b2 = wrap_2pi(phi + g2)
    if b2 < b1:
        b1, b2 = b2, b1
    return [inscribed_center(R, r, d, b1), inscribed_center(R, r, d, b2)]


def steiner_pair(R, r, d, alpha):
    """Inner-tangency angles of the two inscribed circles tangent to the
    inscribed circle at alpha, ascending in [0, 2*pi).

    Two inscribed circles at alpha and beta touch exactly when
    K^2 (1 - cos(beta - alpha)) = 2 N(alpha) N(beta), with K and N as in
    tangent_circles_to_chord.  In t = tan((beta - alpha)/2) that is
    (K^2 - M^2 + 4r^2d^2 cos^2 alpha) t^2 - 4rd N(alpha) sin(alpha) t
    - N(alpha)^2 = 0 with M = R^2 - d^2 - r^2.  K^2 - M^2 is computed as
    4r(R + r)(R(R + r) - d^2), which is positive on every annulus, so
    there is one neighbour on each side.  Solved at R = 1 like the chord
    quadratic.  At d = 0 the roots are +-2 asin((R-r)/(R+r)).
    """
    u = r / R
    e = d / R
    ca = math.cos(alpha)
    sa = math.sin(alpha)
    rdc = 2.0 * u * e * ca
    n = 1.0 - e * e - u * u - rdc
    g1, g2 = _half_angle_roots(
        4.0 * u * (1.0 + u) * (1.0 + u - e * e) + rdc * rdc,
        -4.0 * u * e * n * sa, -n * n)
    b1 = wrap_2pi(alpha + g1)
    b2 = wrap_2pi(alpha + g2)
    return [b1, b2] if b1 <= b2 else [b2, b1]


def _sep_circle(alpha, x1, y1, ein_x, ein_y, eout_x, eout_y):
    # Entry and exit contacts must fall in different arcs of the circle
    # element, cut by its tangency points with the inner and outer circles.
    ta = wrap_2pi(alpha + math.pi)
    tb = math.atan2(y1, x1)
    span = wrap_2pi(tb - ta)
    pin = wrap_2pi(math.atan2(ein_y - y1, ein_x - x1) - ta)
    pout = wrap_2pi(math.atan2(eout_y - y1, eout_x - x1) - ta)
    for p in (pin, pout):
        da = min(p, TWO_PI - p)
        db = abs(p - span)
        if min(da, db) < _ANGLE_TIE:
            return 0
    if (pin < span) != (pout < span):
        return 1
    return -1


def _sep_chord(R, phi, tx, ty, ein_x, ein_y, eout_x, eout_y):
    # Entry and exit contacts must lie on opposite sides of the chord's
    # tangency point with the inner circle.
    dirx = -math.sin(phi)
    diry = math.cos(phi)
    si = dirx * (ein_x - tx) + diry * (ein_y - ty)
    so = dirx * (eout_x - tx) + diry * (eout_y - ty)
    if abs(si) < _SEP_TIE_REL * R or abs(so) < _SEP_TIE_REL * R:
        return 0
    if si * so < 0.0:
        return 1
    return -1


def step_element(R, r, d, elem, letter, orientation=1):
    """Build the next chain element.  Returns (status, element-or-None).

    Candidates tangent to `elem` are generated for the requested letter, the
    one contacting `elem` at its entry point is excluded (second-solution
    rule), the separation condition filters the rest, and a remaining tie is
    broken by the smaller progress advance in the `orientation` direction
    (+1 counterclockwise).
    """
    cands = []
    if elem[0] == 'c':
        _, alpha, x1, y1, rho1, ex, ey, has_entry = elem
        if letter == 'c':
            for beta in steiner_pair(R, r, d, alpha):
                x2, y2, rho2 = inscribed_center(R, r, d, beta)
                dist = math.hypot(x2 - x1, y2 - y1)
                if dist == 0.0:
                    continue
                cx = x1 + rho1 * (x2 - x1) / dist
                cy = y1 + rho1 * (y2 - y1) / dist
                cands.append((beta, cx, cy, ('c', beta, x2, y2, rho2, cx, cy, 1)))
        else:
            psi = math.acos((r - rho1) / (r + rho1))
            for phi2 in (wrap_2pi(alpha + psi), wrap_2pi(alpha - psi)):
                cx = x1 + rho1 * math.cos(phi2)
                cy = y1 + rho1 * math.sin(phi2)
                cands.append((phi2, cx, cy, ('s', phi2, cx, cy, 1)))
    else:
        _, phi, ex, ey, has_entry = elem
        tx, ty, e1x, e1y, e2x, e2y = chord_points(R, r, d, phi)
        if letter == 'c':
            ux = math.cos(phi)
            uy = math.sin(phi)
            for x2, y2, rho2 in tangent_circles_to_chord(R, r, d, phi):
                cx = x2 + rho2 * ux
                cy = y2 + rho2 * uy
                beta = wrap_2pi(math.atan2(y2, x2 - d))
                cands.append((beta, cx, cy, ('c', beta, x2, y2, rho2, cx, cy, 1)))
        else:
            for px, py in ((e1x, e1y), (e2x, e2y)):
                gx = px - d
                gy = py
                dist = math.hypot(gx, gy)
                eta = math.atan2(gy, gx)
                ratio = r / dist
                if ratio > 1.0:
                    ratio = 1.0
                delta = math.acos(ratio)
                t1 = wrap_2pi(eta + delta)
                t2 = wrap_2pi(eta - delta)
                phi2 = t1 if abs(wrap_pi(t1 - phi)) >= abs(wrap_pi(t2 - phi)) else t2
                cands.append((phi2, px, py, ('s', phi2, px, py, 1)))

    if has_entry:
        surv = []
        for cand in cands:
            if math.hypot(cand[1] - ex, cand[2] - ey) < _EXCLUDE_REL * R:
                continue
            if elem[0] == 'c':
                s = _sep_circle(alpha, x1, y1, ex, ey, cand[1], cand[2])
            else:
                s = _sep_chord(R, phi, tx, ty, ex, ey, cand[1], cand[2])
            if s == 0:
                return TIE, None
            if s > 0:
                surv.append(cand)
    else:
        surv = cands

    if not surv:
        return DEAD_END, None
    if len(surv) == 1:
        return OK, surv[0][3]

    base = elem[1]
    best = None
    best_off = 2.0 * TWO_PI
    second_off = 2.0 * TWO_PI
    for cand in surv:
        off = wrap_2pi(orientation * (cand[0] - base))
        if off < best_off:
            second_off = best_off
            best_off = off
            best = cand
        elif off < second_off:
            second_off = off
    if second_off - best_off < _ANGLE_TIE:
        return TIE, None
    return OK, best[3]


def seed_element(R, r, d, letter, theta):
    """Seed element with inner tangency at angle theta (no entry contact)."""
    th = wrap_2pi(theta)
    if letter == 'c':
        x, y, rho = inscribed_center(R, r, d, th)
        return ('c', th, x, y, rho, 0.0, 0.0, 0)
    return ('s', th, 0.0, 0.0, 0)


def chain_run(R, r, d, word, theta0, orientation=1):
    """Run the cyclic chain for `word` (n letters, n+1 elements).

    Returns (status, fail_index, elements).  On success fail_index is -1 and
    elements holds n+1 tuples; on failure elements is the completed prefix and
    fail_index the 0-based index of the element that could not be built.
    """
    if not annulus_ok(R, r, d):
        return BAD_ANNULUS, 0, []
    n = len(word)
    elems = [seed_element(R, r, d, word[0], theta0)]
    for i in range(1, n + 1):
        status, nxt = step_element(R, r, d, elems[-1], word[i % n], orientation)
        if status != OK:
            return status, i, elems
        elems.append(nxt)
    return OK, -1, elems


def chain_defect(R, r, d, word, theta0, orientation=1):
    """Monodromy defect: progress of element n+1 minus progress of element 1,
    wrapped to (-pi, pi].  Returns (status, defect)."""
    status, _, elems = chain_run(R, r, d, word, theta0, orientation)
    if status != OK:
        return status, 0.0
    return OK, wrap_pi(elems[-1][1] - elems[0][1])


# ---------------------------------------------------------------------------
# lockstep kernel: one lane per chain, all lanes running the same word

# lanes per lockstep pass; every pass holds a few dozen float arrays of
# this length
_LANES = 16384


def _wrap_2pi_many(x):
    """wrap_2pi on an array, with the same arithmetic."""
    y = x - np.floor(x / TWO_PI) * TWO_PI
    return np.where(y >= TWO_PI, y - TWO_PI, y)


def _wrap_pi_many(x):
    y = _wrap_2pi_many(x)
    return np.where(y > math.pi, y - TWO_PI, y)


def _half_angle_roots_many(a, b, c):
    q = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * c), b))
    return 2.0 * np.arctan(q / a), 2.0 * np.arctan(c / q)


def _inscribed_center_many(R, r, d, alpha):
    ca = np.cos(alpha)
    rho = ((R * R - d * d - r * r - 2.0 * r * d * ca)
           / (2.0 * (R + r + d * ca)))
    sa = np.sin(alpha)
    return d + (r + rho) * ca, (r + rho) * sa, rho


def _tie_at_divider(p, span):
    # _sep_circle's test that a contact sits on one of the dividing points
    return (np.minimum(p, TWO_PI - p) < _ANGLE_TIE) | \
        (np.abs(p - span) < _ANGLE_TIE)


def _step_many(R, r, d, u, e, elem, letter, has_entry, orientation):
    """step_element for every lane.  Elements are tuples of arrays laid
    out as the scalar ones, without has_entry:
    ('c', omega, x, y, rho, entry_x, entry_y) and
    ('s', omega, entry_x, entry_y).  Returns (status, next element)."""
    kind, omega = elem[0], elem[1]
    if kind == 'c':
        x1, y1, rho1, ex, ey = elem[2:]
        if letter == 'c':
            ca = np.cos(omega)
            sa = np.sin(omega)
            rdc = 2.0 * u * e * ca
            n = 1.0 - e * e - u * u - rdc
            roots = _half_angle_roots_many(
                4.0 * u * (1.0 + u) * (1.0 + u - e * e) + rdc * rdc,
                -4.0 * u * e * n * sa, -n * n)
            cands = []
            for g in roots:
                beta = _wrap_2pi_many(omega + g)
                x2, y2, rho2 = _inscribed_center_many(R, r, d, beta)
                dist = np.hypot(x2 - x1, y2 - y1)
                cx = x1 + rho1 * (x2 - x1) / dist
                cy = y1 + rho1 * (y2 - y1) / dist
                cands.append((dist != 0.0, ('c', beta, x2, y2, rho2, cx, cy)))
        else:
            psi = np.arccos((r - rho1) / (r + rho1))
            cands = []
            for phi2 in (_wrap_2pi_many(omega + psi),
                         _wrap_2pi_many(omega - psi)):
                cx = x1 + rho1 * np.cos(phi2)
                cy = y1 + rho1 * np.sin(phi2)
                cands.append((True, ('s', phi2, cx, cy)))
    else:
        ex, ey = elem[2:]
        cp = np.cos(omega)
        sp = np.sin(omega)
        tx = d + r * cp
        ty = r * sp
        cands = []
        if letter == 'c':
            n = 1.0 - e * e - u * u - 2.0 * u * e * cp
            roots = _half_angle_roots_many(2.0 * u * (1.0 + u - e * cp),
                                           -4.0 * u * e * sp, -n)
            for g in roots:
                x2, y2, rho2 = _inscribed_center_many(
                    R, r, d, _wrap_2pi_many(omega + g))
                cx = x2 + rho2 * cp
                cy = y2 + rho2 * sp
                beta = _wrap_2pi_many(np.arctan2(y2, x2 - d))
                cands.append((True, ('c', beta, x2, y2, rho2, cx, cy)))
        else:
            # the chord's endpoints, as in chord_points
            b = tx * (-sp) + ty * cp
            root = np.sqrt(b * b - (tx * tx + ty * ty - R * R))
            for s in (-b - root, -b + root):
                px = tx - s * sp
                py = ty + s * cp
                gx = px - d
                eta = np.arctan2(py, gx)
                delta = np.arccos(np.minimum(r / np.hypot(gx, py), 1.0))
                t1 = _wrap_2pi_many(eta + delta)
                t2 = _wrap_2pi_many(eta - delta)
                phi2 = np.where(np.abs(_wrap_pi_many(t1 - omega))
                                >= np.abs(_wrap_pi_many(t2 - omega)), t1, t2)
                cands.append((True, ('s', phi2, px, py)))

    if has_entry:
        if kind == 'c':
            ta = _wrap_2pi_many(omega + math.pi)
            span = _wrap_2pi_many(np.arctan2(y1, x1) - ta)
            pin = _wrap_2pi_many(np.arctan2(ey - y1, ex - x1) - ta)
            tie_in = _tie_at_divider(pin, span)
        else:
            dirx = -sp
            diry = cp
            si = dirx * (ex - tx) + diry * (ey - ty)
            tie_in = np.abs(si) < _SEP_TIE_REL * R
        tie = False
        surv = []
        for valid, cand in cands:
            cx, cy = cand[-2:]
            live = valid & ~(np.hypot(cx - ex, cy - ey) < _EXCLUDE_REL * R)
            if kind == 'c':
                pout = _wrap_2pi_many(np.arctan2(cy - y1, cx - x1) - ta)
                ctie = tie_in | _tie_at_divider(pout, span)
                crosses = (pin < span) != (pout < span)
            else:
                so = dirx * (cx - tx) + diry * (cy - ty)
                ctie = tie_in | (np.abs(so) < _SEP_TIE_REL * R)
                crosses = si * so < 0.0
            tie = tie | (live & ctie)
            surv.append(live & ~ctie & crosses)
    else:
        tie = False
        surv = [np.broadcast_to(c[0], omega.shape) for c in cands]

    (_, e0), (_, e1) = cands
    off0 = _wrap_2pi_many(orientation * (e0[1] - omega))
    off1 = _wrap_2pi_many(orientation * (e1[1] - omega))
    both = surv[0] & surv[1]
    take1 = surv[1] & (~surv[0] | (off1 < off0))
    status = np.where(
        tie | (both & (np.abs(off1 - off0) < _ANGLE_TIE)), TIE,
        np.where(surv[0] | surv[1], OK, DEAD_END)).astype(np.int8)
    nxt = (e0[0],) + tuple(np.where(take1, f1, f0)
                           for f0, f1 in zip(e0[1:], e1[1:]))
    return status, nxt


def chain_defect_many(R, r, d, word, theta, orientation=1):
    """chain_defect for many chains of one word, stepped in lockstep.

    R, r, d and theta broadcast to a common shape, one lane per element.
    Every lane follows the rules of step_element; a lane keeps the status
    of its first failed step, and lanes that fail or are not annuli go on
    computing on meaningless values, with floating-point warnings
    silenced, until the word ends.  Lanes run in passes of at most
    _LANES, so memory stays bounded on large grids.  Returns (status,
    defect) arrays of the broadcast shape: int8 status codes, and defects
    with 0.0 wherever the status is not OK.
    """
    R, r, d, theta = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (R, r, d, theta)))
    shape = R.shape
    # contiguous copies: NumPy's vectorized loops then treat every lane
    # alike, whatever the batch size
    R, r, d, theta = (np.array(v).ravel() for v in (R, r, d, theta))
    status = np.empty(R.size, dtype=np.int8)
    defect = np.empty(R.size)
    for k in range(0, R.size, _LANES):
        lanes = slice(k, k + _LANES)
        status[lanes], defect[lanes] = _lockstep(
            R[lanes], r[lanes], d[lanes], word, theta[lanes], orientation)
    return status.reshape(shape), defect.reshape(shape)


def _lockstep(R, r, d, word, theta, orientation):
    """chain_defect_many on one pass of 1-d lane arrays."""
    status = np.where((R > 0.0) & (r > 0.0) & (d >= 0.0) & (d + r < R),
                      OK, BAD_ANNULUS).astype(np.int8)
    n = len(word)
    with np.errstate(all='ignore'):
        u = r / R
        e = d / R
        th = _wrap_2pi_many(theta)
        if word[0] == 'c':
            x, y, rho = _inscribed_center_many(R, r, d, th)
            elem = ('c', th, x, y, rho, 0.0, 0.0)
        else:
            elem = ('s', th, 0.0, 0.0)
        for i in range(1, n + 1):
            code, elem = _step_many(R, r, d, u, e, elem, word[i % n],
                                    i > 1, orientation)
            status = np.where(status == OK, code, status)
        defect = np.where(status == OK, _wrap_pi_many(elem[1] - th), 0.0)
    return status, defect
