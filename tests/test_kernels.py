"""Tests for the chain kernels: semantics and parity with bracketed
root finding."""

import math
import random
import warnings

import numpy as np
import pytest

import bracketed_oracle as oracle
import closurelab
from closurelab import _kernels as ref

TWO_PI = 2.0 * math.pi


def random_valid(rng, margin=0.05):
    r = rng.uniform(0.05, 0.45)
    d = rng.uniform(0.0, 1.0 - r - margin)
    return 1.0, r, d


class TestScalarHelpers:
    def test_wrap_2pi_range(self):
        for x in (-7.0, -math.pi, 0.0, 1.0, 9.5):
            w = ref.wrap_2pi(x)
            assert 0.0 <= w < TWO_PI
            assert math.remainder(w - x, TWO_PI) == pytest.approx(0.0,
                                                                  abs=1e-12)

    def test_wrap_pi_range(self):
        for x in (-7.0, -math.pi, 0.0, 1.0, 9.5):
            w = ref.wrap_pi(x)
            assert -math.pi < w <= math.pi

    def test_annulus_predicate(self):
        assert ref.annulus_ok(3.0, 1.0, 1.5)
        assert not ref.annulus_ok(3.0, 1.0, 2.0)
        assert not ref.annulus_ok(3.0, 1.0, -0.1)
        assert not ref.annulus_ok(0.0, 1.0, 0.0)
        assert not ref.annulus_ok(3.0, 0.0, 0.0)


class TestInscribedCircle:
    def test_closed_form_radius(self):
        # rho = (R^2 - d^2 - r^2 - 2 r d cos a) / (2 (R + r + d cos a))
        R, r, d = 3.5, 1.0, 1.5
        for alpha in (0.0, 0.9, 2.0, math.pi, 4.5):
            rho = ref.inscribed_rho(R, r, d, alpha)
            num = R * R - d * d - r * r - 2.0 * r * d * math.cos(alpha)
            den = 2.0 * (R + r + d * math.cos(alpha))
            assert rho == pytest.approx(num / den)

    def test_tangency_residuals(self):
        rng = random.Random(3)
        for _ in range(50):
            R, r, d = random_valid(rng)
            alpha = rng.uniform(0.0, TWO_PI)
            x, y, rho = ref.inscribed_center(R, r, d, alpha)
            assert rho > 0.0
            assert math.hypot(x, y) == pytest.approx(R - rho, abs=1e-12)
            assert math.hypot(x - d, y) == pytest.approx(r + rho, abs=1e-12)
            assert math.atan2(y, x - d) == pytest.approx(
                ref.wrap_pi(alpha), abs=1e-12)


class TestChordPoints:
    def test_endpoints_on_outer_circle(self):
        rng = random.Random(4)
        for _ in range(50):
            R, r, d = random_valid(rng)
            phi = rng.uniform(0.0, TWO_PI)
            tx, ty, e1x, e1y, e2x, e2y = ref.chord_points(R, r, d, phi)
            assert math.hypot(e1x, e1y) == pytest.approx(R, abs=1e-12)
            assert math.hypot(e2x, e2y) == pytest.approx(R, abs=1e-12)
            assert math.hypot(tx - d, ty) == pytest.approx(r, abs=1e-12)
            # tangency between the endpoints
            ux, uy = -math.sin(phi), math.cos(phi)
            s1 = ux * (e1x - tx) + uy * (e1y - ty)
            s2 = ux * (e2x - tx) + uy * (e2y - ty)
            assert s1 * s2 < 0.0


class TestTangentCirclesToChord:
    def newton_oracle(self, R, r, d, phi, grid=48):
        """Damped Newton on the 3-residual system from dense starts."""
        ux, uy = math.cos(phi), math.sin(phi)
        ct = ux * d + r
        found = []
        for i in range(grid):
            alpha = TWO_PI * i / grid
            x, y, rho = ref.inscribed_center(R, r, d, alpha)
            for _ in range(80):
                do = math.hypot(x, y)
                di = math.hypot(x - d, y)
                if do == 0.0 or di == 0.0:
                    break
                f1 = do - (R - rho)
                f2 = di - (r + rho)
                f3 = (ux * x + uy * y - ct) + rho
                j = [[x / do, y / do, 1.0],
                     [(x - d) / di, y / di, -1.0],
                     [ux, uy, 1.0]]
                det = (j[0][0] * (j[1][1] * j[2][2] - j[1][2] * j[2][1])
                       - j[0][1] * (j[1][0] * j[2][2] - j[1][2] * j[2][0])
                       + j[0][2] * (j[1][0] * j[2][1] - j[1][1] * j[2][0]))
                if abs(det) < 1e-14:
                    break
                # Cramer solve for the Newton step
                def rep(col, vals, jj=j):
                    m = [row[:] for row in jj]
                    for k in range(3):
                        m[k][col] = vals[k]
                    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                            - m[0][1] * (m[1][0] * m[2][2]
                                         - m[1][2] * m[2][0])
                            + m[0][2] * (m[1][0] * m[2][1]
                                         - m[1][1] * m[2][0]))
                rhs = [-f1, -f2, -f3]
                dx = rep(0, rhs) / det
                dy = rep(1, rhs) / det
                dr = rep(2, rhs) / det
                scale = 1.0
                if rho + dr <= 0.0:
                    scale = 0.5 * rho / max(-dr, 1e-300)
                x += scale * dx
                y += scale * dy
                rho += scale * dr
                if max(abs(dx), abs(dy), abs(dr)) < 1e-14:
                    break
            do = math.hypot(x, y)
            di = math.hypot(x - d, y)
            ok = (abs(do - (R - rho)) < 1e-10
                  and abs(di - (r + rho)) < 1e-10
                  and abs(ux * x + uy * y - ct + rho) < 1e-10
                  and rho > 1e-12)
            if ok and all(math.hypot(x - fx, y - fy) > 1e-7
                          for fx, fy, _ in found):
                found.append((x, y, rho))
        return found

    def test_matches_newton_oracle(self):
        rng = random.Random(11)
        for _ in range(20):
            R, r, d = random_valid(rng)
            phi = rng.uniform(0.0, TWO_PI)
            got = sorted(ref.tangent_circles_to_chord(R, r, d, phi))
            want = sorted(self.newton_oracle(R, r, d, phi))
            assert len(got) == len(want) == 2
            for g, w in zip(got, want):
                assert g[0] == pytest.approx(w[0], abs=1e-9)
                assert g[1] == pytest.approx(w[1], abs=1e-9)
                assert g[2] == pytest.approx(w[2], abs=1e-9)

    def test_residuals(self):
        rng = random.Random(12)
        for _ in range(50):
            R, r, d = random_valid(rng)
            phi = rng.uniform(0.0, TWO_PI)
            sols = ref.tangent_circles_to_chord(R, r, d, phi)
            assert len(sols) == 2
            ux, uy = math.cos(phi), math.sin(phi)
            ct = ux * d + r
            for x, y, rho in sols:
                assert rho > 0.0
                assert math.hypot(x, y) == pytest.approx(R - rho, abs=1e-11)
                assert math.hypot(x - d, y) == pytest.approx(r + rho,
                                                             abs=1e-11)
                assert ct - (ux * x + uy * y) == pytest.approx(rho,
                                                               abs=1e-11)


class TestSteinerPair:
    def test_concentric_closed_form(self):
        # neighbour separation 2*arcsin((R-r)/(R+r))
        R, r = 3.0, 1.0
        betas = sorted(ref.wrap_pi(b) for b in ref.steiner_pair(R, r, 0.0,
                                                                0.0))
        expect = 2.0 * math.asin((R - r) / (R + r))
        assert betas[0] == pytest.approx(-expect)
        assert betas[1] == pytest.approx(expect)

    def test_tangency_general(self):
        rng = random.Random(13)
        for _ in range(50):
            R, r, d = random_valid(rng)
            alpha = rng.uniform(0.0, TWO_PI)
            x1, y1, rho1 = ref.inscribed_center(R, r, d, alpha)
            pair = ref.steiner_pair(R, r, d, alpha)
            assert len(pair) == 2
            for beta in pair:
                x2, y2, rho2 = ref.inscribed_center(R, r, d, beta)
                gap = math.hypot(x2 - x1, y2 - y1) - rho1 - rho2
                assert gap == pytest.approx(0.0, abs=1e-10)


class TestChainKernel:
    def test_certified_closures(self):
        cases = [
            ("cscs", 3.0, 1.0, 0.0),
            ("cscscs", 7.0, 1.0, 0.0),
            ("cscscscs", 7.0 + 4.0 * math.sqrt(2.0), 1.0, 0.0),
            ("sss", 2.0, 1.0, 0.0),
            ("cccccc", 3.0, 1.0, 0.0),
            ("cscs", 1.0, 0.2, math.sqrt(0.48)),
        ]
        for word, R, r, d in cases:
            for theta in (0.0, 0.7, 2.9):
                status, defect = ref.chain_defect(R, r, d, word, theta)
                assert status == ref.OK
                assert abs(defect) < 1e-9, (word, R, r, d, theta, defect)

    def test_defects_do_not_depend_on_scale(self):
        for word in ("cscs", "ccsc", "ccss"):
            status, base = ref.chain_defect(1.0, 0.25, 0.3, word, 0.4)
            assert status == ref.OK
            for scale in (1e-150, 3.0, 1e150):
                status, defect = ref.chain_defect(
                    scale, 0.25 * scale, 0.3 * scale, word, 0.4)
                assert status == ref.OK
                assert defect == pytest.approx(base, abs=1e-12)

    def test_bad_annulus_status(self):
        status, _, elems = ref.chain_run(3.0, 1.0, 2.5, "cscs", 0.0)
        assert status == ref.BAD_ANNULUS
        assert elems == []

    def test_element_counts(self):
        status, idx, elems = ref.chain_run(3.0, 1.0, 0.0, "cscs", 0.0)
        assert status == ref.OK
        assert idx == -1
        assert len(elems) == 5


class TestKernelApi:
    def test_exports_the_kernel_api(self):
        assert closurelab.KERNEL_BACKEND == ref.BACKEND == "python"
        for name in ("chain_defect", "chain_run", "step_element",
                     "steiner_pair", "tangent_circles_to_chord"):
            assert callable(getattr(ref, name))
        assert (ref.OK, ref.DEAD_END, ref.TIE, ref.BAD_ANNULUS) == \
            (0, 1, 2, 3)


class TestOracleParity:
    """The closed forms against bracketed root finding (tests/
    bracketed_oracle.py) wherever the brackets find both roots."""

    @staticmethod
    def annuli(seed, count):
        rng = random.Random(seed)
        for _ in range(count):
            R = rng.choice((1.0, 0.37, 3.0, 12.5))
            r = rng.uniform(0.02, 0.98)
            d = rng.uniform(0.0, 1.0 - r) * rng.choice((1.0, 0.999999))
            yield R, R * r, R * d, rng.uniform(0.0, TWO_PI)

    def test_steiner_pair(self):
        compared = 0
        for R, r, d, alpha in self.annuli(31, 1500):
            got = ref.steiner_pair(R, r, d, alpha)
            assert len(got) == 2
            want = sorted(oracle.steiner_pair(R, r, d, alpha))
            if len(want) == 2:
                compared += 1
                for g, w in zip(got, want):
                    assert abs(ref.wrap_pi(g - w)) <= 1e-12
        assert compared > 1200

    def test_tangent_circles_to_chord(self):
        compared = 0
        for R, r, d, phi in self.annuli(32, 1500):
            got = ref.tangent_circles_to_chord(R, r, d, phi)
            assert len(got) == 2
            want = sorted(oracle.tangent_circles_to_chord(R, r, d, phi))
            if len(want) == 2:
                compared += 1
                for g, w in zip(sorted(got), want):
                    for a, b in zip(g, w):
                        assert abs(a - b) <= 1e-12 * R
        assert compared > 1200

    def test_thin_annulus_keeps_both_neighbours(self):
        # both neighbours fall into one of the oracle's 64 brackets
        R, r, alpha = 1.0, 0.97, 1.8
        assert oracle.steiner_pair(R, r, 0.0, alpha) == []
        step = 2.0 * math.asin((R - r) / (R + r))
        got = sorted(ref.wrap_pi(b - alpha)
                     for b in ref.steiner_pair(R, r, 0.0, alpha))
        assert got == pytest.approx([-step, step], abs=1e-14)


# words of the parity tests: every letter pair, lengths 3 to 6
PARITY_WORDS = ("cccc", "cscs", "ssss", "ccs", "cssc", "sccs", "cscsss")


def assert_scalar_parity(R, r, d, word, theta, orientation=1):
    """chain_defect_many against chain_defect lane by lane: the same
    status everywhere, defects within 1e-12 where the chain completes.
    NumPy's vectorized arctan, arctan2, arccos and hypot may differ from
    libm in the last bit, so equal bits cannot be required."""
    R, r, d, theta = np.broadcast_arrays(R, r, d, theta)
    status, defect = ref.chain_defect_many(R, r, d, word, theta, orientation)
    assert status.dtype == np.int8 and status.shape == R.shape
    for k in np.ndindex(R.shape):
        want = ref.chain_defect(float(R[k]), float(r[k]), float(d[k]), word,
                                float(theta[k]), orientation)
        assert int(status[k]) == want[0], (word, k)
        assert abs(float(defect[k]) - want[1]) <= 1e-12, (word, k)
    return status


class TestLockstepParity:
    @pytest.mark.parametrize("word", PARITY_WORDS)
    @pytest.mark.parametrize("nr,nd", [(64, 72), (96, 48)])
    def test_scan_grids(self, word, nr, nd):
        r = np.array([(i + 1) / (nr + 1) for i in range(nr)])[:, None]
        d = np.array([j / nd for j in range(nd)])[None, :]
        status = assert_scalar_parity(1.0, r, d, word, 0.0)
        # the cells off the annulus triangle are the bad-annulus lanes
        assert np.array_equal(status == ref.BAD_ANNULUS, r + d >= 1.0)

    @pytest.mark.parametrize("orientation", [1, -1])
    def test_random_eccentric_annuli(self, orientation):
        rng = random.Random(41 + orientation)
        lanes = []
        for _ in range(3000):
            R = rng.choice((1.0, 0.37, 3.0, 12.5))
            r = rng.uniform(0.02, 0.98)
            d = rng.uniform(0.001, 1.0 - r) * rng.choice((1.0, 0.999999))
            lanes.append((R, R * r, R * d, rng.uniform(-7.0, 7.0)))
        R, r, d, theta = (np.array(col) for col in zip(*lanes))
        for word in PARITY_WORDS:
            assert_scalar_parity(R, r, d, word, theta, orientation)

    def test_dead_end_and_bad_annulus_lanes(self):
        # ccs from theta = 0 dies at index 2 when the inner circle is 1e-7
        # from the outer one; the other lanes are not annuli
        R = [1.0, 1.0, 1.0, 1.0, 0.0, 1.0]
        r = [0.5, 0.5, 0.5, 0.0, 0.1, 0.2]
        d = [0.4999999, 0.3, 0.5, 0.2, 0.0, -0.1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status = assert_scalar_parity(R, r, d, "ccs", 0.0)
        assert status.tolist() == \
            [ref.DEAD_END, ref.OK] + [ref.BAD_ANNULUS] * 4
        _, defect = ref.chain_defect_many(R, r, d, "ccs", 0.0)
        assert defect[0] == 0.0 and defect[2:].tolist() == [0.0] * 4
