"""Tests for deterministic SVG scene rendering."""

import math

from closurelab.chains import Word
from closurelab.geometry import Annulus
from closurelab.render import render_scene
from closurelab.verification import fitted_gamma

CONCENTRIC = Annulus.canonical(3.0, 1.0, 0.0)
ECCENTRIC = Annulus.canonical(1.0, 0.25, 0.3)
# inner circle 1e-7 from the outer one: ccs dies at index 2 from theta 0
DEAD = Annulus.canonical(1.0, 0.5, 0.4999999)


class TestClosedScenes:
    def test_pair_square_counts(self):
        svg, complete = render_scene(CONCENTRIC, Word("cscs"))
        assert complete is True
        assert svg.count('class="chain-circle"') == 2
        assert svg.count('class="chain-chord"') == 2
        assert svg.count('class="outer"') == 1
        assert svg.count('class="inner"') == 1
        assert "status=closed" in svg
        assert ">closed defect=" in svg

    def test_pair_hexagon_counts(self):
        svg, complete = render_scene(Annulus.canonical(7.0, 1.0, 0.0),
                                     Word("cscscs"))
        assert complete is True
        assert svg.count('class="chain-circle"') == 3
        assert svg.count('class="chain-chord"') == 3
        assert "status=closed" in svg

    def test_viewbox_pads_outer_circle(self):
        svg, _ = render_scene(CONCENTRIC, Word("cscs"))
        box = svg.split('viewBox="', 1)[1].split('"', 1)[0]
        x0, y0, width, height = (float(v) for v in box.split())
        assert x0 == -1.05 * 3.0
        assert y0 == -1.05 * 3.0
        assert width == height == 2.1 * 3.0

    def test_y_axis_flip_wrapper(self):
        svg, _ = render_scene(CONCENTRIC, Word("cscs"))
        assert '<g transform="scale(1 -1)">' in svg
        assert svg.count("</g>") == 1


class TestOpenAndPartialScenes:
    def test_open_chain_draws_final_element(self):
        svg, complete = render_scene(Annulus.canonical(4.0, 1.0, 0.0),
                                     Word("cscs"))
        assert complete is True
        # four word elements plus the mismatched closing circle
        assert svg.count('class="chain-circle"') == 3
        assert svg.count('class="chain-chord"') == 2
        assert "status=open" in svg

    def test_dead_chain_is_partial(self):
        svg, complete = render_scene(DEAD, Word("ccs"))
        assert complete is False
        assert svg.count('class="chain-circle"') == 2
        assert "status=partial" in svg
        assert "error=DeadEndError@2" in svg
        assert ">partial</text>" in svg


class TestDeterminismAndOverlay:
    def test_identical_inputs_identical_bytes(self):
        first = render_scene(CONCENTRIC, Word("cscs"), theta0=0.4)
        second = render_scene(CONCENTRIC, Word("cscs"), theta0=0.4)
        assert first == second

    def test_theta_changes_bytes(self):
        base, _ = render_scene(CONCENTRIC, Word("cscs"))
        moved, _ = render_scene(CONCENTRIC, Word("cscs"), theta0=0.1)
        assert base != moved

    def test_gamma_overlay_polyline(self):
        gamma = fitted_gamma(ECCENTRIC)
        plain, _ = render_scene(ECCENTRIC, Word("cscs"))
        overlaid, _ = render_scene(ECCENTRIC, Word("cscs"), gamma=gamma)
        assert 'class="gamma"' not in plain
        assert overlaid.count('class="gamma"') == 1
        assert overlaid.count("polyline") == 1

    def test_no_volatile_content(self):
        svg, _ = render_scene(CONCENTRIC, Word("cscs"))
        lowered = svg.lower()
        for token in ("date", "time", "user", "host"):
            assert token not in lowered

    def test_desc_carries_scene_parameters(self):
        svg, _ = render_scene(ECCENTRIC, Word("cscs"), theta0=0.7)
        assert "annulus R=1.0 r=0.25 d=0.3" in svg
        assert "word=cscs" in svg
        assert "theta0=0.7" in svg

    def test_trailing_newline(self):
        svg, _ = render_scene(CONCENTRIC, Word("cscs"))
        assert svg.endswith("</svg>\n")
