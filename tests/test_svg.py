import pytest

from toricbundles.bundle import line_bundle, tangent_bundle
from toricbundles.fan import Fan, walls
from toricbundles.parliament import parliament
from toricbundles.stability import restrict_to_curve
from toricbundles.svg import render_svg

P2_FAN = Fan(2, [(-1, -1), (1, 0), (0, 1)], [(0, 1), (0, 2), (1, 2)])


def test_render_tangent_has_three_polygons_and_marker_classes():
    parl = parliament(tangent_bundle(P2_FAN))
    text = render_svg(parl)
    assert text.count('class="poly"') == 3  # three filled triangles
    assert text.count('class="mark"') == 6  # two characters per cone
    assert "e0" in text and "e2" in text


def test_render_is_deterministic():
    parl = parliament(tangent_bundle(P2_FAN))
    assert render_svg(parl) == render_svg(parl)


def test_render_empty_polytope_as_label_only():
    parl = parliament(line_bundle(P2_FAN, (-1, 0, 0)))
    text = render_svg(parl)
    assert "empty polytope" in text
    assert 'class="poly"' not in text


def test_render_wall_overlay(blp2_sum):
    wall = walls(blp2_sum.fan)[0]
    segments = restrict_to_curve(blp2_sum.bundle, wall).segments
    parl = parliament(blp2_sum.bundle)
    text = render_svg(parl, wall_segments=segments)
    assert text.count('class="seg"') == 2


def test_render_rejects_non_surfaces(documents):
    parl = parliament(documents["p3_tangent"].bundle)
    with pytest.raises(ValueError):
        render_svg(parl)
