import random
from decimal import Decimal
from fractions import Fraction
from itertools import product

import polytope_reference
import pytest
from generators import blown_up_p3, hexagon, hirzebruch, p1_cubed, projective_space
from hypothesis import given, settings
from hypothesis import strategies as st
from subspace_reference import matrix_rank

from toricbundles.fan import Fan
from toricbundles.linalg import dot
from toricbundles.polytopes import HPolytope, convex_polygon, newton_polytope
from toricbundles.stability import weights_from_divisor

P2_FAN = Fan(2, [(-1, -1), (1, 0), (0, 1)], [(0, 1), (0, 2), (1, 2)])
BLP2_FAN = Fan(
    2, [(-1, -1), (1, 0), (0, 1), (-1, 0)], [(0, 1), (0, 3), (1, 2), (2, 3)]
)


def _pts(pairs):
    return tuple(sorted(tuple(Fraction(x) for x in p) for p in pairs))


def _translate(p, u):
    """P + u: bounds c_i + <u, v_i>."""
    return HPolytope(p.rays, [c + dot(u, v) for c, v in zip(p.bounds, p.rays)])


def test_newton_triangle_of_d0():
    p = newton_polytope(P2_FAN, (1, 0, 0))
    assert p.vertices() == _pts([(0, 0), (-1, 0), (0, -1)])


def test_newton_blowup_quadrilateral():
    p = newton_polytope(BLP2_FAN, (0, 2, 0, -1))
    assert p.vertices() == _pts([(1, 0), (2, 0), (2, -2), (1, -1)])


def test_newton_zero_divisor_is_origin():
    p = newton_polytope(P2_FAN, (0, 0, 0))
    assert p.vertices() == _pts([(0, 0)])
    assert p.lattice_points() == ((0, 0),)


def test_infeasible_bounds_give_empty_polytope():
    # all bounds -1 on the P2 fan forces x <= -1, y <= -1, x + y >= 1
    p = newton_polytope(P2_FAN, (-1, -1, -1))
    assert p.is_empty()
    assert p.lattice_points() == ()
    # independent feasibility oracle over a dense rational grid
    grid = [Fraction(n, 3) for n in range(-12, 13)]
    assert not any(p.contains((x, y)) for x in grid for y in grid)


def test_nonempty_polytope_without_lattice_points():
    p = newton_polytope(P2_FAN, (1, Fraction(-1, 4), Fraction(-1, 4)))
    assert not p.is_empty()
    assert p.contains((Fraction(-1, 2), Fraction(-1, 2)))
    assert p.lattice_points() == ()


def test_line_segment_polytope_has_two_vertices():
    # degenerate but bounded: y pinched to 0
    fan = Fan(2, [(1, 0), (0, 1), (-1, 0), (0, -1)], [(0, 1), (1, 2), (2, 3), (0, 3)])
    p = HPolytope(fan.rays, (2, 0, 0, 0))
    assert p.vertices() == _pts([(0, 0), (2, 0)])
    assert p.lattice_points() == ((0, 0), (1, 0), (2, 0))


def test_tangent_polytope_lattice_points(p2_tangent):
    from toricbundles.parliament import polytope_of

    p = polytope_of(p2_tangent.bundle, (1, 0))
    # box scan over the known vertices
    assert p.vertices() == _pts([(0, 0), (1, 0), (1, -1)])
    assert set(p.lattice_points()) == {(0, 0), (1, 0), (1, -1)}


def test_vertices_satisfy_constraints_with_enough_active_rows():
    rng = random.Random(2024)
    fans = (P2_FAN, BLP2_FAN)
    for _ in range(100):
        fan = fans[rng.randrange(2)]
        bounds = [rng.randint(-2, 3) for _ in fan.rays]
        p = HPolytope(fan.rays, bounds)
        for v in p.vertices():
            assert p.contains(v)
            active = [ray for ray, c in zip(p.rays, p.bounds) if dot(v, ray) == c]
            assert matrix_rank(active, 2) == 2


def test_lattice_points_match_wide_box_scan():
    # the implementation scans the vertex bounding box; this oracle scans a
    # fixed wide box instead
    rng = random.Random(77)
    for _ in range(100):
        fan = (P2_FAN, BLP2_FAN)[rng.randrange(2)]
        bounds = [rng.randint(-2, 3) for _ in fan.rays]
        p = HPolytope(fan.rays, bounds)
        oracle = {
            pt
            for pt in product(range(-15, 16), repeat=2)
            if all(dot(pt, ray) <= c for ray, c in zip(p.rays, p.bounds))
        }
        assert set(p.lattice_points()) == oracle


def test_float_bounds_are_rejected():
    with pytest.raises(TypeError, match="float"):
        HPolytope(P2_FAN.rays, (0.5, 1, 1))
    with pytest.raises(TypeError, match="float"):
        HPolytope(P2_FAN.rays, iter((1, 1, 2.0)))
    with pytest.raises(TypeError, match="float"):
        newton_polytope(P2_FAN, [0.5, 1, 1])
    # the float used to pass through as its exact binary value
    with pytest.raises(TypeError, match="float"):
        weights_from_divisor(P2_FAN, [0.5, 1, 1])
    assert newton_polytope(P2_FAN, [Fraction(1, 2), 1, 1]).bounds == (Fraction(1, 2), 1, 1)


@pytest.mark.parametrize("bound", ["1", None, Decimal("1")], ids=["str", "None", "Decimal"])
@pytest.mark.parametrize("build", [
    lambda c: HPolytope(P2_FAN.rays, (c, 0, 0)),
    lambda c: weights_from_divisor(P2_FAN, (c, 0, 0)),
], ids=["polytope", "divisor-weights"])
def test_non_rational_bounds_are_refused_when_built(build, bound):
    """Refused where the polytope is built: kept, such a bound fails only
    where it is first read, and in `weights_from_divisor` as an
    `AttributeError`."""
    with pytest.raises(TypeError, match=r"^non-rational bound in \("):
        build(bound)


VERTEX_FANS = (
    P2_FAN,
    BLP2_FAN,
    hexagon(),
    hirzebruch(0),
    hirzebruch(3),
    projective_space(3),
    projective_space(4),
    p1_cubed(),
    blown_up_p3(),
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_vertices_match_the_fraction_reference(data):
    fan = data.draw(st.sampled_from(VERTEX_FANS))
    entry = st.one_of(
        st.integers(-3, 3), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
    )
    bounds = data.draw(st.lists(entry, min_size=len(fan.rays), max_size=len(fan.rays)))
    p = HPolytope(fan.rays, bounds)
    assert p.vertices() == polytope_reference.vertices(p)
    assert all(isinstance(x, Fraction) for v in p.vertices() for x in v)


def test_translate_shifts_vertices():
    p = newton_polytope(P2_FAN, (1, 0, 0))
    q = _translate(p, (2, -1))
    assert q.vertices() == _pts([(2, -1), (1, -1), (2, -2)])


@pytest.mark.parametrize(
    "points, hull",
    [
        ([], []),
        ([(1, 2)], [(1, 2)]),
        ([(1, 2), (1, 2)], [(1, 2)]),
        ([(3, 0), (0, 1)], [(0, 1), (3, 0)]),
        # collinear: only the two ends stay
        ([(2, 2), (0, 0), (1, 1), (3, 3)], [(0, 0), (3, 3)]),
        # repeated corners, an edge midpoint and an interior point
        (
            [(2, 0), (0, 0), (2, 2), (0, 2), (2, 0), (1, 0), (1, 1), (0, 0)],
            [(0, 0), (2, 0), (2, 2), (0, 2)],
        ),
        (
            [(Fraction(1, 2), 0), (0, Fraction(1, 3)), (-1, -1)],
            [(-1, -1), (Fraction(1, 2), 0), (0, Fraction(1, 3))],
        ),
    ],
)
def test_convex_polygon_is_counterclockwise_without_repeats(points, hull):
    assert convex_polygon(points) == hull
