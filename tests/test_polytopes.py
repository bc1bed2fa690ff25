import random
from fractions import Fraction
from itertools import product


from toricbundles.fan import Fan
from toricbundles.linalg import dot, matrix_rank
from toricbundles.polytopes import HPolytope, newton_polytope

P2_FAN = Fan(2, [(-1, -1), (1, 0), (0, 1)], [(0, 1), (0, 2), (1, 2)])
BLP2_FAN = Fan(
    2, [(-1, -1), (1, 0), (0, 1), (-1, 0)], [(0, 1), (0, 3), (1, 2), (2, 3)]
)


def _pts(pairs):
    return tuple(sorted(tuple(Fraction(x) for x in p) for p in pairs))


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


def test_translate_shifts_vertices():
    p = newton_polytope(P2_FAN, (1, 0, 0))
    q = p.translate((2, -1))
    assert q.vertices() == _pts([(2, -1), (1, -1), (2, -2)])
