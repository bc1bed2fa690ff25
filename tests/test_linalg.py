import random
from fractions import Fraction

import pytest

from toricbundles.linalg import (
    NonUnimodularError,
    Subspace,
    det,
    dot,
    integer_kernel_basis,
    intersect,
    is_primitive,
    lattice_frame,
    nullspace,
    orthogonal_lattice_basis,
    solve_integer_system,
    solve_rational_system,
    span,
    subspace_sum,
)


def test_span_standard_basis():
    w = span([(1, 0), (0, 1)], 2)
    assert w.is_full() and w.dim == 2


def test_float_entries_are_rejected():
    with pytest.raises(TypeError):
        span([(0.1, 1)], 2)
    with pytest.raises(TypeError):
        span([(Fraction(1, 2), 1.0)], 2)
    line = span([(1, 0)], 2)
    with pytest.raises(TypeError):
        line.contains((0.5, 0))
    with pytest.raises(TypeError):
        line.contains((1.0, 0))
    assert line.contains((Fraction(1, 2), 0))


def test_span_empty():
    w = span([], 3)
    assert w.is_zero() and w.dim == 0


def test_span_hand_row_reduction():
    w = span([(1, 0, 0), (1, 1, 0), (0, 1, 0)], 3)
    assert w.dim == 2
    assert w.rows == (
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1), Fraction(0)),
    )


def test_span_is_canonical_and_idempotent():
    w = span([(2, 4), (1, 3)], 2)
    assert span(w.rows, 2) == w


def _intersect_oracle(u, v):
    # independent route: a vector lies in U iff it is orthogonal to U-perp,
    # so U cap V is the nullspace of the stacked perps
    d = u.ambient
    perp_u = nullspace(u.rows, d) if u.rows else [tuple(Fraction(i == j) for j in range(d)) for i in range(d)]
    perp_v = nullspace(v.rows, d) if v.rows else [tuple(Fraction(i == j) for j in range(d)) for i in range(d)]
    return span(nullspace(perp_u + perp_v, d), d)


def test_intersect_transverse_lines():
    assert intersect(span([(1, 0)], 2), span([(0, 1)], 2)).is_zero()


def test_intersect_idempotent():
    w = span([(1, 2, 3), (0, 1, 1)], 3)
    assert intersect(w, w) == w


def test_intersect_coordinate_planes():
    u = span([(1, 0, 0), (0, 1, 0)], 3)
    v = span([(0, 1, 0), (0, 0, 1)], 3)
    got = intersect(u, v)
    assert got == span([(0, 1, 0)], 3)
    assert got == _intersect_oracle(u, v)


def test_sum_and_membership():
    assert subspace_sum(span([(1, 0)], 2), span([(0, 1)], 2)).is_full()
    assert not subspace_sum(span([(1, 0)], 2), Subspace.zero(2)).contains((0, 1))
    two = [[1, 1], [1, -1]]
    assert len(span(two, 2).rows) == 2  # rank of the 2x2 matrix is 2
    assert subspace_sum(span([two[0]], 2), span([two[1]], 2)).is_full()


def test_dimension_mismatch_errors():
    with pytest.raises(ValueError):
        span([(1, 0, 0)], 2)
    with pytest.raises(ValueError):
        intersect(span([(1, 0)], 2), span([(1, 0, 0)], 3))


def test_modularity_law_on_random_pairs():
    rng = random.Random(421)
    for _ in range(500):
        r = rng.randint(1, 5)
        u = span([[rng.randint(-4, 4) for _ in range(r)] for _ in range(rng.randint(0, r))], r)
        v = span([[rng.randint(-4, 4) for _ in range(r)] for _ in range(rng.randint(0, r))], r)
        assert subspace_sum(u, v).dim + intersect(u, v).dim == u.dim + v.dim
        assert intersect(u, v).dim >= u.dim + v.dim - r


def test_orthogonal_lattice_basis_small_cases():
    assert orthogonal_lattice_basis((1, 0), 2) == [(0, 1)]
    (b,) = orthogonal_lattice_basis((-1, -1), 2)
    assert b in ((1, -1), (-1, 1))


def test_orthogonal_lattice_basis_unimodular_extension():
    rng = random.Random(99)
    from math import gcd

    cases = [(1, 1, 1)]
    while len(cases) < 40:
        d = rng.randint(2, 4)
        v = tuple(rng.randint(-6, 6) for _ in range(d))
        g = 0
        for x in v:
            g = gcd(g, abs(x))
        if g != 1:
            continue
        cases.append(v)
    for v in cases:
        d = len(v)
        basis = orthogonal_lattice_basis(v, d)
        assert len(basis) == d - 1
        for b in basis:
            assert dot(b, v) == 0
        # some integer w with <w, v> = 1 extends the basis unimodularly
        w = None
        for attempt in range(200):
            cand = tuple(rng.randint(-3, 3) for _ in range(d))
            if dot(cand, v) == 1:
                w = cand
                break
        assert w is not None
        assert abs(det([list(w)] + [list(b) for b in basis])) == 1


def test_lattice_frame_is_a_basis_with_a_unit_step_off_the_hyperplane():
    rng = random.Random(7)
    cases = [(1,), (-1,), (1, 0), (-1, -1), (2, -3), (1, 1, 1), (-6, 10, 15)]
    while len(cases) < 60:
        v = tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 5)))
        if any(v) and is_primitive(v):
            cases.append(v)
    for v in cases:
        w, basis = lattice_frame(v, len(v))
        assert dot(v, w) == 1
        assert basis == integer_kernel_basis([v], len(v))
        assert abs(det([list(w)] + [list(b) for b in basis])) == 1
    with pytest.raises(ValueError):
        lattice_frame((2, 4), 2)


def test_orthogonal_lattice_basis_rejects_bad_input():
    with pytest.raises(ValueError):
        orthogonal_lattice_basis((0, 0), 2)
    with pytest.raises(ValueError):
        orthogonal_lattice_basis((2, 4), 2)


def test_solve_integer_system_identity():
    assert solve_integer_system([[1, 0], [0, 1]], (1, 0)) == (1, 0)


def test_solve_integer_system_places_square_character():
    # rays v1=(1,0), v0=(-1,-1); jumps (1, 0) place the character at (1,-1)
    assert solve_integer_system([[1, 0], [-1, -1]], (1, 0)) == (1, -1)


def test_solve_integer_system_triangle_character():
    # rays v0=(-1,-1), v3=(-1,0); jumps (4, 1) place the character at (-1,-3)
    assert solve_integer_system([[-1, -1], [-1, 0]], (4, 1)) == (-1, -3)


def test_solve_integer_system_rejects_non_unimodular():
    with pytest.raises(NonUnimodularError):
        solve_integer_system([[2, 0], [0, 1]], (2, 1))


@pytest.mark.parametrize(
    "rows, expected",
    [
        ([], 1),
        ([[-3]], -3),
        ([[1, 0], [0, 1]], 1),
        ([[0, 1], [1, 0]], -1),  # one row swap
        ([[2, 1], [7, 4]], 1),
        ([[1, 2], [3, 4]], -2),
        ([[0, 0, 1], [0, 1, 0], [1, 0, 0]], -1),
        ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 1),  # two row swaps
        ([[2, -1, 0], [1, 3, 2], [0, 5, -4]], -48),
        ([[1, 2], [2, 4]], 0),
        ([[1, 2, 3], [4, 5, 6], [7, 8, 9]], 0),
        ([[0, 0], [0, 0]], 0),
    ],
)
def test_det_is_signed_and_zero_when_singular(rows, expected):
    assert det(rows) == expected


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        det([[1, 2]])


@pytest.mark.parametrize(
    "matrix, rhs",
    [
        ([[1, 2], [2, 4]], (1, 2)),  # consistent
        ([[1, 2], [2, 4]], (1, 3)),  # inconsistent
        ([[0, 0], [0, 1]], (0, 1)),
        ([[1, 1, 0], [0, 1, 1], [1, 2, 1]], (1, 1, 2)),
    ],
)
def test_solve_rational_system_singular_returns_none(matrix, rhs):
    assert solve_rational_system(matrix, rhs) is None
