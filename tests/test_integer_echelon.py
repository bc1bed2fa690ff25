"""Integer echelon subspaces against the `Fraction` reduced echelon
reference in `subspace_reference.py`: on random rational matrices with zero,
duplicate and dependent rows and negative leading entries, every result
must match the reference's exactly, and the integer kernel must build no
`Fraction` before the reduced rows are read. The incremental routes (an
adjoined residual, basis extension, residual intersection, one inverse per
cone) are checked against the eliminations they replace."""
from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from generators import blown_up_p3, hexagon, hirzebruch, p1_cubed, projective_space
from subspace_reference import (
    contains as reference_contains,
    extend_basis as reference_extend_basis,
    rref_intersect,
    rref_nullspace,
    rref_solve,
    rref_span,
)

from toricbundles import linalg
from toricbundles.bundle import check_compatibility, tangent_bundle
from toricbundles.linalg import (
    NonUnimodularError,
    Subspace,
    det,
    dot,
    extend_basis,
    integer_row,
    intersect,
    nullspace,
    solve_integer_system,
    solve_rational_system,
    span,
    subspace_sum,
    unimodular_inverse,
)

from conftest import fixture_path

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))


@st.composite
def rows_of_width(draw, width, max_rows=5):
    """Rows with rational entries (denominators <= 5), some zero, some
    repeating an earlier row, some combinations of earlier rows, some with
    a negative leading entry; integer rows are sometimes given as ints."""
    rows = []
    for _ in range(draw(st.integers(0, max_rows))):
        kind = draw(st.sampled_from(("random", "zero", "duplicate", "dependent", "negative")))
        if kind == "zero":
            row = (Fraction(0),) * width
        elif kind == "duplicate" and rows:
            row = draw(st.sampled_from(rows))
        elif kind == "dependent" and rows:
            coeffs = [draw(rationals) for _ in rows]
            row = tuple(
                sum((c * r[i] for c, r in zip(coeffs, rows)), Fraction(0))
                for i in range(width)
            )
        else:
            row = tuple(draw(rationals) for _ in range(width))
            lead = next((x for x in row if x), 0)
            if kind == "negative" and lead > 0:
                row = tuple(-x for x in row)
        rows.append(tuple(Fraction(x) for x in row))
    if draw(st.booleans()):
        rows = [
            tuple(int(x) for x in r) if all(x.denominator == 1 for x in r) else r
            for r in rows
        ]
    return rows


@st.composite
def matrices(draw, max_rows=5):
    width = draw(st.integers(1, 6))
    return width, draw(rows_of_width(width, max_rows))


@st.composite
def matrix_pairs(draw):
    width = draw(st.integers(1, 6))
    return width, draw(rows_of_width(width)), draw(rows_of_width(width))


def _reference_space(rows, width):
    return SimpleNamespace(ambient=width, rows=rref_span(rows, width))


@settings(max_examples=200, deadline=None)
@given(case=matrices())
def test_span_rows_and_sort_key_match_the_reference(case):
    width, rows = case
    space = span(rows, width)
    ref = rref_span(rows, width)
    assert space.rows == ref
    assert space.dim == len(ref)
    assert space.sort_key() == (len(ref), ref)
    for row, col in zip(space.int_rows, space.pivots):
        assert row == integer_row(row) and row[col] > 0
        assert not any(row[:col])


@settings(max_examples=200, deadline=None)
@given(case=matrix_pairs(), data=st.data())
def test_equality_and_hash_match_the_reference(case, data):
    width, rows_a, rows_b = case
    a, b = span(rows_a, width), span(rows_b, width)
    assert (a == b) == (rref_span(rows_a, width) == rref_span(rows_b, width))
    # the same space from a shuffled, rescaled and recombined generating set
    scales = [data.draw(rationals.filter(bool)) for _ in rows_a]
    again = [tuple(s * x for x in r) for s, r in zip(scales, rows_a)]
    if again:
        again.append(tuple(sum(col) for col in zip(*again)))
    again = data.draw(st.permutations(again))
    same = span(again, width)
    assert same == a and hash(same) == hash(a)


@settings(max_examples=200, deadline=None)
@given(case=matrices(), data=st.data())
def test_contains_matches_the_reference(case, data):
    width, rows = case
    space = span(rows, width)
    ref = _reference_space(rows, width)
    probes = data.draw(st.lists(st.tuples(*[rationals] * width), max_size=4))
    probes += [r for r in rows]
    if len(rows) >= 2:
        probes.append(tuple(a - 2 * b for a, b in zip(rows[0], rows[1])))
    for v in probes:
        assert space.contains(v) == reference_contains(ref, v)


@settings(max_examples=200, deadline=None)
@given(case=matrix_pairs())
def test_intersect_and_sum_match_the_reference(case):
    width, rows_a, rows_b = case
    a, b = span(rows_a, width), span(rows_b, width)
    ref_a, ref_b = rref_span(rows_a, width), rref_span(rows_b, width)
    assert intersect(a, b).rows == rref_intersect(ref_a, ref_b, width)
    assert subspace_sum(a, b).rows == rref_span(ref_a + ref_b, width)


@settings(max_examples=200, deadline=None)
@given(case=matrices())
def test_nullspace_is_the_reference_basis_cleared_of_denominators(case):
    width, rows = case
    assert nullspace(rows, width) == [integer_row(x) for x in rref_nullspace(rows, width)]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_solve_rational_system_matches_the_reference(data):
    n = data.draw(st.integers(1, 5))
    matrix = data.draw(rows_of_width(n, max_rows=n).filter(lambda m: len(m) == n))
    rhs = data.draw(st.tuples(*[rationals] * n))
    assert solve_rational_system(matrix, rhs) == rref_solve(matrix, rhs)


@settings(max_examples=200, deadline=None)
@given(case=matrices(), data=st.data())
def test_adjoining_residuals_builds_the_span(case, data):
    width, rows = case
    probes = data.draw(st.lists(st.tuples(*[rationals] * width), max_size=3))
    grown, seen = Subspace.zero(width), []
    for v in rows + probes:
        seen.append(v)
        res = grown.residual(v)
        assert not any(res[c] for c in grown.pivots)
        if any(res):
            grown = grown.adjoin(res)
        expected = span(seen, width)
        assert grown == expected and hash(grown) == hash(expected)
        assert grown.pivots == expected.pivots
    assert grown.rows == rref_span(seen, width)


@settings(max_examples=200, deadline=None)
@given(case=matrix_pairs(), data=st.data())
def test_extend_basis_takes_the_rows_of_the_reference_loop(case, data):
    width, rows_s, rows_t = case
    spanned, target = span(rows_s, width), span(rows_t, width)
    # a preference that shares some of the target's lines
    shared = data.draw(st.lists(st.sampled_from(rows_t), max_size=2)) if rows_t else []
    prefer = span(shared + data.draw(rows_of_width(width, max_rows=2)), width)
    need = data.draw(st.integers(0, width))
    for pref in (None, prefer):
        rows, grown = extend_basis(spanned, target, need, pref)
        assert rows == reference_extend_basis(spanned, target, need, pref)
        assert grown == span(spanned.int_rows + tuple(rows), width)


@settings(max_examples=300, deadline=None)
@given(case=matrix_pairs(),
       relation=st.sampled_from(("random", "u_in_v", "v_in_u", "transverse")))
def test_intersect_matches_the_reference_in_every_position(case, relation):
    width, rows_u, rows_v = case
    if relation == "u_in_v":
        rows_v = rows_v + rows_u
    elif relation == "v_in_u":
        rows_u = rows_u + rows_v
    elif relation == "transverse":
        # keep the rows of V that stay independent of U and the rows kept
        kept = []
        for r in rows_v:
            if len(rref_span(rows_u + kept + [r], width)) > len(rref_span(rows_u + kept, width)):
                kept.append(r)
        rows_v = kept
    u, v = span(rows_u, width), span(rows_v, width)
    expected = rref_intersect(rref_span(rows_u, width), rref_span(rows_v, width), width)
    if relation == "transverse":
        assert expected == ()
    # both orders: the smaller space is reduced modulo the larger either way
    for a, b in ((u, v), (v, u)):
        got = intersect(a, b)
        assert got.rows == expected
        assert got == span(expected, width) and hash(got) == hash(span(expected, width))


CONE_FANS = {
    "P2": projective_space(2), "P3": projective_space(3), "P4": projective_space(4),
    "hexagon": hexagon(), "H0": hirzebruch(0), "H1": hirzebruch(1), "H2": hirzebruch(2),
    "H3": hirzebruch(3), "p1_cubed": p1_cubed(), "blown_up_p3": blown_up_p3(),
}


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(sorted(CONE_FANS)), data=st.data())
def test_cone_inverse_gives_the_solved_characters(name, data):
    fan = CONE_FANS[name]
    for cone in fan.max_cones:
        rays = [fan.rays[i] for i in cone]
        inverse = unimodular_inverse(rays)
        p = data.draw(st.tuples(*[st.integers(-6, 6)] * fan.dim))
        assert tuple(dot(r, p) for r in inverse) == solve_integer_system(rays, p)
        for q in product((0, 1), repeat=fan.dim):
            assert tuple(dot(r, q) for r in inverse) == solve_integer_system(rays, q)


@pytest.mark.parametrize("name", sorted(CONE_FANS))
def test_sheet_characters_solve_each_cone(name):
    fan = CONE_FANS[name]
    sheet = check_compatibility(tangent_bundle(fan))
    for cone, rows in zip(fan.max_cones, sheet.rows):
        rays = [fan.rays[i] for i in cone]
        for row in rows:
            assert row.character == solve_integer_system(rays, row.profile)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_cone_inverse_rejects_exactly_the_non_unimodular(data):
    n = data.draw(st.integers(1, 4))
    matrix = data.draw(st.lists(
        st.tuples(*[st.integers(-2, 2)] * n), min_size=n, max_size=n))
    d = det(matrix)
    if abs(d) != 1:
        with pytest.raises(NonUnimodularError) as err:
            unimodular_inverse(matrix)
        assert err.value.determinant == d
        return
    inverse = unimodular_inverse(matrix)
    columns = list(zip(*matrix))
    for i, r in enumerate(inverse):
        assert tuple(dot(r, c) for c in columns) == tuple(int(i == j) for j in range(n))


def test_cone_inverse_rejects_a_non_unimodular_cone():
    with pytest.raises(NonUnimodularError) as err:
        unimodular_inverse([(1, 0), (1, 2)])
    assert err.value.determinant == 2
    with pytest.raises(NonUnimodularError):
        unimodular_inverse([(1, 2), (2, 4)])
    with pytest.raises(ValueError):
        unimodular_inverse([(1, 0)])


def test_length_mismatch_raises():
    space = span([(1, 2, 3)], 3)
    with pytest.raises(ValueError):
        space.contains((1, 2))
    with pytest.raises(ValueError):
        span([(1, 2)], 3)


class _CountingFraction(Fraction):
    """Counts every construction made through `linalg`'s Fraction name."""

    built = 0

    def __new__(cls, *args, **kwargs):
        _CountingFraction.built += 1
        return super().__new__(cls, *args, **kwargs)


@pytest.fixture
def counted(monkeypatch):
    monkeypatch.setattr(linalg, "Fraction", _CountingFraction)
    _CountingFraction.built = 0
    return _CountingFraction


def test_integer_input_builds_no_fraction_until_rows_are_read(counted):
    u = span([(2, 0, 0, 0), (1, 3, 0, 0), (0, 0, -2, -2)], 4)
    v = span([(1, 1, 0, 0), (0, 0, 0, 5)], 4)
    w = intersect(u, v)
    s = subspace_sum(w, span([(0, 0, 0, 1)], 4))
    assert u.contains((1, 2, 3, 3)) and not v.contains((1, 0, 0, 0))
    assert w.dim == 1 and s.dim == 2
    assert counted.built == 0
    assert w.rows == rref_span(w.int_rows, 4)
    assert counted.built > 0


# Fractions that check_compatibility builds through `linalg` on p3_tangent:
# one reduced row per line of the sheet (4 cones x 3 lines x 3 entries).
# The Fraction kernel this replaced built 636.
P3_TANGENT_FRACTIONS = 36


def test_check_compatibility_builds_few_fractions(counted):
    from toricbundles import load_document

    bundle = load_document(fixture_path("p3_tangent")).bundle
    counted.built = 0
    check_compatibility(bundle)
    assert counted.built <= P3_TANGENT_FRACTIONS
