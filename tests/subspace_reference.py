"""Reference implementations on rational subspaces, kept for tests only.

The library decides closure, flats and slopes from echelon residuals and
level masks of the ground set, and profile multiplicities from finite
differences over a zero-pruned intersection walk. These are the earlier
routes through `Subspace.contains`, `intersect`, `Fraction` echelon forms
and inclusion-exclusion over every level tuple, which the differential tests
compare against, plus the seeded random-subspace slope probe, the basis
extension that re-eliminated after every row it took, the ground-set sweep
that spanned the rows inside each lattice element afresh, the per-flat
`Fraction` stability decision that the integer decision on (c1, rank)
classes is checked against, the `Fraction` reduced echelon kernel (`_rref`,
`reduce`, `contains` and the `rref_*` routes built on it) that the integer
echelon rows of `linalg.Subspace` and `integer_rank` are checked against,
and the per-dimension facet volumes (vertices, coordinates in an orthogonal
lattice basis, hull and shoelace for d <= 3) that the lattice-volume
recursion replaced.

It also holds two sum-condition checks that the package proves rather than
runs, as the `bundle` and `matroid.is_subbundle` docstrings argue: on every
split the greedy pass returns, and, for the intersected filtrations, on the
lines inside F of a split that takes them first. `verified_splits` runs the
first on every split the package makes while it is open.
"""
from __future__ import annotations

import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import product
from math import lcm

import pytest

from toricbundles import bundle as bundle_module
from toricbundles import linalg
from toricbundles import matroid as matroid_module
from toricbundles.bundle import IncompatibilityWitness, check_compatibility
from toricbundles.linalg import (
    Subspace,
    dot,
    intersect,
    orthogonal_lattice_basis,
    solve_rational_system,
    span,
    subspace_sum,
)
from toricbundles.matroid import bundle_ground_set, proper_nonzero_flats
from toricbundles.polytopes import HPolytope, convex_polygon
from toricbundles.stability import FlatSlope, Order, StabilityReport, c1, slope


# ---------------------------------------------------------------------------
# Fraction echelon forms: the earlier kernel of `linalg`, against which the
# integer echelon rows are checked


def vector(entries, dim=None):
    v = tuple(Fraction(x) for x in entries)
    if dim is not None and len(v) != dim:
        raise ValueError(f"expected a vector of length {dim}, got {len(v)}")
    return v


def is_zero_vector(v) -> bool:
    return all(x == 0 for x in v)


def _rref(rows, width):
    """Reduced row echelon form; returns the nonzero rows (pivots 1,
    zeros above and below each pivot, pivot columns strictly increasing)."""
    mat = [[Fraction(x) for x in r] for r in rows]
    for r in mat:
        if len(r) != width:
            raise ValueError(f"row of length {len(r)} in a width-{width} matrix")
    nrows = len(mat)
    row = 0
    for col in range(width):
        piv = None
        for i in range(row, nrows):
            if mat[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        mat[row], mat[piv] = mat[piv], mat[row]
        inv = mat[row][col]
        if inv != 1:
            mat[row] = [x / inv for x in mat[row]]
        for i in range(nrows):
            if i != row and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[row])]
        row += 1
        if row == nrows:
            break
    return [tuple(r) for r in mat[:row]]


def reduce(self, v):
    """Residual of v after eliminating against the basis rows of the
    subspace `self`."""
    w = list(vector(v, self.ambient))
    for row in self.rows:
        piv = next(i for i, x in enumerate(row) if x != 0)
        if w[piv] != 0:
            f = w[piv]
            w = [a - f * b for a, b in zip(w, row)]
    return tuple(w)


def contains(self, v) -> bool:
    return is_zero_vector(reduce(self, v))


def rref_span(vectors, width):
    """The reduced echelon rows of the span, as `Subspace.rows` reads them."""
    return tuple(_rref([vector(v, width) for v in vectors], width))


def rref_nullspace(rows, width):
    """Rational basis of {x : M x = 0}: 1 at each free column."""
    red = _rref(rows, width)
    pivots = [next(i for i, x in enumerate(r) if x != 0) for r in red]
    basis = []
    for f in (c for c in range(width) if c not in pivots):
        x = [Fraction(0)] * width
        x[f] = Fraction(1)
        for r, p in zip(red, pivots):
            x[p] = -r[f]
        basis.append(tuple(x))
    return basis


def rref_intersect(u_rows, v_rows, width):
    """Reduced echelon rows of U n V from the kernel of (a, b) -> a.U - b.V."""
    if not u_rows or not v_rows:
        return ()
    eqs = [tuple(r[i] for r in u_rows) + tuple(-r[i] for r in v_rows) for i in range(width)]
    vecs = []
    for k in rref_nullspace(eqs, len(u_rows) + len(v_rows)):
        a = k[: len(u_rows)]
        vecs.append(tuple(
            sum((a[j] * u_rows[j][i] for j in range(len(u_rows))), Fraction(0))
            for i in range(width)
        ))
    return rref_span(vecs, width)


def extend_basis(spanned, target, need, prefer=None):
    """`linalg.extend_basis` as a loop of membership tests and subspace
    sums, one fresh elimination per row taken; returns the rows only."""
    pools = [target] if prefer is None else [intersect(target, prefer), target]
    rows = []
    for pool in pools:
        for cand in pool.int_rows:
            if len(rows) == need:
                return rows
            if not spanned.contains(cand):
                rows.append(cand)
                spanned = subspace_sum(spanned, span([cand], spanned.ambient))
    return rows


def ground_set(lattice):
    """(rows, steps) of `matroid.ground_set`, with the ground rows inside
    each lattice element spanned afresh before they are extended."""
    r = lattice.ambient
    rows, steps = [], []
    maxdim = max((w.dim for w in lattice.elements), default=0)
    for k in range(1, maxdim + 1):
        for v_elt in lattice.by_dimension(k):
            spanned = span([g for g in rows if v_elt.contains(g)], r)
            need = v_elt.dim - spanned.dim
            if need == 0:
                continue
            added, _ = linalg.extend_basis(spanned, v_elt, need)
            rows.extend(added)
            steps.extend([v_elt] * need)
    return tuple(rows), tuple(steps)


def rref_solve(matrix, rhs):
    """Unique solution of a square system, or None when singular."""
    n = len(matrix)
    red = _rref([tuple(row) + (rhs[i],) for i, row in enumerate(matrix)], n + 1)
    if any(i >= len(red) or red[i][i] == 0 for i in range(n)):
        return None
    return tuple(r[n] for r in red[:n])


def matrix_rank(rows, width):
    """Rank as the number of rows of the `Fraction` reduced echelon form."""
    return len(_rref(rows, width))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _facet_normalized_volume(poly: HPolytope, ray, bound) -> Fraction:
    """Lattice-normalized (d-1)-volume of the facet with outer normal `ray`,
    measured in coordinates of an orthogonal lattice basis."""
    verts = [p for p in poly.vertices() if dot(p, ray) == bound]
    d = poly.dim
    if d == 1:
        return Fraction(1) if verts else Fraction(0)
    if len(verts) < 2:
        return Fraction(0)
    basis = orthogonal_lattice_basis(ray, d)
    base = verts[0]
    coords = []
    for p in verts:
        diff = vec_sub(vector(p), vector(base))
        # express diff in the orthogonal basis plus the ray direction; the
        # ray coefficient is zero because both points lie on the facet
        cols = list(basis) + [ray]
        sol = solve_rational_system(
            [[Fraction(cols[k][i]) for k in range(d)] for i in range(d)],
            diff,
        )
        assert sol is not None and sol[-1] == 0
        coords.append(sol[: d - 1])
    if d == 2:
        xs = [c[0] for c in coords]
        return max(xs) - min(xs)
    if d == 3:
        hull = convex_polygon(coords)
        if len(hull) < 3:
            return Fraction(0)
        twice_area = Fraction(0)
        for (x1, y1), (x2, y2) in zip(hull, hull[1:] + hull[:1]):
            twice_area += x1 * y2 - x2 * y1
        return abs(twice_area)
    raise NotImplementedError(
        "facet volumes are implemented exactly for fans of dimension <= 3"
    )


def closure(gs, subset):
    """(indices, span) of the smallest flat containing the subset."""
    sp = span([gs.vectors[i] for i in sorted(set(subset))], gs.ambient)
    return gs.indices_in(sp), sp


def enumerate_flats(gs):
    """Every flat as (rank, indices, span), sorted by (rank, indices)."""
    empty = closure(gs, ())
    found = {empty[0]: empty[1]}
    frontier = [empty[0]]
    while frontier:
        nxt = []
        for indices in frontier:
            for e in range(len(gs.vectors)):
                if e in indices:
                    continue
                bigger, sp = closure(gs, indices + (e,))
                if bigger not in found:
                    found[bigger] = sp
                    nxt.append(bigger)
        frontier = nxt
    return tuple(sorted((sp.dim, indices, sp) for indices, sp in found.items()))


def check_stability(bundle, pol):
    """(mu, [(indices, rank, slope, relation)], stable, semistable,
    witness indices) from slopes of the flat spans."""
    gs = bundle_ground_set(bundle)
    mu = slope(bundle, Subspace.full(bundle.rank), pol)
    full_dim = span(gs.vectors, gs.ambient).dim
    rows = []
    for rank, indices, sp in enumerate_flats(gs):
        if 0 < rank < full_dim:
            s = slope(bundle, sp, pol)
            rel = Order.LESS if s < mu else (Order.EQUAL if s == mu else Order.GREATER)
            rows.append((indices, rank, s, rel))
    stable = all(rel is Order.LESS for *_, rel in rows)
    semistable = all(rel is not Order.GREATER for *_, rel in rows)
    witness = None
    if rows:
        witness = min(rows, key=lambda r: (-r[2], -r[1], r[0]))[0]
    return mu, rows, stable, semistable, witness


def per_flat_check_stability(bundle, pol):
    """The earlier `stability.check_stability`: one `Fraction` slope per
    proper nonzero flat, compared with mu as `Fraction`s, and the witness
    the minimum over all flats of (-slope, -rank, indices). Its c1 vectors
    come from `c1` on each flat's span rather than the slope table."""
    check_compatibility(bundle)
    c1_e = c1(bundle)
    table = [(f, c1(bundle, f.subspace)) for f in proper_nonzero_flats(bundle_ground_set(bundle))]
    den = lcm(*(t.denominator for t in pol.weights))
    t = [int(x * den) for x in pol.weights]
    mu = Fraction(sum(a * b for a, b in zip(c1_e, t)), den * bundle.rank)
    rows = []
    for flat, coeffs in table:
        s = Fraction(sum(a * b for a, b in zip(coeffs, t)), den * flat.rank)
        rel = Order.LESS if s < mu else (Order.EQUAL if s == mu else Order.GREATER)
        rows.append(FlatSlope(flat=flat, slope=s, relation=rel))
    stable = all(r.relation is Order.LESS for r in rows)
    semistable = all(r.relation is not Order.GREATER for r in rows)
    witness = None
    witness_slope = None
    if rows:
        best = min(rows, key=lambda r: (-r.slope, -r.flat.rank, r.flat.indices))
        witness, witness_slope = best.flat, best.slope
    return StabilityReport(
        mu=mu,
        stable=stable,
        semistable=semistable,
        flat_slopes=tuple(rows),
        witness=witness,
        witness_slope=witness_slope,
    )


def brute_force_max_slope(bundle, pol, samples: int, seed: int = 0) -> Fraction | None:
    """Maximum slope over seeded random subspaces of every intermediate
    dimension, `samples` per dimension; None when samples == 0."""
    if samples <= 0:
        return None
    r = bundle.rank
    rng = random.Random(f"slope-probe:{seed}")
    best = None
    for k in range(1, r):
        produced = 0
        while produced < samples:
            rows = [
                [rng.randint(-5, 5) for _ in range(r)] for _ in range(k)
            ]
            sp = span(rows, r)
            if sp.dim != k:
                continue
            produced += 1
            s = slope(bundle, sp, pol)
            if best is None or s > best:
                best = s
    return best


def profile_multiplicities(step_lists):
    """Inclusion-exclusion multiplicity of every joint jump profile of
    decreasing filtrations given as step lists [(threshold, value)].

    Returns (mult, space) where mult maps profiles to integers and space
    maps level tuples to the intersection of the filtration values there.
    """
    k = len(step_lists)
    cache: dict[tuple[int, ...], Subspace] = {}

    def value(steps, j):
        for a, sp in steps:
            if j <= a:
                return sp
        return Subspace.zero(steps[0][1].ambient)

    def space_at(levels):
        if levels not in cache:
            sp = value(step_lists[0], levels[0])
            for steps, j in zip(step_lists[1:], levels[1:]):
                if sp.dim == 0:
                    break
                sp = intersect(sp, value(steps, j))
            cache[levels] = sp
        return cache[levels]

    mult = {}
    for p in product(*([a for a, _ in steps] for steps in step_lists)):
        m = 0
        for mask in range(1 << k):
            levels = tuple(
                p[i] + 1 if mask & (1 << i) else p[i] for i in range(k)
            )
            sign = -1 if bin(mask).count("1") % 2 else 1
            m += sign * space_at(levels).dim
        if m:
            mult[p] = m
    return mult, space_at


def verify_split(filts, assignment, rank) -> bool:
    """The (CC) sum condition, checked verbatim at every jump level."""
    if span([v for _, v in assignment], rank).dim != rank:
        return False
    for i, f in enumerate(filts):
        for j in f.thresholds:
            got = span([v for p, v in assignment if p[i] >= j], rank)
            if got != f.value(j):
                return False
    return True


def verify_cone_split(bundle, cone_index, assignment) -> bool:
    """`verify_split` on the (profile, line) pairs of one cone."""
    filts = [bundle.filtrations[i] for i in bundle.fan.max_cones[cone_index]]
    return verify_split(filts, assignment, bundle.rank)


@contextmanager
def verified_splits():
    """While open, every split that `_split_cone` returns to the package is
    checked by `verify_split`; both modules that call it are patched."""
    original = bundle_module._split_cone

    def checked(bundle, cone_index, prefer=None):
        split = original(bundle, cone_index, prefer)
        if not isinstance(split, IncompatibilityWitness):
            assert verify_cone_split(bundle, cone_index, split), (
                f"split of cone {cone_index} fails the sum condition"
            )
        return split

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bundle_module, "_split_cone", checked)
        mp.setattr(matroid_module, "_split_cone", checked)
        yield


def is_subbundle(bundle, f_space) -> bool:
    """`matroid.is_subbundle` from a greedy split of each cone built here:
    inclusion-exclusion multiplicities, profiles by descending sum, and the
    basis extension above with the rows inside F first. The sum condition
    for the intersected filtrations is checked verbatim on the split's lines
    inside F; no count of them is taken and no ground set is built."""
    if f_space.dim == 0:
        raise ValueError("the zero subspace does not define a subbundle")
    if f_space.ambient != bundle.rank:
        raise ValueError("subspace from a different fiber")
    check_compatibility(bundle)
    rank = bundle.rank
    for cone in bundle.fan.max_cones:
        filts = [bundle.filtrations[i] for i in cone]
        mult, space_at = profile_multiplicities([f.steps for f in filts])
        pairs, spanned = [], Subspace.zero(rank)
        for p in sorted(mult, key=lambda p: (-sum(p), p)):
            rows = extend_basis(spanned, space_at(p), mult[p], f_space)
            assert len(rows) == mult[p], "a compatible bundle splits on every cone"
            pairs += [(p, v) for v in rows]
            spanned = span([v for _, v in pairs], rank)
        assert verify_split(filts, pairs, rank)
        f_pairs = [(p, v) for p, v in pairs if f_space.contains(v)]
        for k, filt in enumerate(filts):
            for j in filt.thresholds:
                expected = intersect(filt.value(j), f_space)
                got = span([v for p, v in f_pairs if p[k] >= j], rank)
                if got != expected:
                    return False
    return True
