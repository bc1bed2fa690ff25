"""Reference implementations on rational subspaces, kept for tests only.

The library decides closure, flats and slopes from the integer rank of
ground-set bitmasks, and profile multiplicities from finite differences over
a zero-pruned intersection walk. These are the earlier routes through
`Subspace.contains`, `intersect`, `Fraction` echelon forms and inclusion-
exclusion over every level tuple, which the differential tests compare
against, plus the seeded random-subspace slope probe and the `Fraction`
echelon rank that `integer_rank` is checked against, and the per-dimension
facet volumes (vertices, coordinates in an orthogonal lattice basis, hull
and shoelace for d <= 3) that the lattice-volume recursion replaced.

It also holds two sum-condition checks that the package proves rather than
runs, as the `bundle` and `matroid.is_subbundle` docstrings argue: on every
split the greedy pass returns, and, for the intersected filtrations, on the
witness bases of a subbundle. `verified_splits` runs the first on every
split the package makes while it is open.
"""
from __future__ import annotations

import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

import pytest

from toricbundles import bundle as bundle_module
from toricbundles import matroid as matroid_module
from toricbundles.bundle import IncompatibilityWitness
from toricbundles.linalg import (
    Subspace,
    _rref,
    dot,
    intersect,
    orthogonal_lattice_basis,
    solve_rational_system,
    span,
    vector,
)
from toricbundles.matroid import bundle_ground_set, is_compatible_flat
from toricbundles.polytopes import HPolytope, convex_polygon
from toricbundles.stability import Order, slope


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


def profile_multiplicities(filts):
    """Inclusion-exclusion multiplicity of every joint jump profile.

    Returns (mult, space) where mult maps profiles to integers and space
    maps level tuples to the intersection of the filtration values there.
    """
    k = len(filts)
    cache: dict[tuple[int, ...], Subspace] = {}

    def space_at(levels):
        if levels not in cache:
            sp = filts[0].value(levels[0])
            for f, j in zip(filts[1:], levels[1:]):
                if sp.dim == 0:
                    break
                sp = intersect(sp, f.value(j))
            cache[levels] = sp
        return cache[levels]

    mult = {}
    for p in product(*(f.thresholds for f in filts)):
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
    """`matroid.is_subbundle` with the sum condition for the intersected
    filtrations checked verbatim on the compatible flat's witness bases."""
    if f_space.dim == 0:
        raise ValueError("the zero subspace does not define a subbundle")
    if f_space.ambient != bundle.rank:
        raise ValueError("subspace from a different fiber")
    gs = bundle_ground_set(bundle, prefer=f_space)
    inside = gs.indices_in(f_space)
    if span([gs.vectors[i] for i in inside], gs.ambient) != f_space:
        return False
    flat = matroid_module.closure(gs, inside)
    ok, witness = is_compatible_flat(bundle, flat)
    if not ok:
        return False
    for ci, pairs in enumerate(witness):
        cone = bundle.fan.max_cones[ci]
        f_pairs = [(p, v) for p, v in pairs if f_space.contains(v)]
        for k, ray_index in enumerate(cone):
            filt = bundle.filtrations[ray_index]
            for j in filt.thresholds:
                expected = intersect(filt.value(j), f_space)
                got = span([v for p, v in f_pairs if p[k] >= j], bundle.rank)
                if got != expected:
                    return False
    return True
