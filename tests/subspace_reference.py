"""Reference implementations on rational subspaces, kept for tests only.

The library decides closure, flats and slopes from the integer rank of
ground-set bitmasks, and profile multiplicities from finite differences over
a zero-pruned intersection walk. These are the earlier routes through
`Subspace.contains`, `intersect`, `Fraction` echelon forms and inclusion-
exclusion over every level tuple, which the differential tests compare
against, plus the seeded random-subspace slope probe and the `Fraction`
echelon rank that `integer_rank` is checked against.

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
from toricbundles.linalg import Subspace, _rref, intersect, span
from toricbundles.matroid import bundle_ground_set, is_compatible_flat
from toricbundles.stability import Order, slope


def matrix_rank(rows, width):
    """Rank as the number of rows of the `Fraction` reduced echelon form."""
    return len(_rref(rows, width))


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


def verify_sheet_rows(bundle, cone_index, rows) -> bool:
    """`verify_split` on the sheet rows of one cone."""
    filts = [bundle.filtrations[i] for i in bundle.fan.max_cones[cone_index]]
    return verify_split(filts, [(r.profile, r.vector) for r in rows], bundle.rank)


@contextmanager
def verified_splits():
    """While open, every split that `_split_cone` returns to the package is
    checked by `verify_split`; both modules that call it are patched."""
    original = bundle_module._split_cone

    def checked(bundle, cone_index, prefer=None):
        rows = original(bundle, cone_index, prefer)
        if not isinstance(rows, IncompatibilityWitness):
            assert verify_sheet_rows(bundle, cone_index, rows), (
                f"split of cone {cone_index} fails the sum condition"
            )
        return rows

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
    for ci, rows in enumerate(witness):
        cone = bundle.fan.max_cones[ci]
        f_rows = [row for row in rows if f_space.contains(row.vector)]
        for k, ray_index in enumerate(cone):
            filt = bundle.filtrations[ray_index]
            for j in filt.thresholds:
                expected = intersect(filt.value(j), f_space)
                got = span(
                    [row.vector for row in f_rows if row.profile[k] >= j],
                    bundle.rank,
                )
                if got != expected:
                    return False
    return True
