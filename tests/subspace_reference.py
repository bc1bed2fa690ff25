"""Reference implementations on rational subspaces, kept for tests only.

The library decides closure, flats and slopes from the integer rank of
ground-set bitmasks, and profile multiplicities from finite differences over
a zero-pruned intersection walk. These are the earlier routes through
`Subspace.contains`, `intersect`, `Fraction` echelon forms and inclusion-
exclusion over every level tuple, which the differential tests compare
against, plus the seeded random-subspace slope probe and the `Fraction`
echelon rank that `integer_rank` is checked against.
"""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from toricbundles.linalg import Subspace, _rref, intersect, span
from toricbundles.matroid import bundle_ground_set
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
