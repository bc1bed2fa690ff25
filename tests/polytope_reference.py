"""Reference implementations of divisor weights and polytope vertices, kept
for tests only.

These are the earlier routes that the integer ones in `stability` and
`polytopes` replaced, and that the differential tests compare against:
facet volumes in the coordinates m = x + B y of the rational point
x = bound normal / |normal|^2, with every bound a `Fraction`; weights that
enumerate the vertices first to reject an empty polytope; a polarization
check that always runs `positively_spans` on the rays of positive weight;
and vertices found by a rank test and a `Fraction` solve of every d-subset
of the normals.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd

from toricbundles.fan import positively_spans
from toricbundles.linalg import integer_rank, orthogonal_lattice_basis, solve_rational_system
from toricbundles.polytopes import newton_polytope
from toricbundles.stability import Polarization, PolarizationError


def vertices(poly):
    """Basic feasible solutions of d-subsets with independent normals."""
    d = poly.dim
    seen = set()
    for sub in combinations(range(len(poly.rays)), d):
        rows = [poly.rays[i] for i in sub]
        if integer_rank(rows) < d:
            continue
        pt = solve_rational_system(rows, [poly.bounds[i] for i in sub])
        if pt is not None and poly.contains(pt):
            seen.add(pt)
    return tuple(sorted(seen))


def validate_polarization(fan, weights) -> Polarization:
    """Nonnegative weights with exact balance and spanning positivity."""
    weights = tuple(weights)
    if any(isinstance(x, float) for x in weights):
        raise TypeError(f"float weight in {weights}: give ints or Fractions")
    t = tuple(Fraction(x) for x in weights)
    if len(t) != len(fan.rays):
        raise PolarizationError(
            f"got {len(t)} weights for {len(fan.rays)} rays"
        )
    if any(x < 0 for x in t):
        raise PolarizationError("weights must be nonnegative")
    balance = tuple(
        sum((ti * Fraction(v[i]) for ti, v in zip(t, fan.rays)), Fraction(0))
        for i in range(fan.dim)
    )
    if any(x != 0 for x in balance):
        raise PolarizationError(
            f"weights violate the Minkowski balance: sum t_i v_i = {balance}"
        )
    positive_rays = [v for ti, v in zip(t, fan.rays) if ti > 0]
    if not positively_spans(positive_rays, fan.dim):
        raise PolarizationError(
            "rays with positive weight do not positively span"
        )
    return Polarization(weights=t)


def lattice_volume(halfspaces: dict, dim: int) -> Fraction:
    """Lattice-normalized volume of {y : <a, y> <= b for (a, b) in halfspaces}
    as the sum of b Vol(F_a) over the facets."""
    if dim == 0:
        return Fraction(1)
    return sum(b * facet_volume(halfspaces, a, b) for a, b in halfspaces.items())


def facet_volume(halfspaces: dict, normal, bound) -> Fraction:
    """Lattice-normalized volume of the face <normal, y> = bound, in the
    coordinates m = x + B y of a rational point x on the hyperplane."""
    basis = orthogonal_lattice_basis(normal, len(normal))
    norm = sum(a * a for a in normal)
    x = [Fraction(bound * a, norm) for a in normal]
    facet: dict = {}
    for a, b in halfspaces.items():
        restricted = tuple(sum(ai * bi for ai, bi in zip(a, col)) for col in basis)
        rest = b - sum(ai * xi for ai, xi in zip(a, x))
        g = gcd(*restricted)
        if g == 0:
            if rest < 0:
                return Fraction(0)
            continue
        restricted = tuple(ai // g for ai in restricted)
        facet[restricted] = min(rest / g, facet.get(restricted, rest / g))
    return lattice_volume(facet, len(basis))


def weights_from_divisor(fan, coefficients) -> Polarization:
    """Normalized facet volumes of the divisor's polytope, after a vertex
    enumeration that rejects an empty one."""
    poly = newton_polytope(fan, coefficients)
    if not vertices(poly):
        raise PolarizationError("divisor polytope is empty; weights undefined")
    halfspaces = dict(zip(poly.rays, poly.bounds))
    weights = [facet_volume(halfspaces, ray, c) for ray, c in halfspaces.items()]
    if sum(c * t for c, t in zip(poly.bounds, weights)) == 0:
        raise PolarizationError(
            "divisor polytope is lower-dimensional; weights undefined"
        )
    return validate_polarization(fan, weights)
