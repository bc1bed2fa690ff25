"""H-polytopes over a fan's ray normals: vertices, lattice points, emptiness.

A polytope is { m : <m, v_i> <= c_i } with one rational bound per ray (ints
or Fractions; a float is a ``TypeError``). Whenever the rays positively span
(guaranteed by fan validation) these are bounded, so emptiness coincides
with having no basic feasible solution and vertex enumeration over
ray-subsets is exhaustive. Vertices are found in integers: the bounds are
scaled to integers once, each d-subset is solved by integer elimination, and
containment is tested with integer dot products; only the vertices kept
become Fractions.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product

from .fan import Fan
from .linalg import Vector, _solve, dot

MAX_LATTICE_SCAN = 10**6  # bounding-box points `lattice_points` may scan


class HPolytope:
    __slots__ = ("rays", "bounds", "_vertices")

    def __init__(self, rays, bounds):
        self.rays = tuple(tuple(int(x) for x in r) for r in rays)
        self.bounds = tuple(bounds)
        if any(isinstance(c, float) for c in self.bounds):
            raise TypeError(f"float bound in {self.bounds}: give ints or Fractions")
        if len(self.rays) != len(self.bounds):
            raise ValueError("one bound per ray required")
        self._vertices = None

    @property
    def dim(self) -> int:
        return len(self.rays[0])

    def contains(self, point) -> bool:
        return all(
            dot(point, v) <= c for v, c in zip(self.rays, self.bounds)
        )

    def vertices(self) -> tuple[Vector, ...]:
        """Basic feasible solutions of d-subsets with independent normals.

        With the bounds times their common denominator s as integers C, a
        d-subset's solution of <m, v_i> = C_i is p / q (integer p, q > 0),
        and the vertex is p / (q s); it is feasible when <p, v> <= q C_v
        for every ray v."""
        if self._vertices is None:
            d = self.dim
            s = math.lcm(*(c.denominator for c in self.bounds))
            scaled = [c.numerator * (s // c.denominator) for c in self.bounds]
            seen = set()
            for sub in combinations(range(len(self.rays)), d):
                sol = _solve([self.rays[i] for i in sub], [scaled[i] for i in sub])
                if sol is None:
                    continue
                q = math.lcm(*(den for _, den in sol))
                p = [num * (q // den) for num, den in sol]
                if all(dot(p, v) <= q * c for v, c in zip(self.rays, scaled)):
                    g = math.gcd(q, *p)
                    seen.add((tuple(x // g for x in p), q // g))
            self._vertices = tuple(sorted(
                tuple(Fraction(x, q * s) for x in p) for p, q in seen
            ))
        return self._vertices

    def is_empty(self) -> bool:
        return not self.vertices()

    def lattice_points(self) -> tuple[tuple[int, ...], ...]:
        """Integer points, by scanning the vertex bounding box; a ValueError
        when the box holds more than MAX_LATTICE_SCAN points."""
        verts = self.vertices()
        if not verts:
            return ()
        d = self.dim
        lo = [math.ceil(min(v[i] for v in verts)) for i in range(d)]
        hi = [math.floor(max(v[i] for v in verts)) for i in range(d)]
        count = math.prod(max(b - a + 1, 0) for a, b in zip(lo, hi))
        if count > MAX_LATTICE_SCAN:
            raise ValueError(f"lattice-point scan of {count} points exceeds "
                             f"the limit of {MAX_LATTICE_SCAN}")
        out = []
        for pt in product(*(range(lo[i], hi[i] + 1) for i in range(d))):
            if self.contains(pt):
                out.append(pt)
        return tuple(out)

    def __eq__(self, other):
        return (
            isinstance(other, HPolytope)
            and self.rays == other.rays
            and self.bounds == other.bounds
        )

    def __hash__(self):
        return hash((self.rays, self.bounds))

    def __repr__(self):
        body = ", ".join(f"<m,{v}> <= {c}" for v, c in zip(self.rays, self.bounds))
        return f"HPolytope({body})"


def newton_polytope(fan: Fan, coefficients) -> HPolytope:
    """Polytope of a divisor sum a_i D_i: bounds c_i = a_i."""
    coeffs = tuple(coefficients)
    if len(coeffs) != len(fan.rays):
        raise ValueError("one divisor coefficient per ray required")
    return HPolytope(fan.rays, coeffs)


def convex_polygon(points):
    """Convex hull of exact 2-d points in counterclockwise order from the
    lexicographically least point; repeated points and points inside an
    edge are dropped."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]
