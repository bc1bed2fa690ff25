"""H-polytopes over a fan's ray normals: vertices, lattice points, emptiness.

A polytope is { m : <m, v_i> <= c_i } with one rational bound per ray.
Whenever the rays positively span (guaranteed by fan validation) these are
bounded, so emptiness coincides with having no basic feasible solution and
vertex enumeration over ray-subsets is exhaustive.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product

from .fan import Fan
from .linalg import Vector, dot, matrix_rank, solve_rational_system


class HPolytope:
    __slots__ = ("rays", "bounds", "_vertices")

    def __init__(self, rays, bounds):
        self.rays = tuple(tuple(int(x) for x in r) for r in rays)
        self.bounds = tuple(Fraction(c) for c in bounds)
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
        """Basic feasible solutions of d-subsets with independent normals."""
        if self._vertices is None:
            d = self.dim
            seen = set()
            for sub in combinations(range(len(self.rays)), d):
                rows = [self.rays[i] for i in sub]
                if matrix_rank(rows, d) < d:
                    continue
                pt = solve_rational_system(rows, [self.bounds[i] for i in sub])
                if pt is not None and self.contains(pt):
                    seen.add(pt)
            self._vertices = tuple(sorted(seen))
        return self._vertices

    def is_empty(self) -> bool:
        return not self.vertices()

    def lattice_points(self) -> tuple[tuple[int, ...], ...]:
        """Integer points, by scanning the vertex bounding box."""
        verts = self.vertices()
        if not verts:
            return ()
        d = self.dim
        lo = [math.ceil(min(v[i] for v in verts)) for i in range(d)]
        hi = [math.floor(max(v[i] for v in verts)) for i in range(d)]
        out = []
        for pt in product(*(range(lo[i], hi[i] + 1) for i in range(d))):
            if self.contains(pt):
                out.append(pt)
        return tuple(out)

    def translate(self, u) -> "HPolytope":
        shifts = [dot(u, v) for v in self.rays]
        return HPolytope(self.rays, [c + s for c, s in zip(self.bounds, shifts)])

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
    coeffs = [Fraction(a) for a in coefficients]
    if len(coeffs) != len(fan.rays):
        raise ValueError("one divisor coefficient per ray required")
    return HPolytope(fan.rays, coeffs)
