"""Fans of smooth complete toric varieties: validation, walls.

Completeness is checked by a proxy: every wall lies in exactly two maximal
cones, the rays positively span, and the dual graph of maximal cones is
connected. The validation report says so explicitly.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .linalg import det, exact_int, integer_kernel_basis, integer_rank, is_primitive, nullspace, dot


class FanError(ValueError):
    pass


class Fan:
    """A fan given by primitive ray generators and maximal cones (index sets).

    The constructor checks structural well-formedness only; geometric
    validity (smoothness, completeness proxy) is the job of
    :func:`validate_fan`.

    Two things are kept per fan, filled on first use: `_report`, the
    validation report, and `_facets`, the table of lattice frames and
    restricted normals that `stability._facet_volume` reads (one entry per
    normal met at any depth of the facet recursion). Both depend only on the
    rays, so every divisor on the fan shares them.
    """

    __slots__ = ("dim", "rays", "max_cones", "_report", "_facets")

    def __init__(self, dim, rays, max_cones):
        self.dim = exact_int(dim)
        if self.dim < 1:
            raise FanError("fan dimension must be positive")
        rays = tuple(tuple(exact_int(x) for x in r) for r in rays)
        for r in rays:
            if len(r) != self.dim:
                raise FanError(f"ray {r} does not have length {self.dim}")
            if all(x == 0 for x in r):
                raise FanError("zero vector cannot generate a ray")
            if not is_primitive(r):
                raise FanError(f"ray {r} is not primitive")
        if len(set(rays)) != len(rays):
            raise FanError("duplicate rays")
        self.rays = rays
        cones = []
        for c in max_cones:
            c = tuple(sorted(exact_int(i) for i in c))
            if len(c) != self.dim:
                raise FanError(f"maximal cone {c} does not have {self.dim} rays")
            if len(set(c)) != len(c):
                raise FanError(f"maximal cone {c} repeats a ray")
            for i in c:
                if not 0 <= i < len(rays):
                    raise FanError(f"cone index {i} out of range")
            cones.append(c)
        if not cones:
            raise FanError("a complete fan needs at least one maximal cone")
        if len(set(cones)) != len(cones):
            raise FanError("duplicate maximal cones")
        self.max_cones = tuple(cones)
        self._report = None
        self._facets = {}

    def ray_matrix(self, cone):
        return [self.rays[i] for i in cone]

    def __repr__(self):
        return f"Fan(dim={self.dim}, rays={len(self.rays)}, max_cones={len(self.max_cones)})"


@dataclass(frozen=True)
class Wall:
    """A codimension-one cone tau shared by exactly two maximal cones."""

    tau: tuple[int, ...]
    sigma: int
    sigma_prime: int
    extra_sigma: int
    extra_sigma_prime: int


@dataclass(frozen=True)
class FanReport:
    cone_determinants: tuple[tuple[tuple[int, ...], int], ...]
    smooth: bool
    wall_counts: tuple[tuple[tuple[int, ...], int], ...]
    walls_paired: bool
    positively_spanning: bool
    dual_graph_connected: bool

    @property
    def passed(self) -> bool:
        return (
            self.smooth
            and self.walls_paired
            and self.positively_spanning
            and self.dual_graph_connected
        )

    def summary(self) -> str:
        lines = []
        for cone, d in self.cone_determinants:
            ok = "ok" if abs(d) == 1 else "NOT SMOOTH"
            lines.append(f"cone {cone}: |det| = {abs(d)} ({ok})")
        for tau, n in self.wall_counts:
            ok = "ok" if n == 2 else "UNPAIRED"
            lines.append(f"wall {tau}: in {n} maximal cones ({ok})")
        lines.append(
            "rays positively span: " + ("yes" if self.positively_spanning else "NO")
        )
        lines.append(
            "dual graph connected: " + ("yes" if self.dual_graph_connected else "NO")
        )
        lines.append(
            "completeness checked by proxy (wall pairing + positive span + connectivity)"
        )
        lines.append("overall: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def positively_spans(vectors, dim) -> bool:
    """Exact test that the vectors positively span R^dim (dual cone = 0)."""
    vecs = [tuple(exact_int(x) for x in v) for v in vectors]
    if integer_rank(vecs) < dim:
        return False
    # a nonzero dual vector exists iff one lies on an extreme ray cut out by
    # dim-1 of the constraints
    for sub in combinations(range(len(vecs)), dim - 1):
        rows = [vecs[i] for i in sub]
        ker = nullspace(rows, dim)
        if len(ker) != 1:
            continue
        y = ker[0]
        for cand in (y, tuple(-x for x in y)):
            if all(dot(cand, v) >= 0 for v in vecs):
                return False
    return True


def _wall_counts(fan: Fan):
    counts: dict[tuple[int, ...], list[int]] = {}
    for ci, cone in enumerate(fan.max_cones):
        for tau in combinations(cone, fan.dim - 1):
            counts.setdefault(tau, []).append(ci)
    return counts


def validate_fan(fan: Fan) -> FanReport:
    if fan._report is not None:
        return fan._report
    cone_dets = []
    smooth = True
    for cone in fan.max_cones:
        d = det(fan.ray_matrix(cone))
        cone_dets.append((cone, d))
        if abs(d) != 1:
            smooth = False
    counts = _wall_counts(fan)
    wall_counts = tuple(sorted((tau, len(cs)) for tau, cs in counts.items()))
    paired = all(n == 2 for _, n in wall_counts)
    spanning = positively_spans(fan.rays, fan.dim)
    # dual-graph connectivity over shared walls
    adj: dict[int, set[int]] = {i: set() for i in range(len(fan.max_cones))}
    for cs in counts.values():
        for a, b in combinations(cs, 2):
            adj[a].add(b)
            adj[b].add(a)
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in adj[i]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    connected = len(seen) == len(fan.max_cones)
    report = FanReport(
        cone_determinants=tuple(cone_dets),
        smooth=smooth,
        wall_counts=wall_counts,
        walls_paired=paired,
        positively_spanning=spanning,
        dual_graph_connected=connected,
    )
    fan._report = report
    return report


def walls(fan: Fan) -> tuple[Wall, ...]:
    """All interior codimension-one cones, each with its two maximal cones."""
    report = validate_fan(fan)
    if not report.passed:
        raise FanError("walls are only defined for a validated fan:\n" + report.summary())
    out = []
    for tau, cones in sorted(_wall_counts(fan).items()):
        a, b = sorted(cones)
        extra_a = next(i for i in fan.max_cones[a] if i not in tau)
        extra_b = next(i for i in fan.max_cones[b] if i not in tau)
        out.append(Wall(tau=tau, sigma=a, sigma_prime=b,
                        extra_sigma=extra_a, extra_sigma_prime=extra_b))
    return tuple(out)


def wall_normal(fan: Fan, wall: Wall) -> tuple[int, ...]:
    """Primitive generator of tau-perp in the character lattice, signed to be
    positive against the extra ray of wall.sigma."""
    rows = [fan.rays[i] for i in wall.tau]
    ker = integer_kernel_basis(rows, fan.dim)
    if len(ker) != 1:
        raise FanError(f"wall {wall.tau} does not have linearly independent rays")
    m = ker[0]
    s = dot(m, fan.rays[wall.extra_sigma])
    if s == 0:
        raise FanError("degenerate wall: extra ray lies on the wall hyperplane")
    if s < 0:
        m = tuple(-x for x in m)
    return m
