"""Polarizations, slopes, the stability decision, and curve restrictions.

A polarization enters purely through its ray weights t_i >= 0 with the exact
Minkowski balance sum t_i v_i = 0 and positivity on a spanning ray set.
Slopes are exact rationals; the stability verdict compares every proper
nonzero flat's slope against the bundle's.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .bundle import ToricBundle, check_compatibility
from .fan import Fan, FanError, Wall, positively_spans, wall_normal
from .linalg import (
    Subspace,
    dot,
    intersect,
    matrix_rank,
    orthogonal_lattice_basis,
    solve_rational_system,
    subspace_sum,
    vec_sub,
    vector,
)
from .matroid import Flat, GroundSet, bundle_ground_set, proper_nonzero_flats
from .polytopes import HPolytope, newton_polytope


class PolarizationError(ValueError):
    pass


@dataclass(frozen=True)
class Polarization:
    weights: tuple[Fraction, ...]
    provenance: str = "given"


def validate_polarization(fan: Fan, weights) -> Polarization:
    """Nonnegative weights with exact balance and spanning positivity."""
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
        hull = _convex_polygon(coords)
        if len(hull) < 3:
            return Fraction(0)
        twice_area = Fraction(0)
        for (x1, y1), (x2, y2) in zip(hull, hull[1:] + hull[:1]):
            twice_area += x1 * y2 - x2 * y1
        return abs(twice_area)
    raise NotImplementedError(
        "facet volumes are implemented exactly for fans of dimension <= 3"
    )


def _convex_polygon(points):
    """Convex hull of exact 2-d points in counterclockwise order."""
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


def weights_from_divisor(fan: Fan, coefficients) -> Polarization:
    """Polarization weights of a divisor: normalized facet volumes of its
    polytope. The polytope must be full-dimensional."""
    poly = newton_polytope(fan, coefficients)
    verts = poly.vertices()
    if not verts:
        raise PolarizationError("divisor polytope is empty; weights undefined")
    base = verts[0]
    diffs = [vec_sub(vector(p), vector(base)) for p in verts[1:]]
    if matrix_rank(diffs, fan.dim) < fan.dim:
        raise PolarizationError(
            "divisor polytope is lower-dimensional; weights undefined"
        )
    weights = [
        _facet_normalized_volume(poly, ray, bound)
        for ray, bound in zip(fan.rays, poly.bounds)
    ]
    pol = validate_polarization(fan, weights)
    return Polarization(weights=pol.weights, provenance="divisor")


# ---------------------------------------------------------------------------
# first Chern class and slopes


def c1(bundle: ToricBundle, f_space: Subspace | None = None) -> tuple[int, ...]:
    """Divisor coefficients of the subsheaf cut out by F (default: the
    whole bundle): sum of the intersected filtration's jumps per ray."""
    if f_space is None:
        f_space = Subspace.full(bundle.rank)
    if f_space.dim == 0:
        raise ValueError("c_1 of the zero subsheaf is undefined")
    return tuple(sum(f.jump_multiset(f_space)) for f in bundle.filtrations)


def slope(bundle: ToricBundle, f_space: Subspace, pol: Polarization) -> Fraction:
    coeffs = c1(bundle, f_space)
    return sum(
        (Fraction(a) * t for a, t in zip(coeffs, pol.weights)), Fraction(0)
    ) / f_space.dim


class Order(Enum):
    LESS = "<"
    EQUAL = "="
    GREATER = ">"


def _weighted_support(poly: HPolytope, pol: Polarization) -> Fraction:
    return sum((c * t for c, t in zip(poly.bounds, pol.weights)), Fraction(0))


def compare_average_polytopes(p1: HPolytope, p2: HPolytope, pol: Polarization) -> Order:
    """Total order on divisor polytopes: compare sum c_i t_i."""
    if p1.rays != p2.rays:
        raise ValueError("polytopes over different fans are not comparable")
    a, b = _weighted_support(p1, pol), _weighted_support(p2, pol)
    if a < b:
        return Order.LESS
    if a > b:
        return Order.GREATER
    return Order.EQUAL


# ---------------------------------------------------------------------------
# the stability decision


@dataclass(frozen=True)
class FlatSlope:
    flat: Flat
    slope: Fraction
    relation: Order  # versus mu(E)


@dataclass(frozen=True)
class StabilityReport:
    mu: Fraction
    stable: bool
    semistable: bool
    flat_slopes: tuple[FlatSlope, ...]
    witness: Flat | None
    witness_slope: Fraction | None


def _level_masks(bundle: ToricBundle, gs: GroundSet):
    """Per ray, (threshold, mask of the ground vectors in E(threshold)) for
    every step. The sweep spans each filtration value by the ground vectors
    inside it, so E^i(j) meets the ground set in {e : level_i(e) >= j}."""
    out = []
    for filt in bundle.filtrations:
        levels = [filt.max_level(v) for v in gs.vectors]
        out.append([
            (a, sum(1 << e for e, lv in enumerate(levels) if lv >= a))
            for a in filt.thresholds
        ])
    return out


def _c1_by_rank(gs: GroundSet, masks, mask: int) -> tuple[int, ...]:
    """c_1 of the subsheaf spanned by a ground-set mask F, from ranks alone:
    dim(E^i(j) n F) = r(E^i(j)) + r(F) - r(E^i(j) u F)."""
    rank = gs.rank
    r_f = rank(mask)
    out = []
    for steps in masks:
        dims = [rank(m) + r_f - rank(m | mask) for _, m in steps] + [0]
        out.append(sum(a * (d - d_next) for (a, _), d, d_next in zip(steps, dims, dims[1:])))
    return tuple(out)


def check_stability(bundle: ToricBundle, pol: Polarization) -> StabilityReport:
    """Compare every proper nonzero flat's slope against the bundle's."""
    check_compatibility(bundle)
    gs = bundle_ground_set(bundle)
    masks = _level_masks(bundle, gs)

    def slope_of(mask: int, dim: int) -> Fraction:
        coeffs = _c1_by_rank(gs, masks, mask)
        return sum((a * t for a, t in zip(coeffs, pol.weights)), Fraction(0)) / dim

    mu = slope_of((1 << len(gs)) - 1, bundle.rank)
    rows = []
    for flat in proper_nonzero_flats(gs):
        s = slope_of(sum(1 << e for e in flat.indices), flat.rank)
        rel = Order.LESS if s < mu else (Order.EQUAL if s == mu else Order.GREATER)
        rows.append(FlatSlope(flat=flat, slope=s, relation=rel))
    stable = all(r.relation is Order.LESS for r in rows)
    semistable = all(r.relation is not Order.GREATER for r in rows)
    witness = None
    witness_slope = None
    if rows:
        # maximal slope, ties to larger rank, then index order
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


def tangent_weight_condition(fan: Fan, pol: Polarization, strict: bool = False) -> bool:
    """max t_i <= (sum t_i)/d, the tangent-bundle semistability condition
    (strict inequality for the stability variant). The fan must have no two
    opposite rays."""
    rays = set(fan.rays)
    for v in fan.rays:
        if tuple(-x for x in v) in rays:
            raise FanError(
                "the tangent weight condition requires a fan without opposite rays"
            )
    t = pol.weights
    bound = sum(t, Fraction(0)) / fan.dim
    mx = max(t)
    return mx < bound if strict else mx <= bound


# ---------------------------------------------------------------------------
# restriction to invariant curves


class VerificationError(RuntimeError):
    """An internal cross-check failed (e.g. the restriction pairing)."""


@dataclass(frozen=True)
class Segment:
    character_sigma: tuple[int, ...]
    character_sigma_prime: tuple[int, ...]
    degree: int
    entry_sigma: int | None
    entry_sigma_prime: int | None


@dataclass(frozen=True)
class RestrictionReport:
    wall: Wall
    degrees: tuple[int, ...]  # sorted
    semistable: bool
    segments: tuple[Segment, ...]


def _graded_pair_multiplicities(bundle, tau_filts, q, filt_a, filt_b):
    """Joint multiplicities of the two extra-ray filtrations on the graded
    piece of a tau-profile class."""
    r = bundle.rank
    inter = Subspace.full(r)
    for f, level in zip(tau_filts, q):
        inter = intersect(inter, f.value(level))
    deeper = Subspace.zero(r)
    for k, f in enumerate(tau_filts):
        deeper = subspace_sum(deeper, intersect(inter, f.value(q[k] + 1)))

    def imdim(i, j):
        x = intersect(intersect(inter, filt_a.value(i)), filt_b.value(j))
        return subspace_sum(x, deeper).dim - deeper.dim

    mult = {}
    for i in filt_a.thresholds:
        for j in filt_b.thresholds:
            m = (
                imdim(i, j)
                - imdim(i + 1, j)
                - imdim(i, j + 1)
                + imdim(i + 1, j + 1)
            )
            if m < 0:
                raise VerificationError(
                    f"negative graded multiplicity {m} at levels ({i}, {j})"
                )
            if m:
                mult[(i, j)] = m
    return mult


def restrict_to_curve(bundle: ToricBundle, wall: Wall) -> RestrictionReport:
    """Splitting degrees of the bundle on the invariant curve of a wall.

    Characters of the two adjacent cones are paired inside equal tau-profile
    classes; within a class of multiplicity > 1 the pairing follows the
    two-filtration refinement on the graded piece and is re-verified against
    both marginals.
    """
    sheet = check_compatibility(bundle)
    fan = bundle.fan
    cone_a = fan.max_cones[wall.sigma]
    cone_b = fan.max_cones[wall.sigma_prime]
    tau_pos_a = [cone_a.index(i) for i in wall.tau]
    tau_pos_b = [cone_b.index(i) for i in wall.tau]
    extra_pos_a = cone_a.index(wall.extra_sigma)
    extra_pos_b = cone_b.index(wall.extra_sigma_prime)

    def classes(rows, tau_pos):
        by_profile: dict[tuple[int, ...], list] = {}
        for row in rows:
            key = tuple(row.profile[k] for k in tau_pos)
            by_profile.setdefault(key, []).append(row)
        return by_profile

    cls_a = classes(sheet.rows[wall.sigma], tau_pos_a)
    cls_b = classes(sheet.rows[wall.sigma_prime], tau_pos_b)
    if sorted((k, len(v)) for k, v in cls_a.items()) != sorted(
        (k, len(v)) for k, v in cls_b.items()
    ):
        raise VerificationError(
            "tau-profile class multisets differ between the two cones"
        )

    tau_filts = [bundle.filtrations[i] for i in wall.tau]
    filt_a = bundle.filtrations[wall.extra_sigma]
    filt_b = bundle.filtrations[wall.extra_sigma_prime]
    m_tau = wall_normal(fan, wall)

    gs = bundle_ground_set(bundle)
    pairs = []
    for q in sorted(cls_a):
        rows_a = sorted(cls_a[q], key=lambda r: -r.profile[extra_pos_a])
        rows_b = sorted(cls_b[q], key=lambda r: -r.profile[extra_pos_b])
        if len(rows_a) == 1:
            pairs.append((rows_a[0], rows_b[0]))
            continue
        mult = _graded_pair_multiplicities(bundle, tau_filts, q, filt_a, filt_b)
        if sum(mult.values()) != len(rows_a):
            raise VerificationError(
                f"graded multiplicities sum to {sum(mult.values())} "
                f"but the class has {len(rows_a)} characters"
            )
        remaining_a = list(rows_a)
        remaining_b = list(rows_b)
        for (i, j), m in sorted(mult.items(), reverse=True):
            for _ in range(m):
                ra = next(
                    (r for r in remaining_a if r.profile[extra_pos_a] == i), None
                )
                rb = next(
                    (r for r in remaining_b if r.profile[extra_pos_b] == j), None
                )
                if ra is None or rb is None:
                    raise VerificationError(
                        "pairing marginals do not match the character profiles"
                    )
                remaining_a.remove(ra)
                remaining_b.remove(rb)
                pairs.append((ra, rb))
        if remaining_a or remaining_b:
            raise VerificationError("unpaired characters after refinement")

    degrees = []
    segments = []
    for ra, rb in pairs:
        diff = tuple(a - b for a, b in zip(ra.character, rb.character))
        k = next(i for i, x in enumerate(m_tau) if x != 0)
        if diff[k] % m_tau[k] != 0:
            raise VerificationError("character difference not on the wall lattice")
        a = diff[k] // m_tau[k]
        if tuple(a * x for x in m_tau) != diff:
            raise VerificationError("character difference leaves tau-perp")
        degrees.append(a)
        segments.append(
            Segment(
                character_sigma=ra.character,
                character_sigma_prime=rb.character,
                degree=a,
                entry_sigma=gs.index_of_line(ra.vector),
                entry_sigma_prime=gs.index_of_line(rb.vector),
            )
        )
    degrees_sorted = tuple(sorted(degrees))
    return RestrictionReport(
        wall=wall,
        degrees=degrees_sorted,
        semistable=len(set(degrees_sorted)) <= 1,
        segments=tuple(segments),
    )
