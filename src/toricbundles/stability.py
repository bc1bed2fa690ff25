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
from math import gcd, lcm

from .bundle import ToricBundle, check_compatibility
from .fan import Fan, FanError, Wall, positively_spans, wall_normal
from .linalg import Subspace, intersect, orthogonal_lattice_basis, subspace_sum
from .matroid import Flat, _mask, bundle_ground_set, proper_nonzero_flats
from .polytopes import HPolytope, newton_polytope


class PolarizationError(ValueError):
    pass


@dataclass(frozen=True)
class Polarization:
    weights: tuple[Fraction, ...]


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


def _lattice_volume(halfspaces: dict, dim: int) -> Fraction:
    """Lattice-normalized volume (dim! times the Euclidean volume) of the
    bounded polytope {y in Q^dim : <a, y> <= b for (a, b) in halfspaces}, whose
    normals are distinct and primitive. The pyramids over the facets from the
    origin give dim! vol(P) = sum b Vol(F_a), with b the lattice distance."""
    if dim == 0:
        return Fraction(1)
    return sum(b * _facet_volume(halfspaces, a, b) for a, b in halfspaces.items())


def _facet_volume(halfspaces: dict, normal, bound) -> Fraction:
    """Lattice-normalized volume of the face <normal, y> = bound: the same
    problem one dimension down, in the coordinates m = x + B y of a rational
    point x on the hyperplane and a lattice basis B of normal-perp."""
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
    return _lattice_volume(facet, len(basis))


def weights_from_divisor(fan: Fan, coefficients) -> Polarization:
    """Polarization weights of a divisor: normalized facet volumes of its
    polytope. The polytope must be full-dimensional, which holds exactly
    when sum c_i t_i = d! vol(P) is positive."""
    poly = newton_polytope(fan, coefficients)
    if poly.is_empty():
        raise PolarizationError("divisor polytope is empty; weights undefined")
    halfspaces = dict(zip(poly.rays, poly.bounds))
    weights = [_facet_volume(halfspaces, ray, c) for ray, c in halfspaces.items()]
    if sum(c * t for c, t in zip(poly.bounds, weights)) == 0:
        raise PolarizationError(
            "divisor polytope is lower-dimensional; weights undefined"
        )
    return validate_polarization(fan, weights)


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


def _slope_table(bundle: ToricBundle):
    """(c1(E), ((flat, c1(F)) for every proper nonzero flat F)), computed once
    per bundle from ranks alone and kept on it.

    The sweep spans each filtration value by the ground vectors inside it, so
    E^i(j) meets the ground set in the level mask {e : level_i(e) >= j}, and
    dim(E^i(j) n F) = r(E^i(j)) + r(F) - r(E^i(j) u F).
    """
    if bundle._slopes is None:
        gs = bundle_ground_set(bundle)
        rank = gs.rank
        level_masks = []
        for filt in bundle.filtrations:
            levels = [filt.max_level(v) for v in gs.vectors]
            level_masks.append([
                (a, sum(1 << e for e, lv in enumerate(levels) if lv >= a))
                for a in filt.thresholds
            ])
        flats = proper_nonzero_flats(gs)
        c1s = []
        for mask in [(1 << len(gs)) - 1] + [_mask(f.indices) for f in flats]:
            r_f = rank(mask)
            coeffs = []
            for steps in level_masks:
                dims = [rank(m) + r_f - rank(m | mask) for _, m in steps] + [0]
                coeffs.append(sum(
                    a * (d - d_next) for (a, _), d, d_next in zip(steps, dims, dims[1:])
                ))
            c1s.append(tuple(coeffs))
        bundle._slopes = (c1s[0], tuple(zip(flats, c1s[1:])))
    return bundle._slopes


def check_stability(bundle: ToricBundle, pol: Polarization) -> StabilityReport:
    """Compare every proper nonzero flat's slope against the bundle's: one
    integer dot product per flat, with the weights over a common denominator."""
    check_compatibility(bundle)
    c1_e, table = _slope_table(bundle)
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
