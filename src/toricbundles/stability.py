"""Polarizations, slopes, the stability decision, and curve restrictions.

A polarization enters purely through its ray weights t_i >= 0 with the exact
Minkowski balance sum t_i v_i = 0 and positivity on a spanning ray set.
A divisor's weights are the normalized facet volumes of its polytope, from
a recursion over facets in integer lattice frames that needs no vertices
(`_lattice_volume`, `_facet_volume`). Every frame and restricted normal in
that recursion depends only on normal vectors, never on the divisor's
bounds, so they are kept once per fan in `Fan._facets`, and a divisor costs
only integer arithmetic on its bounds. Slopes are exact rationals; the
stability verdict compares every proper nonzero flat's slope against the
bundle's. A flat enters that comparison only through rk F and the class of
c1(F) in Pic(X) = Z^rays / M: a principal divisor div(u) = (<u, v_i>)_i has
<div(u), t> = <u, sum t_i v_i> = 0 under balanced weights. So the slope
table reduces each c1(F) modulo M through the first maximal cone, the
verdict is decided once per (Pic class, rank) class by the sign of an
integer (`check_stability`), and a `Fraction` is built only for the slopes
it reports.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .bundle import ToricBundle, _profile_multiplicities, check_compatibility
from .fan import Fan, FanError, Wall, validate_fan, wall_normal
from .linalg import (
    Subspace, integer_rank, lattice_frame, span, unimodular_inverse,
)
from .matroid import Flat, _mask, bundle_ground_set, proper_nonzero_flats
from .polytopes import HPolytope, newton_polytope


class PolarizationError(ValueError):
    pass


@dataclass(frozen=True)
class Polarization:
    weights: tuple[Fraction, ...]


def _scaled_weights(fan: Fan, weights: tuple) -> tuple[int, list[int]]:
    """(den, t): ints or Fractions as integers t over their common
    denominator den, after the tests every polarization passes. Raises
    TypeError on a float, and PolarizationError unless there is one weight
    per ray, none is negative and sum t_i v_i = 0. Builds a `Fraction` only
    for the balance defect it reports."""
    if any(isinstance(x, float) for x in weights):
        raise TypeError(f"float weight in {weights}: give ints or Fractions")
    if len(weights) != len(fan.rays):
        raise PolarizationError(
            f"got {len(weights)} weights for {len(fan.rays)} rays"
        )
    den = lcm(*(x.denominator for x in weights))
    t = [x.numerator * (den // x.denominator) for x in weights]
    if any(n < 0 for n in t):
        raise PolarizationError("weights must be nonnegative")
    balance = [sum(map(mul, t, column)) for column in zip(*fan.rays)]
    if any(balance):
        balance = tuple(Fraction(x, den) for x in balance)
        raise PolarizationError(
            f"weights violate the Minkowski balance: sum t_i v_i = {balance}"
        )
    return den, t


def validate_polarization(fan: Fan, weights) -> Polarization:
    """Nonnegative weights with exact balance and spanning positivity.

    `_scaled_weights` tests the type, count, signs and balance in integers.
    The rays of positive weight P positively span exactly when they span:
    sum_{i in P} t_i v_i = 0 with every t_i > 0 puts each -v_j, j in P, in
    the cone of P, so that cone is closed under negation and equals the
    span of P. When some weight is zero the test is the rank of P. When
    every weight is positive P is all the rays, and the answer is the fan's
    own positive-span check, kept on its report."""
    weights = tuple(weights)
    _, t = _scaled_weights(fan, weights)
    if all(t):
        spanning = validate_fan(fan).positively_spanning
    else:
        spanning = integer_rank([v for n, v in zip(t, fan.rays) if n]) == fan.dim
    if not spanning:
        raise PolarizationError(
            "rays with positive weight do not positively span"
        )
    return Polarization(weights=tuple(Fraction(x) for x in weights))


def _lattice_volume(table: dict, halfspaces: dict, dim: int):
    """Lattice-normalized volume (dim! times the Euclidean volume) of the
    bounded polytope {y in Q^dim : <a, y> <= b for (a, b) in halfspaces}, whose
    normals are distinct and primitive. The pyramids over the facets from the
    origin give dim! vol(P) = sum b Vol(F_a), with b the lattice distance.
    `table` is the fan's `_facets` (see `_facet_volume`).

    It is 0 for an empty polytope, by induction on dim. An interval
    -b' <= y <= b has volume max(b + b', 0), which is 0 when it is empty; a
    point (a facet of a 1-dimensional fan's polytope) has volume 1 or 0 as
    it meets the bounds parallel to its facet or not, and `_facet_volume`
    returns 0 at the first such bound it violates; and every facet of an
    empty polytope is empty, so every term of the sum is 0. A nonempty
    polytope of lower dimension gives 0 as well: in codimension 1 only the
    two facets in its own hyperplane, with normals +-a and bounds b and -b,
    can have positive volume, and they are the same set; in higher
    codimension every facet is itself lower-dimensional.
    """
    if dim == 0:
        return 1
    if dim == 1:
        # each end point of the interval is a facet of volume 1 when the
        # other bound holds there
        total = sum(halfspaces.values())
        return max(total, 0) if len(halfspaces) == 2 else total
    return sum(b * _facet_volume(table, halfspaces, a, b) for a, b in halfspaces.items())


def _divide(x, g: int):
    """x / g: an int when g divides the int x, else a Fraction."""
    if isinstance(x, int):
        return x // g if x % g == 0 else Fraction(x, g)
    return x / g


def _facet_volume(table: dict, halfspaces: dict, normal, bound):
    """Lattice-normalized volume of the face <normal, y> = bound: the same
    problem one dimension down, in the coordinates m = bound w + B y, with
    (w, B) from `lattice_frame`: <normal, w> = 1 and B a lattice basis of
    normal-perp. A bound b on a normal a becomes b - bound <a, w> on B^T a,
    an integer when b and bound are; it is divided by g = gcd(B^T a) to make
    the normal primitive, and only then can it leave the integers.

    Only that bound arithmetic depends on the divisor. The frame of a normal
    and, for each a, the primitive B^T a / g, g and <a, w> are functions of
    the two vectors alone, so `table` (the fan's `_facets`) keys them by the
    vectors: table[normal] = (w, B, rows), with rows[a] = (B^T a / g, g,
    <a, w>), each filled on first use. An entry is right whichever path of
    the recursion reaches its normal, in whichever coordinates that path
    left it. The recursion still reaches a face of codimension j once per
    ordering of the facets that cut it out, but after the first visit to a
    normal on a fan each later one is a dictionary hit."""
    entry = table.get(normal)
    if entry is None:
        w, basis = lattice_frame(normal, len(normal))
        entry = table[normal] = (w, basis, {})
    w, basis, rows = entry
    facet: dict = {}
    for a, b in halfspaces.items():
        row = rows.get(a)
        if row is None:
            restricted = tuple(sum(map(mul, a, col)) for col in basis)
            g = gcd(*restricted)
            if g > 1:
                restricted = tuple(x // g for x in restricted)
            row = rows[a] = (restricted, g, sum(map(mul, a, w)))
        restricted, g, aw = row
        rest = b - bound * aw
        if g == 0:
            if rest < 0:
                return 0
            continue
        if g != 1:
            rest = _divide(rest, g)
        known = facet.get(restricted)
        if known is None or rest < known:
            facet[restricted] = rest
    return _lattice_volume(table, facet, len(basis))


def weights_from_divisor(fan: Fan, coefficients) -> Polarization:
    """Polarization weights of a divisor: normalized facet volumes of its
    polytope. The polytope must be full-dimensional, which holds exactly
    when sum c_i t_i = d! vol(P) is positive. The weights are computed
    first: an empty polytope has every t_i = 0 (see `_lattice_volume`), so
    the vertices are enumerated only when the sum is 0, to tell an empty
    polytope from a lower-dimensional one. The frames and restricted normals
    come from the fan's `_facets` table, filled by the first divisor on the
    fan; later divisors pay only for the arithmetic on their own bounds."""
    poly = newton_polytope(fan, coefficients)
    halfspaces = {
        ray: c.numerator if c.denominator == 1 else c
        for ray, c in zip(poly.rays, poly.bounds)
    }
    table = fan._facets
    weights = [_facet_volume(table, halfspaces, ray, c) for ray, c in halfspaces.items()]
    if sum(c * t for c, t in zip(halfspaces.values(), weights)) == 0:
        if poly.is_empty():
            raise PolarizationError("divisor polytope is empty; weights undefined")
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


def _order(difference) -> Order:
    """How a compares with b, from the sign of a - b."""
    if difference < 0:
        return Order.LESS
    return Order.GREATER if difference > 0 else Order.EQUAL


def compare_average_polytopes(p1: HPolytope, p2: HPolytope, pol: Polarization) -> Order:
    """Total order on divisor polytopes: compare sum c_i t_i."""
    if p1.rays != p2.rays:
        raise ValueError("polytopes over different fans are not comparable")
    return _order(_weighted_support(p1, pol) - _weighted_support(p2, pol))


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
    """(c1(E), classes, members, firsts), computed once per bundle from the
    flats' spans and kept on it. `classes` holds the distinct pairs
    (key, rk F) in first-seen order, where key stands for the class of c1(F)
    in Pic(X) = Z^rays / M; `members` pairs every proper nonzero flat F, in
    flat order, with the index of its class; `firsts[k]` is class k's first
    member.

    The key is the representative of c1(F) that vanishes on the rays of
    sigma, the fan's first maximal cone. Its ray matrix R is unimodular, as
    the fan passed `validate_fan`, so u = -R^-1 c_sigma is a character and
    key = c + div(u), with div(u) = (<u, v_i>)_i: c minus c_s times the
    divisor of the character dual to s, for each ray s of sigma. Two flats
    share a class exactly when their ranks are equal and their c1 differ by
    a principal divisor. A balanced polarization has
    <div(u), t> = <u, sum t_i v_i> = 0, so the flats of a class have the
    same slope under every polarization, read from the key.

    Flats come in (rank, indices) order and a class has one rank, so a
    class's first member has its least indices, and classes of equal rank
    are in the order of their first members.

    The sweep spans each filtration value E = E^i(j) by the ground vectors
    inside it, so E meets the ground set in its level mask
    {e : level_i(e) >= j}, a flat that spans E. A flat F carries its span
    S_F, and dim(E n F) = dim E - d, with d = dim(E + S_F) - dim S_F the rank
    of the residuals of E's echelon rows modulo S_F. The masks decide when E
    and F differ by at most one element either way: if no element of E lies
    outside F, d = 0; if one, e, does, E + S_F = S_F + <e> with e not in S_F
    (F is a flat), so d = 1. Symmetrically, dim(E n F) = dim F when no
    element of F lies outside E (as when E is the full fiber), and dim F - 1
    when one does, which is not in E (E's mask is a flat). Only the other
    cases take an `integer_rank`.
    """
    if bundle._slopes is None:
        gs = bundle_ground_set(bundle)
        level_sets = []
        for filt in bundle.filtrations:
            levels = [filt.max_level(g) for g in gs.rows]
            level_sets.append([
                (a, sp, sum(1 << e for e, lv in enumerate(levels) if lv >= a))
                for a, sp in filt.steps
            ])

        def c1_of(mask, s_f):
            coeffs = []
            for steps in level_sets:
                dims = []
                for _, sp, m in steps:
                    missed, extra = m & ~mask, mask & ~m
                    if not missed & (missed - 1):
                        dims.append(sp.dim - 1 if missed else sp.dim)
                    elif not extra & (extra - 1):
                        dims.append(s_f.dim - 1 if extra else s_f.dim)
                    else:
                        rows = [s_f.residual(row) for row in sp.int_rows]
                        dims.append(sp.dim - integer_rank(rows))
                dims.append(0)
                coeffs.append(sum(
                    a * (d - d_next) for (a, *_), d, d_next in zip(steps, dims, dims[1:])
                ))
            return coeffs

        fan = bundle.fan
        sigma = fan.max_cones[0]
        duals = [
            (s, [sum(map(mul, v, col)) for v in fan.rays])
            for s, col in zip(sigma, zip(*unimodular_inverse(fan.ray_matrix(sigma))))
        ]

        def key_of(coeffs):
            for s, div in duals:
                a = coeffs[s]
                if a:
                    coeffs = [x - a * y for x, y in zip(coeffs, div)]
            return tuple(coeffs)

        classes: dict = {}
        members = []
        firsts = []
        for f in proper_nonzero_flats(gs):
            k = classes.setdefault(
                (key_of(c1_of(_mask(f.indices), f.subspace)), f.rank), len(classes)
            )
            if k == len(firsts):
                firsts.append(f)
            members.append((f, k))
        c1_e = c1_of((1 << len(gs)) - 1, Subspace.full(bundle.rank))
        bundle._slopes = (tuple(c1_e), tuple(classes), tuple(members), tuple(firsts))
    return bundle._slopes


def check_stability(bundle: ToricBundle, pol: Polarization) -> StabilityReport:
    """Compare the slope of every proper nonzero flat with mu(E), in
    integers: one dot product per (Pic class, rank) class of the slope
    table. The weights pass the guard of `validate_polarization`
    (`_scaled_weights`: TypeError on a float, PolarizationError unless there
    is one weight per ray, none is negative and sum t_i v_i = 0, with the
    same messages) and raise PolarizationError if all are zero: the classes
    need the balance, and a slope is a degree only under nonnegative,
    nonzero weights. Spanning positivity is left to `validate_polarization`,
    which needs the fan's positive-span test.

    With the weights scaled to integers t over den, a flat of class
    (key, rk F) has slope n / (den rk F) with n = sum key_i t_i, equal to
    sum c1_i(F) t_i for balanced t, and mu(E) = n_E / (den rk E). Both
    denominators are positive, so the flat's relation to mu is the sign of
    n rk E - n_E rk F. The witness is the flat of maximal slope, ties to the
    larger rank, then to the least indices: n/rk is compared across classes
    by cross-multiplying, and the first class to reach the winning (n, rk)
    is kept. Classes of different keys can share that pair, but the first
    of them has the first member with the least indices (`_slope_table`),
    and that member is the witness. A `Fraction` is built only for mu and
    for each class's slope, which the flats of the class share.
    """
    den, t = _scaled_weights(bundle.fan, pol.weights)
    if not any(t):
        raise PolarizationError("weights are all zero")
    check_compatibility(bundle)
    c1_e, classes, members, firsts = _slope_table(bundle)
    r, n_e = bundle.rank, sum(map(mul, c1_e, t))
    nums = [sum(map(mul, coeffs, t)) for coeffs, _ in classes]
    relations = [_order(n * r - n_e * rk) for n, (_, rk) in zip(nums, classes)]
    shared = [
        (Fraction(n, den * rk), rel)
        for n, (_, rk), rel in zip(nums, classes, relations)
    ]
    witness = None
    witness_slope = None
    if classes:
        top = 0
        for k, (n, (_, rk)) in enumerate(zip(nums, classes)):
            top_rk = classes[top][1]
            ahead = n * top_rk - nums[top] * rk
            if ahead > 0 or (ahead == 0 and rk > top_rk):
                top = k
        witness, witness_slope = firsts[top], shared[top][0]
    return StabilityReport(
        mu=Fraction(n_e, den * r),
        stable=all(rel is Order.LESS for rel in relations),
        semistable=Order.GREATER not in relations,
        flat_slopes=tuple(FlatSlope(f, *shared[k]) for f, k in members),
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


@dataclass(frozen=True)
class RestrictionReport:
    wall: Wall
    degrees: tuple[int, ...]  # sorted
    semistable: bool
    segments: tuple[Segment, ...]


def restrict_to_curve(bundle: ToricBundle, wall: Wall) -> RestrictionReport:
    """Splitting degrees of the bundle on the invariant curve of a wall tau,
    read from the compatible bases of its two cones sigma = tau + a and
    sigma' = tau + b (Hering-Mustata-Payne, Ann. Inst. Fourier 60, 2010).

    Each cone's basis is adapted to its own rays' filtrations, so on a
    tau-profile class q, deeper(q) = sum_t S(q + e_t) is spanned by the
    sigma-lines of tau-profile >= q and != q, and the graded piece
    S(q) / deeper(q) by the class's lines of either cone. The images there
    of A_i = E_a(i) and B_j = E_b(j) are spanned by the class's sigma-lines
    of a-level >= i and sigma'-lines of b-level >= j. Reducing modulo
    deeper(q) at its pivot columns maps the graded piece isomorphically
    onto the span of the residuals, so A and B are two filtrations there,
    over the levels present, and the compatibility kernel
    `_profile_multiplicities` gives their joint multiplicities m(i, j), as
    it does on every cone. m(i, j) lines of a-level i are paired with
    m(i, j) lines of b-level j, by descending i and then j, in sheet order.
    A class of one line pairs with no kernel. Paired characters differ by a
    multiple of the wall normal, which is the degree.
    """
    sheet = check_compatibility(bundle)
    fan = bundle.fan

    def classes(cone_index, extra):
        """tau-profile -> [(extra-ray level, row)], in sheet order."""
        cone = fan.max_cones[cone_index]
        tau_pos = [cone.index(i) for i in wall.tau]
        x = cone.index(extra)
        by_profile: dict[tuple[int, ...], list] = {}
        for row in sheet.rows[cone_index]:
            key = tuple(row.profile[k] for k in tau_pos)
            by_profile.setdefault(key, []).append((row.profile[x], row))
        return by_profile

    def by_level(lines):
        """extra-ray level -> its rows, last first, so pop() keeps sheet order."""
        rows: dict[int, list] = {}
        for lv, row in reversed(lines):
            rows.setdefault(lv, []).append(row)
        return rows

    cls_a = classes(wall.sigma, wall.extra_sigma)
    cls_b = classes(wall.sigma_prime, wall.extra_sigma_prime)
    if {q: len(v) for q, v in cls_a.items()} != {q: len(v) for q, v in cls_b.items()}:
        raise VerificationError(
            "tau-profile class multisets differ between the two cones"
        )

    pairs = []
    for q in sorted(cls_a):
        lines_a, lines_b = cls_a[q], cls_b[q]
        if len(lines_a) == 1:
            pairs.append((lines_a[0][1], lines_b[0][1]))
            continue
        deeper = span([
            row.row
            for p, lines in cls_a.items() if p != q and all(x >= y for x, y in zip(p, q))
            for _, row in lines
        ], bundle.rank)

        def graded(lines):  # level i -> residuals of the lines of level >= i
            return [
                (i, span([deeper.residual(row.row) for lv, row in lines if lv >= i], bundle.rank))
                for i in sorted({lv for lv, _ in lines})
            ]

        mult, _ = _profile_multiplicities([graded(lines_a), graded(lines_b)])
        by_a, by_b = by_level(lines_a), by_level(lines_b)
        for (i, j), m in sorted(mult.items(), reverse=True):
            for _ in range(m):
                if not (by_a[i] and by_b[j]):
                    raise VerificationError(
                        "joint multiplicities do not match the character profiles"
                    )
                pairs.append((by_a[i].pop(), by_b[j].pop()))

    m_tau = wall_normal(fan, wall)
    k = next(i for i, x in enumerate(m_tau) if x != 0)
    gs = bundle_ground_set(bundle)
    segments = []
    for ra, rb in pairs:
        diff = tuple(a - b for a, b in zip(ra.character, rb.character))
        a = diff[k] // m_tau[k]
        if tuple(a * x for x in m_tau) != diff:
            raise VerificationError("character difference is not a multiple of the wall normal")
        segments.append(Segment(
            character_sigma=ra.character,
            character_sigma_prime=rb.character,
            degree=a,
            entry_sigma=gs.index_of_line(ra.row),
        ))
    degrees = tuple(sorted(s.degree for s in segments))
    return RestrictionReport(
        wall=wall,
        degrees=degrees,
        semistable=len(set(degrees)) <= 1,
        segments=tuple(segments),
    )
