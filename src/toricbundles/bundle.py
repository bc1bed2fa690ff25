"""Klyachko filtration data of toric vector bundles.

A bundle is a validated fan plus one decreasing integer-indexed filtration of
the fiber per ray. The filtration stores thresholds A_1 < ... < A_s with
subspaces V_1 = E > V_2 > ... > V_s > 0 and means

    E(j) = V_k   for A_{k-1} < j <= A_k   (A_0 = -infinity),
    E(j) = 0     for j > A_s.

The compatibility check is two-phase: exact profile multiplicities first
(necessary), as finite differences of intersection dimensions found by a
walk that stops at the first zero intersection, then one greedy splitting,
verified verbatim against the sum condition. Both verdicts are exact: if a
compatible basis B exists, every S(q) = n E_i(q_i), and every sum of them, is
spanned by part of B. Profiles are split in the order (-sum p, p), so no
earlier q has q <= p, and the lines chosen so far meet S(p) in deeper(p) =
sum_i S(p + e_i); the echelon rows of S(p) then give exactly m(p) new lines.
For a preferred F spanned by part of B, the rows of S(p) n F come first and
give exactly dim F lines inside F.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .fan import Fan, FanError, validate_fan
from .linalg import (
    Subspace,
    Vector,
    intersect,
    solve_integer_system,
    span,
    subspace_sum,
)


class Filtration:
    """One ray's decreasing filtration in threshold form."""

    __slots__ = ("rank", "steps")

    def __init__(self, rank: int, steps):
        self.rank = int(rank)
        steps = tuple((int(j), sp) for j, sp in steps)
        if not steps:
            raise ValueError("a filtration needs at least one step")
        if not steps[0][1].is_full() or steps[0][1].ambient != self.rank:
            raise ValueError("the first filtration step must be the full fiber")
        for (j1, s1), (j2, s2) in zip(steps, steps[1:]):
            if j2 <= j1:
                raise ValueError("filtration thresholds must strictly increase")
            if not (s1.contains_subspace(s2) and s2.dim < s1.dim):
                raise ValueError("filtration subspaces must strictly decrease")
        if steps[-1][1].dim == 0:
            raise ValueError("the zero space is implicit beyond the last threshold")
        self.steps = steps

    @property
    def thresholds(self) -> tuple[int, ...]:
        return tuple(j for j, _ in self.steps)

    def value(self, j: int) -> Subspace:
        """E(j), with E(j) = 0 beyond the last threshold."""
        for a, sp in self.steps:
            if j <= a:
                return sp
        return Subspace.zero(self.rank)

    def max_level(self, v) -> int:
        """max { j : v in E(j) } for a nonzero fiber vector."""
        best = None
        for a, sp in self.steps:
            if sp.contains(v):
                best = a
            else:
                break
        if best is None:
            raise ValueError("vector outside the full fiber cannot occur")
        return best

    def jump_multiset(self, f: Subspace) -> tuple[int, ...]:
        """Thresholds of j -> E(j) n F with multiplicity = dimension drop."""
        if f.ambient != self.rank:
            raise ValueError("subspace from a different fiber")
        dims = [intersect(sp, f).dim for _, sp in self.steps] + [0]
        out = []
        for (a, _), d_here, d_next in zip(self.steps, dims, dims[1:]):
            out.extend([a] * (d_here - d_next))
        return tuple(sorted(out))

    def shifted(self, offset: int) -> "Filtration":
        return Filtration(self.rank, [(j + offset, sp) for j, sp in self.steps])

    def __eq__(self, other):
        return (
            isinstance(other, Filtration)
            and self.rank == other.rank
            and self.steps == other.steps
        )

    def __hash__(self):
        return hash((self.rank, self.steps))

    def __repr__(self):
        body = ", ".join(f"(<= {j}: dim {sp.dim})" for j, sp in self.steps)
        return f"Filtration(rank={self.rank}, {body})"


class ToricBundle:
    """A toric vector bundle: validated fan + one filtration per ray.

    Bundles are immutable, so the data derived from them is computed once
    and memoized in the private slots: the profile walk of each cone, the
    compatibility outcome, and the ground set (filled by `matroid`).
    """

    __slots__ = ("fan", "rank", "filtrations", "summand_spans",
                 "_walks", "_compatibility", "_ground_set")

    def __init__(self, fan: Fan, rank: int, filtrations, summand_spans=None):
        report = validate_fan(fan)
        if not report.passed:
            raise FanError("bundle over an invalid fan:\n" + report.summary())
        self.fan = fan
        self.rank = int(rank)
        filtrations = tuple(filtrations)
        if len(filtrations) != len(fan.rays):
            raise ValueError(
                f"got {len(filtrations)} filtrations for {len(fan.rays)} rays"
            )
        for f in filtrations:
            if f.rank != self.rank:
                raise ValueError("filtration rank differs from bundle rank")
        self.filtrations = filtrations
        self.summand_spans = tuple(summand_spans) if summand_spans else None
        self._walks = {}
        self._compatibility = None
        self._ground_set = None

    def __repr__(self):
        return f"ToricBundle(rank={self.rank}, rays={len(self.fan.rays)})"


# ---------------------------------------------------------------------------
# constructors


def line_bundle(fan: Fan, coefficients) -> ToricBundle:
    """O(sum a_i D_i): rank one, threshold a_i on ray i."""
    coeffs = [int(a) for a in coefficients]
    if len(coeffs) != len(fan.rays):
        raise ValueError("one divisor coefficient per ray required")
    full = Subspace.full(1)
    filts = [Filtration(1, [(a, full)]) for a in coeffs]
    return ToricBundle(fan, 1, filts)


def tangent_bundle(fan: Fan) -> ToricBundle:
    """Tangent bundle: thresholds (0, 1) with middle step <v_i> on each ray."""
    d = fan.dim
    full = Subspace.full(d)
    filts = [
        Filtration(d, [(0, full), (1, span([ray], d))]) for ray in fan.rays
    ]
    return ToricBundle(fan, d, filts)


def _embed(sub: Subspace, offset: int, total: int) -> Subspace:
    rows = [
        tuple([Fraction(0)] * offset) + r + tuple([Fraction(0)] * (total - offset - len(r)))
        for r in sub.rows
    ]
    return span(rows, total)


def direct_sum(b1: ToricBundle, b2: ToricBundle) -> ToricBundle:
    if b1.fan is not b2.fan and (b1.fan.rays != b2.fan.rays or b1.fan.max_cones != b2.fan.max_cones):
        raise ValueError("direct sum of bundles over different fans")
    r = b1.rank + b2.rank
    filts = []
    for f1, f2 in zip(b1.filtrations, b2.filtrations):
        thresholds = sorted(set(f1.thresholds) | set(f2.thresholds))
        steps = []
        for t in thresholds:
            sp = subspace_sum(
                _embed(f1.value(t), 0, r), _embed(f2.value(t), b1.rank, r)
            )
            if sp.dim == 0:
                continue
            if steps and steps[-1][1] == sp:
                steps[-1] = (t, sp)
            else:
                steps.append((t, sp))
        filts.append(Filtration(r, steps))
    spans = []
    for offset, part in ((0, b1), (b1.rank, b2)):
        for prev in part.summand_spans or (Subspace.full(part.rank),):
            spans.append(_embed(prev, offset, r))
    return ToricBundle(b1.fan, r, filts, summand_spans=spans)


def twist_by_divisor(b: ToricBundle, coefficients) -> ToricBundle:
    coeffs = [int(a) for a in coefficients]
    if len(coeffs) != len(b.fan.rays):
        raise ValueError("one divisor coefficient per ray required")
    filts = [f.shifted(a) for f, a in zip(b.filtrations, coeffs)]
    return ToricBundle(b.fan, b.rank, filts, summand_spans=b.summand_spans)


def twist_by_character(b: ToricBundle, u) -> ToricBundle:
    u = [int(x) for x in u]
    if len(u) != b.fan.dim:
        raise ValueError("character of the wrong dimension")
    shifts = [sum(ui * vi for ui, vi in zip(u, ray)) for ray in b.fan.rays]
    return twist_by_divisor(b, shifts)


# ---------------------------------------------------------------------------
# compatibility


@dataclass(frozen=True)
class SheetRow:
    """One line of a compatible decomposition on a maximal cone."""

    profile: tuple[int, ...]  # jump level on each ray of the cone, cone order
    character: tuple[int, ...]
    vector: Vector


@dataclass(frozen=True)
class CharacterSheet:
    """Per maximal cone: associated characters and a compatible basis."""

    rows: tuple[tuple[SheetRow, ...], ...]  # indexed like fan.max_cones

    def characters(self, cone_index: int) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(r.character for r in self.rows[cone_index]))


@dataclass(frozen=True)
class IncompatibilityWitness:
    cone_index: int
    cone: tuple[int, ...]
    profile: tuple[int, ...] | None
    multiplicity: int | None
    detail: str


class IncompatibleBundleError(ValueError):
    def __init__(self, witness: IncompatibilityWitness):
        self.witness = witness
        super().__init__(
            f"filtrations are incompatible on cone {witness.cone}: {witness.detail}"
        )


def _profile_multiplicities(filts):
    """Multiplicity of every joint jump profile on one cone.

    D(p) is the dimension of the intersection of E_i(p_i) over the cone's
    rays, for p in the product of the threshold sets. The multiplicity of p
    is the k-fold finite difference of D: m(p) <- m(p) - m(p + e_i) on each
    ray i in turn, where p + e_i moves ray i to its next threshold and D = 0
    past the last one. The filtrations decrease, so D is monotone and its
    support is closed downward. A walk over the rays in cone order carries
    the partial intersection along and stops a branch at its first zero
    intersection, so it visits D on its support only; every difference stays
    on that support.

    Returns (mult, space_at): mult maps profiles to their nonzero
    multiplicities, in lexicographic order; space_at maps every profile in
    the support of D, so every key of mult, to the intersection of the
    filtration values there, as the walk found it.
    """
    k = len(filts)
    spaces: dict[tuple[int, ...], Subspace] = {}

    def walk(i, prefix, above):
        for a, step in filts[i].steps:
            here = step if above is None else intersect(above, step)
            if here.dim == 0:
                break
            if i + 1 == k:
                spaces[prefix + (a,)] = here
            else:
                walk(i + 1, prefix + (a,), here)

    walk(0, (), None)
    mult = {p: sp.dim for p, sp in spaces.items()}
    for i, f in enumerate(filts):
        # None past the last threshold: no profile has it, so D reads 0 there
        following = dict(zip(f.thresholds, f.thresholds[1:] + (None,)))
        mult = {
            p: m - mult.get(p[:i] + (following[p[i]],) + p[i + 1:], 0)
            for p, m in mult.items()
        }
    return {p: m for p, m in mult.items() if m}, spaces.__getitem__


def _attempt_split(mult, space_at, rank, prefer):
    """The greedy decomposition: for each profile p by descending sum, m(p)
    echelon rows of S(p) outside the span of the lines chosen so far; None
    when some profile runs short of rows."""
    chosen: list[tuple[tuple[int, ...], Vector]] = []
    chosen_span = Subspace.zero(rank)
    for p in sorted(mult, key=lambda p: (-sum(p), p)):
        inter = space_at(p)
        pools = [inter] if prefer is None else [intersect(inter, prefer), inter]
        need = mult[p]
        for pool in pools:
            for cand in pool.rows:
                if need and not chosen_span.contains(cand):
                    chosen.append((p, cand))
                    chosen_span = subspace_sum(chosen_span, span([cand], rank))
                    need -= 1
        if need:
            return None
    return chosen


def _verify_split(filts, assignment, rank) -> bool:
    """The (CC) sum condition, checked verbatim at every jump level."""
    if span([v for _, v in assignment], rank).dim != rank:
        return False
    for i, f in enumerate(filts):
        for j in f.thresholds:
            got = span([v for p, v in assignment if p[i] >= j], rank)
            if got != f.value(j):
                return False
    return True


def _cone_walk(bundle, cone_index):
    """(mult, space_at) of one cone, walked once per bundle, or the witness
    of the cone's first negative multiplicity."""
    walk = bundle._walks.get(cone_index)
    if walk is None:
        cone = bundle.fan.max_cones[cone_index]
        walk = _profile_multiplicities([bundle.filtrations[i] for i in cone])
        for p, m in sorted(walk[0].items()):
            if m < 0:
                walk = IncompatibilityWitness(
                    cone_index, cone, p, m,
                    f"profile {p} has negative multiplicity {m}",
                )
                break
        bundle._walks[cone_index] = walk
    return walk


def _split_cone(bundle, cone_index, prefer=None, flat_dim=None):
    """Compatible basis rows on one cone, or an IncompatibilityWitness.

    With flat_dim set, the split is only accepted when exactly flat_dim of
    its lines lie inside `prefer` (the compatible-flat count condition).
    """
    walk = _cone_walk(bundle, cone_index)
    if isinstance(walk, IncompatibilityWitness):
        return walk
    mult, space_at = walk
    cone = bundle.fan.max_cones[cone_index]
    filts = [bundle.filtrations[i] for i in cone]
    assignment = _attempt_split(mult, space_at, bundle.rank, prefer)
    if assignment is None:
        reason = "no independent lines left for some profile"
    elif not _verify_split(filts, assignment, bundle.rank):
        reason = "the greedy decomposition fails the sum condition"
    else:
        inside = None if flat_dim is None else sum(
            1 for _, v in assignment if prefer.contains(v)
        )
        if inside == flat_dim:
            rays = [bundle.fan.rays[i] for i in cone]
            return tuple(
                SheetRow(profile=p, character=solve_integer_system(rays, p), vector=v)
                for p, v in assignment
            )
        reason = f"basis meets the flat in {inside} lines, need {flat_dim}"
    return IncompatibilityWitness(cone_index, cone, None, None, reason)


def check_compatibility(bundle: ToricBundle) -> CharacterSheet:
    """Decide the compatibility condition, once per bundle; raises
    IncompatibleBundleError on every call for an incompatible one."""
    outcome = bundle._compatibility
    if outcome is None:
        rows = []
        for ci in range(len(bundle.fan.max_cones)):
            outcome = _split_cone(bundle, ci)
            if isinstance(outcome, IncompatibilityWitness):
                break
            rows.append(outcome)
        else:
            outcome = CharacterSheet(rows=tuple(rows))
        bundle._compatibility = outcome
    if isinstance(outcome, IncompatibilityWitness):
        raise IncompatibleBundleError(outcome)
    return outcome


def associated_characters(bundle: ToricBundle, cone_index: int) -> tuple[tuple[int, ...], ...]:
    """The multiset u(sigma), sorted; independent of the realized basis.
    A negative multiplicity on this cone is reported before any other."""
    walk = _cone_walk(bundle, cone_index)
    if isinstance(walk, IncompatibilityWitness):
        raise IncompatibleBundleError(walk)
    return check_compatibility(bundle).characters(cone_index)
