"""Klyachko filtration data of toric vector bundles.

A bundle is a validated fan plus one decreasing integer-indexed filtration of
the fiber per ray. The filtration stores thresholds A_1 < ... < A_s with
subspaces V_1 = E > V_2 > ... > V_s > 0 and means

    E(j) = V_k   for A_{k-1} < j <= A_k   (A_0 = -infinity),
    E(j) = 0     for j > A_s.

The compatibility check is two-phase: exact profile multiplicities first
(necessary), as finite differences of intersection dimensions found by a
walk that stops at the first zero intersection, then one greedy splitting.
Both verdicts are exact. The walk's step lists need not start at the full
fiber, so curve restrictions reuse it. Split lines stay integer echelon
rows. If a compatible basis B exists, every S(q) = n E_i(q_i), and every
sum of them, is spanned by part of B. Profiles are split in the order
(-sum p, p), so no earlier q has q <= p, and the lines chosen so far meet
S(p) in deeper(p) = sum_i S(p + e_i); the echelon rows of S(p) then give
exactly m(p) new lines. For a preferred F spanned by part of B, the rows of
S(p) n F come first and give exactly dim F lines inside F.

Conversely, a greedy pass that fills every multiplicity is a compatible
basis, so it is returned without a re-check. Its multiplicities are
nonnegative, and the finite differences telescope: for a threshold j of ray
i, the profiles with p_i >= j carry dim E_i(j) lines in all, and all
profiles carry rank lines. Each such line lies in S(p), inside
E_i(p_i), inside E_i(j), and the chosen lines are independent, so they form
a basis whose lines with p_i >= j span E_i(j).

The split grows the span of the chosen lines by adjoining each new line's
residual to its echelon rows, so no sum is eliminated afresh. A line chosen
for profile p on a cone with rays v_1..v_d gets the character u with
<u, v_i> = p_i, that is u = R^-1 p for the cone's ray matrix R. The fan is
validated smooth, so every maximal cone's rays are a lattice basis, det R =
+-1 and R^-1 is an integer matrix; it is computed once per cone, and every
character of the cone is one integer matrix-vector product.
"""
from __future__ import annotations

from dataclasses import dataclass

from .fan import Fan, FanError, validate_fan
from .linalg import (
    IntRow,
    Subspace,
    dot,
    extend_basis,
    intersect,
    span,
    subspace_sum,
    unimodular_inverse,
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

    @classmethod
    def from_values(cls, rank: int, values) -> "Filtration":
        """The filtration taking value sp at threshold j for the (j, sp)
        pairs in increasing j: zero values are dropped, and a run of equal
        values keeps its last threshold."""
        steps = []
        for j, sp in values:
            if sp.dim == 0:
                continue
            if steps and steps[-1][1] == sp:
                steps[-1] = (j, sp)
            else:
                steps.append((j, sp))
        return cls(rank, steps)

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
    compatibility outcome, the ground set (filled by `matroid`) and the
    slope table (filled by `stability`).
    """

    __slots__ = ("fan", "rank", "filtrations",
                 "_walks", "_compatibility", "_ground_set", "_slopes")

    def __init__(self, fan: Fan, rank: int, filtrations):
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
        self._walks = {}
        self._compatibility = None
        self._ground_set = None
        self._slopes = None

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
        (0,) * offset + r + (0,) * (total - offset - len(r)) for r in sub.int_rows
    ]
    return span(rows, total)


def direct_sum(b1: ToricBundle, b2: ToricBundle) -> ToricBundle:
    if b1.fan is not b2.fan and (b1.fan.rays != b2.fan.rays or b1.fan.max_cones != b2.fan.max_cones):
        raise ValueError("direct sum of bundles over different fans")
    r = b1.rank + b2.rank
    filts = []
    for f1, f2 in zip(b1.filtrations, b2.filtrations):
        thresholds = sorted(set(f1.thresholds) | set(f2.thresholds))
        filts.append(Filtration.from_values(r, [
            (t, subspace_sum(_embed(f1.value(t), 0, r), _embed(f2.value(t), b1.rank, r)))
            for t in thresholds
        ]))
    return ToricBundle(b1.fan, r, filts)


def twist_by_divisor(b: ToricBundle, coefficients) -> ToricBundle:
    coeffs = [int(a) for a in coefficients]
    if len(coeffs) != len(b.fan.rays):
        raise ValueError("one divisor coefficient per ray required")
    filts = [f.shifted(a) for f, a in zip(b.filtrations, coeffs)]
    return ToricBundle(b.fan, b.rank, filts)


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
    row: IntRow  # the line's integer echelon row


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


def _profile_multiplicities(step_lists):
    """Multiplicity of every joint jump profile of k decreasing filtrations,
    each a step list [(threshold, value)] such as `Filtration.steps`, whose
    first value need not be the full fiber (`restrict_to_curve`).

    D(p) is the dimension of the intersection of E_i(p_i) over the k
    filtrations, for p in the product of the threshold sets. The
    multiplicity of p is the k-fold finite difference of D:
    m(p) <- m(p) - m(p + e_i) on each filtration i in turn, where p + e_i
    moves filtration i to its next threshold and D = 0 past the last one.
    The filtrations decrease, so D is monotone and its support is closed
    downward. A walk over the filtrations in order carries the partial
    intersection along and stops a branch at its first zero intersection,
    so it visits D on its support only; every difference stays on that
    support.

    Returns (mult, space_at): mult maps profiles to their nonzero
    multiplicities, in lexicographic order; space_at maps every profile in
    the support of D, so every key of mult, to the intersection of the
    filtration values there, as the walk found it.
    """
    k = len(step_lists)
    spaces: dict[tuple[int, ...], Subspace] = {}

    def walk(i, prefix, above):
        for a, step in step_lists[i]:
            here = step if above is None else intersect(above, step)
            if here.dim == 0:
                break
            if i + 1 == k:
                spaces[prefix + (a,)] = here
            else:
                walk(i + 1, prefix + (a,), here)

    walk(0, (), None)
    mult = {p: sp.dim for p, sp in spaces.items()}
    for i, steps in enumerate(step_lists):
        # None past the last threshold: no profile has it, so D reads 0 there
        thresholds = [a for a, _ in steps]
        following = dict(zip(thresholds, thresholds[1:] + [None]))
        mult = {
            p: m - mult.get(p[:i] + (following[p[i]],) + p[i + 1:], 0)
            for p, m in mult.items()
        }
    return {p: m for p, m in mult.items() if m}, spaces.__getitem__


def _attempt_split(mult, space_at, rank, prefer):
    """The greedy decomposition: for each profile p by descending sum, m(p)
    integer echelon rows of S(p) outside the span of the lines chosen so
    far; None when some profile runs short of rows."""
    chosen: list[tuple[tuple[int, ...], IntRow]] = []
    chosen_span = Subspace.zero(rank)
    for p in sorted(mult, key=lambda p: (-sum(p), p)):
        lines, chosen_span = extend_basis(chosen_span, space_at(p), mult[p], prefer)
        if len(lines) < mult[p]:
            return None
        chosen.extend((p, v) for v in lines)
    return chosen


def _cone_walk(bundle, cone_index):
    """(mult, space_at) of one cone, walked once per bundle, or the witness
    of the cone's first negative multiplicity."""
    walk = bundle._walks.get(cone_index)
    if walk is None:
        cone = bundle.fan.max_cones[cone_index]
        walk = _profile_multiplicities([bundle.filtrations[i].steps for i in cone])
        for p, m in sorted(walk[0].items()):
            if m < 0:
                walk = IncompatibilityWitness(
                    cone_index, cone, p, m,
                    f"profile {p} has negative multiplicity {m}",
                )
                break
        bundle._walks[cone_index] = walk
    return walk


def _split_cone(bundle, cone_index, prefer=None):
    """Compatible basis of one cone as (profile, line) pairs, each line an
    integer echelon row, or an IncompatibilityWitness.

    With `prefer` set, the split is only accepted when exactly prefer.dim of
    its lines lie inside it (the compatible-flat count condition).
    """
    walk = _cone_walk(bundle, cone_index)
    if isinstance(walk, IncompatibilityWitness):
        return walk
    mult, space_at = walk
    assignment = _attempt_split(mult, space_at, bundle.rank, prefer)
    if assignment is None:
        reason = "no independent lines left for some profile"
    else:
        inside = 0 if prefer is None else sum(
            1 for _, v in assignment if prefer.contains(v)
        )
        if prefer is None or inside == prefer.dim:
            return tuple(assignment)
        reason = f"basis meets the flat in {inside} lines, need {prefer.dim}"
    cone = bundle.fan.max_cones[cone_index]
    return IncompatibilityWitness(cone_index, cone, None, None, reason)


def check_compatibility(bundle: ToricBundle) -> CharacterSheet:
    """Decide the compatibility condition, once per bundle; raises
    IncompatibleBundleError on every call for an incompatible one. Each line
    of a cone's split gets the character u with <u, v_i> = p_i on the cone's
    rays v_i, that is u = R^-1 p for the cone's ray matrix R, inverted once
    per cone."""
    outcome = bundle._compatibility
    if outcome is None:
        rows = []
        for ci, cone in enumerate(bundle.fan.max_cones):
            outcome = _split_cone(bundle, ci)
            if isinstance(outcome, IncompatibilityWitness):
                break
            inverse = unimodular_inverse([bundle.fan.rays[i] for i in cone])
            rows.append(tuple(
                SheetRow(profile=p, character=tuple(dot(r, p) for r in inverse), row=v)
                for p, v in outcome
            ))
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
