"""Parliaments of polytopes, average polytopes, and reconstruction.

The parliament of a compatible bundle attaches to every ground-set element e
the polytope with bounds max{ j : e in E^i(j) }, and annotates each maximal
cone's associated characters with the ground-set entry whose line the
compatible basis realizes. Reconstruction inverts the picture for globally
generated bundles: per-ray flags are recovered from character membership.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bundle import Filtration, ToricBundle, check_compatibility
from .fan import Fan
from .linalg import Subspace, Vector, integer_row, span
from .matroid import GroundSet, bundle_ground_set
from .polytopes import HPolytope
from .stability import c1


def polytope_of(bundle: ToricBundle, e) -> HPolytope:
    """Polytope of a nonzero fiber vector: bound max{j : e in E^i(j)} per ray."""
    row = integer_row(e)
    if len(row) != bundle.rank:
        raise ValueError(f"expected a vector of length {bundle.rank}, got {len(row)}")
    if not any(row):
        raise ValueError("the zero vector has no parliament polytope")
    bounds = [f.max_level(row) for f in bundle.filtrations]
    return HPolytope(bundle.fan.rays, bounds)


@dataclass(frozen=True)
class ParliamentEntry:
    index: int
    vector: Vector
    polytope: HPolytope


@dataclass(frozen=True)
class CharacterMark:
    """One associated character of one cone, matched to a parliament label.

    `entry` is the ground-set index whose line the compatible basis supplies;
    when the basis line is parallel to no ground-set element the mark is
    flagged and falls back to the flat of the least lattice element holding
    the line: the entries whose bounds dominate the line's.
    """

    cone_index: int
    character: tuple[int, ...]
    line: Vector
    entry: int | None
    flat_indices: tuple[int, ...] | None

    @property
    def flagged(self) -> bool:
        return self.entry is None


@dataclass(frozen=True)
class Parliament:
    fan: Fan
    ground_set: GroundSet
    entries: tuple[ParliamentEntry, ...]
    marks: tuple[CharacterMark, ...]


def parliament(bundle: ToricBundle) -> Parliament:
    sheet = check_compatibility(bundle)
    gs = bundle_ground_set(bundle)
    entries = tuple(
        ParliamentEntry(index=i, vector=v, polytope=polytope_of(bundle, g))
        for i, (v, g) in enumerate(zip(gs.vectors, gs.rows))
    )
    marks = []
    for ci, rows in enumerate(sheet.rows):
        for row in rows:
            entry = gs.index_of_line(row.vector)
            flat = None
            if entry is None:
                levels = polytope_of(bundle, row.vector).bounds
                flat = tuple(e.index for e in entries if all(
                    a >= b for a, b in zip(e.polytope.bounds, levels)
                ))
            marks.append(
                CharacterMark(
                    cone_index=ci,
                    character=row.character,
                    line=row.vector,
                    entry=entry,
                    flat_indices=flat,
                )
            )
    return Parliament(fan=bundle.fan, ground_set=gs, entries=entries, marks=tuple(marks))


def average_polytope(bundle: ToricBundle, f_space: Subspace) -> HPolytope:
    """Polytope of c_1(F) divided by rank(F); comparison-ready modulo
    translation through the weighted-support order."""
    return HPolytope(
        bundle.fan.rays, [Fraction(a, f_space.dim) for a in c1(bundle, f_space)]
    )


def is_globally_generated(bundle: ToricBundle) -> bool:
    """Every associated character lies in the polytope of its basis line."""
    sheet = check_compatibility(bundle)
    for rows in sheet.rows:
        for row in rows:
            poly = polytope_of(bundle, row.vector)
            if not poly.contains(row.character):
                return False
    return True


class NotGloballyGeneratedError(ValueError):
    pass


def reconstruct_filtrations(parl: Parliament, fan: Fan, rank: int):
    """Recover the per-ray flags of a globally generated bundle from its
    parliament; returns one threshold/subspace step list per ray.

    Raises NotGloballyGeneratedError when some character lies in no entry
    polytope (reconstruction is not licensed there).
    """
    pairs = []  # (character, entry vector) with character in the entry's polytope
    for mark in parl.marks:
        hits = [e for e in parl.entries if e.polytope.contains(mark.character)]
        if not hits:
            raise NotGloballyGeneratedError(
                f"character {mark.character} lies in no parliament polytope"
            )
        for e in hits:
            pairs.append((mark.character, e.vector))
    recovered = []
    for ray in fan.rays:
        levels = sorted(
            {sum(u[i] * ray[i] for i in range(len(ray))) for u, _ in pairs}
        )
        values = [
            (j, span(
                [e for u, e in pairs if sum(u[i] * ray[i] for i in range(len(ray))) >= j],
                rank,
            ))
            for j in levels
        ]
        try:
            recovered.append(Filtration.from_values(rank, values))
        except ValueError as exc:
            raise NotGloballyGeneratedError(
                f"recovered flag on ray {ray} is not a filtration of the full fiber: {exc}"
            ) from exc
    return tuple(recovered)
