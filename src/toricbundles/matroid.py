"""The subspace semilattice of a bundle, its ground set, and flats.

The ground set construction follows the ascending-dimension sweep over the
intersection lattice: at each lattice element V whose current ground vectors
do not yet span it, a complement basis is appended, chosen greedily from the
echelon basis rows of V (preference pool first when a target subspace is
given). The traversal order inside a dimension class is the one licensed
degree of freedom and is pinned to the lexicographic order of canonical
bases; tests exercise its irrelevance.

Closure and flats come from the matroid rank of ground-set bitmasks, which
each ground set computes by integer elimination and memoizes.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property, total_ordering

from .bundle import (
    IncompatibilityWitness,
    ToricBundle,
    _split_cone,
    check_compatibility,
)
from .linalg import (
    Subspace,
    Vector,
    integer_rank,
    integer_row,
    intersect,
    span,
    subspace_sum,
)


@dataclass(frozen=True)
class SubspaceLattice:
    """All intersections of per-ray filtration values, intersection-closed."""

    ambient: int
    elements: tuple[Subspace, ...]  # sorted by (dim, canonical basis)

    def by_dimension(self, k: int) -> tuple[Subspace, ...]:
        return tuple(w for w in self.elements if w.dim == k)


def build_lattice(bundle: ToricBundle, ray_indices=None) -> SubspaceLattice:
    if ray_indices is None:
        ray_indices = range(len(bundle.fan.rays))
    ray_indices = list(ray_indices)
    if not ray_indices:
        raise ValueError("lattice over an empty ray subset")
    r = bundle.rank
    current = {Subspace.full(r)}
    for i in ray_indices:
        filt = bundle.filtrations[i]
        values = [sp for _, sp in filt.steps] + [Subspace.zero(r)]
        current = {intersect(w, v) for w in current for v in values} | current
    elements = tuple(sorted(current, key=lambda w: w.sort_key()))
    return SubspaceLattice(ambient=r, elements=elements)


@dataclass(frozen=True)
class GroundSet:
    """Output of the ground-set sweep, with its step trace.

    Subsets of the ground set are bitmasks (bit e for element e); `rank`
    is the matroid rank function, memoized on this instance.
    """

    ambient: int
    vectors: tuple[Vector, ...]
    steps: tuple[Subspace, ...]  # steps[k] = lattice element that produced vectors[k]
    _rows: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _ranks: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_rows", tuple(integer_row(v) for v in self.vectors))
        object.__setattr__(self, "_ranks", {0: 0})

    def __len__(self):
        return len(self.vectors)

    def rank(self, mask: int) -> int:
        """Dimension of the span of the ground vectors in the bitmask."""
        r = self._ranks.get(mask)
        if r is None:
            rows = self._rows
            r = integer_rank([rows[e] for e in range(len(rows)) if mask >> e & 1])
            self._ranks[mask] = r
        return r

    def indices_in(self, w: Subspace) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.vectors) if w.contains(v))

    @cached_property
    def _lines(self) -> dict[Subspace, int]:
        return {span([g], self.ambient): i for i, g in enumerate(self.vectors)}

    def index_of_line(self, v) -> int | None:
        """The element spanning the line of v; the sweep never appends two
        parallel vectors."""
        return self._lines.get(span([v], self.ambient))


def ground_set(
    lattice: SubspaceLattice,
    prefer: Subspace | None = None,
    shuffle: random.Random | None = None,
) -> GroundSet:
    """Sweep the lattice by ascending dimension, appending complement bases.

    `shuffle` randomizes the traversal order inside each dimension class
    (used by the invariance tests); `prefer` makes each complement basis
    exhaust candidates inside the given subspace first.
    """
    r = lattice.ambient
    vectors: list[Vector] = []
    steps: list[Subspace] = []
    maxdim = max((w.dim for w in lattice.elements), default=0)
    for k in range(1, maxdim + 1):
        group = list(lattice.by_dimension(k))
        if shuffle is not None:
            shuffle.shuffle(group)
        for v_elt in group:
            spanned = span([g for g in vectors if v_elt.contains(g)], r)
            if spanned.dim == v_elt.dim:
                continue
            pools = []
            if prefer is not None:
                pools.append(intersect(v_elt, prefer).rows)
            pools.append(v_elt.rows)
            for pool in pools:
                for cand in pool:
                    if spanned.dim == v_elt.dim:
                        break
                    if not spanned.contains(cand):
                        vectors.append(cand)
                        steps.append(v_elt)
                        spanned = subspace_sum(spanned, span([cand], r))
            assert spanned.dim == v_elt.dim
    return GroundSet(ambient=r, vectors=tuple(vectors), steps=tuple(steps))


def bundle_ground_set(bundle: ToricBundle, prefer: Subspace | None = None) -> GroundSet:
    """The bundle's ground set, swept once per bundle; a preferred one is
    swept on every call."""
    if prefer is not None:
        return ground_set(build_lattice(bundle), prefer=prefer)
    if bundle._ground_set is None:
        bundle._ground_set = ground_set(build_lattice(bundle))
    return bundle._ground_set


def _mask(indices) -> int:
    m = 0
    for e in indices:
        m |= 1 << e
    return m


def _indices(mask: int) -> tuple[int, ...]:
    return tuple(e for e in range(mask.bit_length()) if mask >> e & 1)


@total_ordering
@dataclass(frozen=True)
class Flat:
    """A closure-closed subset of the ground set; its span is built on
    first read."""

    indices: tuple[int, ...]
    rank: int
    ground_set: GroundSet = field(repr=False)

    @cached_property
    def subspace(self) -> Subspace:
        gs = self.ground_set
        return span([gs.vectors[i] for i in self.indices], gs.ambient)

    def is_empty(self) -> bool:
        return not self.indices

    def __eq__(self, other):
        return isinstance(other, Flat) and self.indices == other.indices

    def __lt__(self, other):
        return (self.rank, self.indices) < (other.rank, other.indices)

    def __hash__(self):
        return hash(self.indices)


def _close(gs: GroundSet, mask: int, candidates: int) -> int:
    """The mask plus every candidate element that leaves its rank unchanged."""
    r = gs.rank(mask)
    out = mask
    while candidates:
        bit = candidates & -candidates
        candidates ^= bit
        if gs.rank(mask | bit) == r:
            out |= bit
    return out


def closure(gs: GroundSet, subset) -> Flat:
    """Smallest flat containing the given ground-set indices:
    {e : r(F + e) = r(F)}."""
    subset = sorted(set(subset))
    for i in subset:
        if not 0 <= i < len(gs.vectors):
            raise IndexError(f"ground-set index {i} out of range")
    mask = _mask(subset)
    flat = _close(gs, mask, ((1 << len(gs)) - 1) & ~mask)
    return Flat(indices=_indices(flat), rank=gs.rank(mask), ground_set=gs)


def enumerate_flats(gs: GroundSet) -> tuple[Flat, ...]:
    """Every flat exactly once, sorted by (rank, indices); includes the
    empty and full flats, which stability callers filter out.

    Frontier search by rank: the flats covering F partition the elements
    outside F, so each cover is the closure of F + e for the first element
    e not yet placed, searched among the unplaced elements only.
    """
    everything = (1 << len(gs)) - 1
    empty = _close(gs, 0, everything)
    found = {empty}
    frontier = [empty]
    while frontier:
        nxt = []
        for flat in frontier:
            rest = everything & ~flat
            while rest:
                e = rest & -rest
                cover = _close(gs, flat | e, rest & ~e)
                rest &= ~cover
                if cover not in found:
                    found.add(cover)
                    nxt.append(cover)
        frontier = nxt
    return tuple(sorted(
        Flat(indices=_indices(m), rank=gs.rank(m), ground_set=gs) for m in found
    ))


def proper_nonzero_flats(gs: GroundSet) -> tuple[Flat, ...]:
    full_dim = gs.rank((1 << len(gs)) - 1)
    return tuple(
        f for f in enumerate_flats(gs) if 0 < f.rank < full_dim
    )


def is_compatible_flat(bundle: ToricBundle, flat: Flat):
    """Whether some compatible basis meets the flat's span in exactly
    rank-many lines on every maximal cone; returns (verdict, witness bases).

    The bundle itself must be compatible (raises otherwise).
    """
    sheet = check_compatibility(bundle)
    if flat.rank == 0 or flat.rank == bundle.rank:
        return True, sheet.rows
    f_space = flat.subspace
    witness = []
    for ci in range(len(bundle.fan.max_cones)):
        res = _split_cone(bundle, ci, prefer=f_space, flat_dim=f_space.dim)
        if isinstance(res, IncompatibilityWitness):
            return False, None
        witness.append(res)
    return True, tuple(witness)


def is_subbundle(bundle: ToricBundle, f_space: Subspace) -> bool:
    """Whether the subsheaf cut out by F is an equivariant subbundle.

    Requires (a) a preference-built ground set with span(G n F) = F and
    (b) a compatible flat whose witness bases, restricted to F, satisfy the
    sum condition for the intersected filtrations.
    """
    if f_space.dim == 0:
        raise ValueError("the zero subspace does not define a subbundle")
    if f_space.ambient != bundle.rank:
        raise ValueError("subspace from a different fiber")
    gs = bundle_ground_set(bundle, prefer=f_space)
    inside = gs.indices_in(f_space)
    if span([gs.vectors[i] for i in inside], gs.ambient) != f_space:
        return False
    flat = closure(gs, inside)
    ok, witness = is_compatible_flat(bundle, flat)
    if not ok:
        return False
    for ci, rows in enumerate(witness):
        cone = bundle.fan.max_cones[ci]
        f_rows = [row for row in rows if f_space.contains(row.vector)]
        for k, ray_index in enumerate(cone):
            filt = bundle.filtrations[ray_index]
            for j in filt.thresholds:
                expected = intersect(filt.value(j), f_space)
                got = span(
                    [row.vector for row in f_rows if row.profile[k] >= j],
                    bundle.rank,
                )
                if got != expected:
                    return False
    return True
