"""The subspace semilattice of a bundle, its ground set, and flats.

The ground set construction follows the ascending-dimension sweep over the
intersection lattice: at each lattice element V whose current ground vectors
do not yet span it, a complement basis is appended, chosen greedily from the
echelon basis rows of V. The traversal order inside a dimension class is the
one licensed degree of freedom and is pinned to the lexicographic order of
canonical bases; tests exercise its irrelevance. Each bundle has one ground
set, swept once.

Closures and flats come from the echelon residuals of the sweep, with no
rank elimination: the closure of a set is the ground vectors inside its
span, and the flats covering a flat F are the points of the contraction M/F
(Oxley, *Matroid Theory*, 3.1), the elements outside F grouped by the line
of their residual modulo span F, which represents their coset. Subbundles
are decided on the maximal cones with no ground set, and need not be flats.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, total_ordering
from math import lcm

from .bundle import ToricBundle, _split_cone, check_compatibility
from .linalg import (
    IntRow,
    Subspace,
    Vector,
    extend_basis,
    intersect,
    primitive_line,
    rational_row,
    span,
)


@dataclass(frozen=True)
class SubspaceLattice:
    """All intersections of per-ray filtration values, intersection-closed."""

    ambient: int
    elements: tuple[Subspace, ...]  # sorted by (dim, canonical basis)

    def by_dimension(self, k: int) -> tuple[Subspace, ...]:
        return tuple(w for w in self.elements if w.dim == k)


def build_lattice(bundle: ToricBundle) -> SubspaceLattice:
    r = bundle.rank
    current = {Subspace.full(r)}
    for filt in bundle.filtrations:
        values = [sp for _, sp in filt.steps] + [Subspace.zero(r)]
        current = {intersect(w, v) for w in current for v in values} | current
    # sort_key order without building Fractions: every reduced row times the
    # lcm of all the pivots is an integer row, and the common scale keeps
    # the lexicographic order of the reduced rows
    scale = lcm(*(row[c] for w in current for row, c in zip(w.int_rows, w.pivots)))

    def order(w):
        return w.dim, tuple(
            tuple(x * (scale // row[c]) for x in row) for row, c in zip(w.int_rows, w.pivots)
        )

    elements = tuple(sorted(current, key=order))
    return SubspaceLattice(ambient=r, elements=elements)


@dataclass(frozen=True)
class GroundSet:
    """Output of the ground-set sweep, with its step trace: the points of a
    representable matroid. Subsets are bitmasks (bit e for element e); a
    flat's rank is the dimension of the span grown along with it.
    """

    ambient: int
    rows: tuple[IntRow, ...]  # integer echelon rows of the ground vectors
    steps: tuple[Subspace, ...]  # steps[k] = lattice element that produced rows[k]

    def __len__(self):
        return len(self.rows)

    @cached_property
    def vectors(self) -> tuple[Vector, ...]:
        """The ground vectors as reduced echelon rows, as they are printed."""
        return tuple(rational_row(g) for g in self.rows)

    def indices_in(self, w: Subspace) -> tuple[int, ...]:
        return tuple(i for i, g in enumerate(self.rows) if w.contains(g))

    @cached_property
    def _lines(self) -> dict[IntRow, int]:
        return {g: i for i, g in enumerate(self.rows)}

    def index_of_line(self, v) -> int | None:
        """The element spanning the line of v; the sweep never appends two
        parallel vectors. Each ground vector is an echelon row, so it is
        already the primitive row of its line with a positive first entry."""
        return self._lines.get(primitive_line(v))


def ground_set(lattice: SubspaceLattice) -> GroundSet:
    """Sweep the lattice by ascending dimension, appending complement bases;
    inside a dimension class, in the order of `lattice.elements`."""
    r = lattice.ambient
    rows: list[IntRow] = []
    steps: list[Subspace] = []
    maxdim = max((w.dim for w in lattice.elements), default=0)
    for k in range(1, maxdim + 1):
        for v_elt in lattice.by_dimension(k):
            # the span of the rows already inside, grown by their residuals
            spanned = Subspace.zero(r)
            for g in rows:
                if spanned.dim == v_elt.dim:
                    break
                if v_elt.contains(g):
                    res = spanned.residual(g)
                    if any(res):
                        spanned = spanned.adjoin(res)
            need = v_elt.dim - spanned.dim
            if need == 0:
                continue
            added, _ = extend_basis(spanned, v_elt, need)
            assert len(added) == need
            rows.extend(added)
            steps.extend([v_elt] * need)
    return GroundSet(ambient=r, rows=tuple(rows), steps=tuple(steps))


def bundle_ground_set(bundle: ToricBundle) -> GroundSet:
    """The bundle's ground set, swept once per bundle."""
    if bundle._ground_set is None:
        bundle._ground_set = ground_set(build_lattice(bundle))
    return bundle._ground_set


def _indices(mask: int) -> tuple[int, ...]:
    return tuple(e for e in range(mask.bit_length()) if mask >> e & 1)


@total_ordering
@dataclass(frozen=True)
class Flat:
    """A closure-closed subset of the ground set, with its span."""

    indices: tuple[int, ...]
    rank: int
    subspace: Subspace = field(repr=False, compare=False)

    def __eq__(self, other):
        return isinstance(other, Flat) and self.indices == other.indices

    def __lt__(self, other):
        return (self.rank, self.indices) < (other.rank, other.indices)

    def __hash__(self):
        return hash(self.indices)


def closure(gs: GroundSet, subset) -> Flat:
    """Smallest flat containing the given ground-set indices: the ground
    vectors inside their span, of rank the span's dimension."""
    subset = sorted(set(subset))
    for i in subset:
        if not 0 <= i < len(gs):
            raise IndexError(f"ground-set index {i} out of range")
    sp = span([gs.rows[i] for i in subset], gs.ambient)
    return Flat(indices=gs.indices_in(sp), rank=sp.dim, subspace=sp)


def _flat_search(gs: GroundSet):
    """Every flat once, in search order, as (flat, mask, covers): one (cover
    mask, class residual) per cover, valid until the next item is requested.

    Search by contraction. Each flat F waiting on the stack carries its
    span S and the residuals modulo S of the elements outside it, all
    nonzero as F is closed. The covers of F are the classes of those
    residuals under `primitive_line`: an element f lies in the span of F + e
    exactly when its residual is a multiple of e's. A cover's span is S
    adjoined with the class's residual, and an old residual is zero at every
    pivot column of S, so its residual modulo the cover's span takes one
    clearing step. Every flat but the empty one covers a flat, so it is
    found whatever order the stack is worked in; depth first, the stack
    holds the residuals of at most |G| flats per rank.
    """
    zero = Subspace.zero(gs.ambient)
    found = {0}  # ground vectors are nonzero: the empty set is closed
    stack = [(0, zero, list(enumerate(gs.rows)))]
    while stack:
        mask, sp, residuals = stack.pop()
        covers: dict = {}
        for e, res in residuals:
            line = primitive_line(res)
            cover = covers.get(line)
            if cover is None:
                covers[line] = [mask | 1 << e, res]
            else:
                cover[0] |= 1 << e
        yield Flat(indices=_indices(mask), rank=sp.dim, subspace=sp), mask, covers.values()
        for cover, res in covers.values():
            if cover not in found:
                found.add(cover)
                bigger = sp.adjoin(res)
                stack.append((cover, bigger, [
                    (f, bigger.residual(old)) for f, old in residuals if not cover >> f & 1
                ]))


def enumerate_flats(gs: GroundSet) -> tuple[Flat, ...]:
    """Every flat exactly once, sorted by (rank, indices); includes the
    empty and full flats, which stability callers filter out."""
    return tuple(sorted(f for f, _, _ in _flat_search(gs)))


def proper_nonzero_flats(gs: GroundSet) -> tuple[Flat, ...]:
    flats = enumerate_flats(gs)
    full_dim = flats[-1].rank
    return tuple(f for f in flats if 0 < f.rank < full_dim)


def is_compatible_flat(bundle: ToricBundle, flat: Flat) -> bool:
    """Whether the flat's span is a subbundle (`is_subbundle`); the empty
    flat always is. The bundle itself must be compatible (raises
    otherwise)."""
    check_compatibility(bundle)
    return flat.rank == 0 or is_subbundle(bundle, flat.subspace)


def is_subbundle(bundle: ToricBundle, f_space: Subspace) -> bool:
    """Whether the subsheaf cut out by F is an equivariant subbundle, that
    is, every maximal cone has a compatible basis with dim F lines inside F
    (Klyachko, Math. USSR Izv. 35, 1990). F need not be a flat: on
    P^1 x P^1, O(D_x) + O(D_-x) has the ground set e1, e2, and the diagonal
    is a subbundle, since D_x and D_-x are disjoint.

    The bundle must be compatible (raises otherwise). Each cone is split
    taking the rows inside F first (`bundle`); when F is spanned by part of
    some compatible basis, that split has dim F lines inside F too, so F is
    a subbundle exactly when every cone's split does.
    """
    if f_space.dim == 0:
        raise ValueError("the zero subspace does not define a subbundle")
    if f_space.ambient != bundle.rank:
        raise ValueError("subspace from a different fiber")
    check_compatibility(bundle)
    return all(
        sum(1 for _, v in _split_cone(bundle, ci, f_space) if f_space.contains(v))
        == f_space.dim
        for ci in range(len(bundle.fan.max_cones))
    )
