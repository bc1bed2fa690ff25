"""The zero-pruned profile walk against the inclusion-exclusion reference in
`subspace_reference.py`: multiplicities, witnesses and characters must agree
exactly, and the walk must not fall back to enumerating every level tuple."""
from generators import hexagon, hirzebruch, independent_prefix, projective_space
from hypothesis import given, settings
from hypothesis import strategies as st
from subspace_reference import profile_multiplicities as reference_multiplicities

from toricbundles import bundle as bundle_module
from toricbundles.bundle import (
    Filtration,
    IncompatibilityWitness,
    IncompatibleBundleError,
    ToricBundle,
    _profile_multiplicities,
    associated_characters,
    check_compatibility,
    tangent_bundle,
)
from toricbundles.linalg import Subspace, solve_integer_system, span

FANS = {
    "p2": lambda: projective_space(2),
    "p3": lambda: projective_space(3),
    "hexagon": hexagon,
    **{f"h{a}": (lambda a=a: hirzebruch(a)) for a in range(4)},
}


@st.composite
def flag_bundles(draw, kinds=tuple(FANS)):
    """Random integer flags of rank 1-5 with thresholds that may be negative,
    on one of the named fans. Flags draw from one small pool of vectors, so
    jump spaces meet in special position and cones of P^3 can have negative
    multiplicities; on a surface any two flags split together."""
    fan = FANS[draw(st.sampled_from(kinds))]()
    rank = draw(st.integers(1, 5))
    entries = st.lists(st.integers(-1, 1), min_size=rank, max_size=rank).map(tuple)
    pool = draw(st.lists(entries, min_size=rank + 1, max_size=rank + 3))
    filts = []
    for _ in fan.rays:
        picks = draw(st.lists(st.integers(1, rank), min_size=1, max_size=3))
        dims = sorted({k for k in picks if k < rank}, reverse=True)
        order = draw(st.permutations(range(len(pool))))
        vecs = independent_prefix(pool, order, dims[0] if dims else 0, rank)
        j = draw(st.integers(-4, 2))
        steps = [(j, Subspace.full(rank))]
        for k in dims:
            j += draw(st.integers(1, 3))
            steps.append((j, span(vecs[:k], rank)))
        filts.append(Filtration(rank, steps))
    return ToricBundle(fan, rank, filts)


def _outcome(fn):
    try:
        return fn()
    except IncompatibleBundleError as err:
        return err.witness


@settings(max_examples=150, deadline=None)
@given(bundle=flag_bundles())
def test_walk_matches_inclusion_exclusion(bundle):
    for cone in bundle.fan.max_cones:
        steps = [bundle.filtrations[i].steps for i in cone]
        mult, space_at = _profile_multiplicities(steps)
        ref_mult, ref_space_at = reference_multiplicities(steps)
        assert list(mult.items()) == list(ref_mult.items())
        for p in mult:
            assert space_at(p) == ref_space_at(p)


@settings(max_examples=40, deadline=None)
@given(bundle=flag_bundles(kinds=("p3",)))
def test_witnesses_and_characters_match_reference(bundle):
    cones = range(len(bundle.fan.max_cones))

    def run(b):
        return (
            _outcome(lambda: check_compatibility(b)),
            [_outcome(lambda: associated_characters(b, ci)) for ci in cones],
        )

    got = run(bundle)
    original = bundle_module._profile_multiplicities
    bundle_module._profile_multiplicities = reference_multiplicities
    try:
        # a fresh bundle: the first one holds its walks in its memo
        assert got == run(ToricBundle(bundle.fan, bundle.rank, bundle.filtrations))
    finally:
        bundle_module._profile_multiplicities = original

    for ci, chars in zip(cones, got[1]):
        if isinstance(chars, IncompatibilityWitness):
            continue
        cone = bundle.fan.max_cones[ci]
        rays = [bundle.fan.rays[i] for i in cone]
        ref_mult, _ = reference_multiplicities([bundle.filtrations[i].steps for i in cone])
        expected = []
        for p, m in ref_mult.items():
            expected.extend([solve_integer_system(rays, p)] * m)
        assert chars == tuple(sorted(expected))


def test_compatibility_on_p6_tangent_does_few_intersections(monkeypatch):
    calls = []
    original = bundle_module.intersect

    def counting(u, v):
        calls.append(1)
        return original(u, v)

    monkeypatch.setattr(bundle_module, "intersect", counting)
    sheet = check_compatibility(tangent_bundle(projective_space(6)))
    assert all(len(rows) == 6 for rows in sheet.rows)
    # the inclusion-exclusion over 4^6 level tuples per cone made 6,552, and
    # a split that re-intersected each profile's next steps made 532
    assert len(calls) < 300
