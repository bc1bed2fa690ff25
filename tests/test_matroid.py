import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricbundles.bundle import line_bundle
from toricbundles.fan import Fan
from toricbundles.linalg import Subspace, intersect, span
from toricbundles.matroid import (
    build_lattice,
    bundle_ground_set,
    closure,
    enumerate_flats,
    ground_set,
    is_compatible_flat,
    is_subbundle,
    proper_nonzero_flats,
)

P2_FAN = Fan(2, [(-1, -1), (1, 0), (0, 1)], [(0, 1), (0, 2), (1, 2)])


def _lattice_oracle(bundle):
    """Independent route: enumerate every tuple of per-ray steps directly."""
    r = bundle.rank
    value_sets = []
    for f in bundle.filtrations:
        value_sets.append([sp for _, sp in f.steps] + [Subspace.zero(r)])
    seen = set()
    for combo in product(*value_sets):
        w = Subspace.full(r)
        for sp in combo:
            w = intersect(w, sp)
        seen.add(w)
    return seen


def test_lattice_tangent_p2(p2_tangent):
    lat = build_lattice(p2_tangent.bundle)
    assert len(lat.elements) == 5
    assert set(lat.elements) == _lattice_oracle(p2_tangent.bundle)
    assert Subspace.zero(2) in lat.elements and Subspace.full(2) in lat.elements


def test_lattice_split(documents):
    bundle = documents["p2_sum_d0_d12"].bundle
    lat = build_lattice(bundle)
    assert set(lat.elements) == {
        Subspace.zero(2),
        span([(1, 0)], 2),
        span([(0, 1)], 2),
        Subspace.full(2),
    }
    assert set(lat.elements) == _lattice_oracle(bundle)


def test_lattice_rank_one():
    bundle = line_bundle(P2_FAN, (2, 0, -1))
    lat = build_lattice(bundle)
    assert set(lat.elements) == {Subspace.zero(1), Subspace.full(1)}


def test_lattice_intersection_closed(p2_rank3):
    lat = build_lattice(p2_rank3.bundle)
    elements = set(lat.elements)
    for a in elements:
        for b in elements:
            assert intersect(a, b) in elements


def test_lattice_restricted_to_cone_rays(p2_rank3):
    lat = build_lattice(p2_rank3.bundle, ray_indices=[1, 2])
    full = build_lattice(p2_rank3.bundle)
    assert set(lat.elements) <= set(full.elements)
    with pytest.raises(ValueError):
        build_lattice(p2_rank3.bundle, ray_indices=[])


def test_ground_set_sizes(documents):
    assert len(bundle_ground_set(documents["p2_tangent"].bundle)) == 3
    assert len(bundle_ground_set(documents["p2_sum_d0_d12"].bundle)) == 2
    assert len(bundle_ground_set(documents["p2_rank3"].bundle)) == 6


def test_ground_set_spans_every_lattice_element(documents):
    for name in ("p2_tangent", "p2_rank3", "blp2_sum", "p3_tangent"):
        bundle = documents[name].bundle
        lat = build_lattice(bundle)
        gs = ground_set(lat)
        for w in lat.elements:
            inside = [gs.vectors[i] for i in gs.indices_in(w)]
            assert span(inside, gs.ambient) == w


def test_ground_set_lines_of_tangent(p2_tangent):
    gs = bundle_ground_set(p2_tangent.bundle)
    lines = {span([v], 2) for v in gs.vectors}
    assert lines == {span([r], 2) for r in p2_tangent.fan.rays}


def test_closure_examples(p2_tangent):
    gs = bundle_ground_set(p2_tangent.bundle)
    v0 = gs.index_of_line((-1, -1))
    v1 = gs.index_of_line((1, 0))
    single = closure(gs, (v0,))
    assert single.indices == (v0,)
    assert closure(gs, (v0, v1)).indices == tuple(range(3))
    assert closure(gs, ()).indices == ()


def test_flats_tangent(p2_tangent):
    gs = bundle_ground_set(p2_tangent.bundle)
    flats = enumerate_flats(gs)
    assert len(flats) == 5
    assert [f.rank for f in flats] == [0, 1, 1, 1, 2]
    assert len(proper_nonzero_flats(gs)) == 3


def test_flats_split(documents):
    gs = bundle_ground_set(documents["p2_sum_d0_d12"].bundle)
    flats = enumerate_flats(gs)
    assert [(f.rank, f.indices) for f in flats] == [
        (0, ()),
        (1, (0,)),
        (1, (1,)),
        (2, (0, 1)),
    ]


def test_flats_rank3_contains_subparliament(p2_rank3):
    gs = bundle_ground_set(p2_rank3.bundle)
    want = {
        gs.index_of_line((1, 0, 0)),
        gs.index_of_line((0, 0, 1)),
        gs.index_of_line((1, 0, -1)),
    }
    assert None not in want
    flats = enumerate_flats(gs)
    assert any(set(f.indices) == want for f in flats)


def _ground_set_for(name):
    from pathlib import Path

    from toricbundles import load_document

    path = Path(__file__).resolve().parent.parent / "fixtures" / f"{name}.json"
    return bundle_ground_set(load_document(path).bundle)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_closure_is_a_closure_operator(data):
    name = data.draw(st.sampled_from(("p2_tangent", "p2_rank3", "p2_sum_three")))
    gs = _ground_set_for(name)
    n = len(gs.vectors)
    s = data.draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    t = data.draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    cs = closure(gs, s)
    # extensive
    assert set(s) <= set(cs.indices)
    # idempotent
    assert closure(gs, cs.indices).indices == cs.indices
    # monotone
    if s <= t:
        assert set(cs.indices) <= set(closure(gs, t).indices)


def test_compatible_flats_split(documents):
    bundle = documents["p2_sum_d0_d12"].bundle
    gs = bundle_ground_set(bundle)
    e2 = gs.index_of_line((0, 1))
    flat = closure(gs, (e2,))
    ok, witness = is_compatible_flat(bundle, flat)
    assert ok
    # every witness basis meets the flat's span in exactly one line
    for rows in witness:
        assert sum(1 for r in rows if flat.subspace.contains(r.vector)) == 1


def test_tangent_flats_not_compatible(p2_tangent):
    bundle = p2_tangent.bundle
    gs = bundle_ground_set(bundle)
    for f in proper_nonzero_flats(gs):
        ok, _ = is_compatible_flat(bundle, f)
        assert not ok


def test_full_flat_compatible(p2_tangent):
    gs = bundle_ground_set(p2_tangent.bundle)
    full = closure(gs, tuple(range(len(gs.vectors))))
    ok, _ = is_compatible_flat(p2_tangent.bundle, full)
    assert ok


def test_subbundle_rank3(p2_rank3):
    f_space = span([(1, 0, 0), (0, 0, 1)], 3)
    assert is_subbundle(p2_rank3.bundle, f_space)
    # <e1,e2> spans a flat but fails the compatible-basis count on cone (v1,v2)
    assert not is_subbundle(p2_rank3.bundle, span([(0, 1, 0), (1, 0, 0)], 3))


def test_subbundle_hirzebruch(documents):
    for name in ("hirzebruch_printed_tangent", "hirzebruch_h2_tangent"):
        bundle = documents[name].bundle
        assert is_subbundle(bundle, span([(0, 1)], 2))


def test_tangent_p2_has_no_nontrivial_subbundle(p2_tangent):
    bundle = p2_tangent.bundle
    for v in ((-1, -1), (1, 0), (0, 1), (1, 2)):
        assert not is_subbundle(bundle, span([v], 2))
    with pytest.raises(ValueError):
        is_subbundle(bundle, Subspace.zero(2))


def test_traversal_shuffle_leaves_matroid_unchanged(documents):
    for name in ("p2_tangent", "p2_rank3", "blp2_sum"):
        bundle = documents[name].bundle
        lat = build_lattice(bundle)
        base = ground_set(lat)
        base_flats = {
            (f.rank, frozenset(base.vectors[i] for i in f.indices))
            for f in enumerate_flats(base)
        }
        for seed in range(20):
            shuffled = ground_set(lat, shuffle=random.Random(seed))
            assert len(shuffled) == len(base)
            got = {
                (f.rank, frozenset(shuffled.vectors[i] for i in f.indices))
                for f in enumerate_flats(shuffled)
            }
            assert got == base_flats


def test_flat_count_independent_of_split_seed(p2_rank3):
    # the ground set does not change when compatibility runs first
    bundle = p2_rank3.bundle
    from toricbundles.bundle import check_compatibility

    baseline = [f.indices for f in enumerate_flats(bundle_ground_set(bundle))]
    for seed in (0, 5, 11, 42):
        check_compatibility(bundle)
        got = [f.indices for f in enumerate_flats(bundle_ground_set(bundle))]
        assert got == baseline
