"""The integer rank oracle against the subspace reference in
`subspace_reference.py`: flats, closures, slopes and verdicts must agree
exactly, and flat enumeration must not fall back to Fraction algebra."""
import sys

from generators import hexagon, hirzebruch, independent_prefix, projective_space
from hypothesis import given, settings
from hypothesis import strategies as st
from subspace_reference import check_stability as reference_check_stability
from subspace_reference import closure as reference_closure
from subspace_reference import enumerate_flats as reference_flats

from toricbundles import linalg
from toricbundles.bundle import Filtration, ToricBundle, direct_sum, tangent_bundle
from toricbundles.linalg import Subspace, integer_rank, integer_row, matrix_rank, span
from toricbundles.matroid import (
    bundle_ground_set,
    closure,
    enumerate_flats,
    proper_nonzero_flats,
)
from toricbundles.stability import (
    _c1_by_rank,
    _level_masks,
    c1,
    check_stability,
    validate_polarization,
)


@st.composite
def _weights(draw, kind):
    """Positive weights with sum t_i v_i = 0 on the hexagon or on H_a."""
    if kind == "hexagon":
        t1, t4, b, c = draw(st.lists(st.integers(1, 3), min_size=4, max_size=4))
        up, down = max(0, t4 - t1), max(0, t1 - t4)
        return (b + up, t1, c + up, b + down, t4, c + down)
    a = int(kind[1:])
    t0, t1 = draw(st.lists(st.integers(1, 3), min_size=2, max_size=2))
    return (t0, t1, t0, t1 + a * t0)


@st.composite
def flag_bundles(draw):
    """(bundle, polarization, vector pool): random integer flags of rank 2-4
    on the hexagon or a Hirzebruch fan. Flags draw from one small pool of
    vectors, so lines and planes coincide across rays."""
    kind = draw(st.sampled_from(("hexagon", "h0", "h1", "h2", "h3")))
    fan = hexagon() if kind == "hexagon" else hirzebruch(int(kind[1:]))
    rank = draw(st.integers(2, 4))
    entries = st.lists(st.integers(-2, 2), min_size=rank, max_size=rank).map(tuple)
    pool = draw(st.lists(entries, min_size=rank + 1, max_size=rank + 3))
    filts = []
    for _ in fan.rays:
        dims = sorted(draw(st.sets(st.integers(1, rank - 1), max_size=2)), reverse=True)
        order = draw(st.permutations(range(len(pool))))
        vecs = independent_prefix(pool, order, dims[0] if dims else 0, rank)
        j = draw(st.integers(-2, 2))
        steps = [(j, Subspace.full(rank))]
        for k in dims:
            j += draw(st.integers(1, 2))
            steps.append((j, span(vecs[:k], rank)))
        filts.append(Filtration(rank, steps))
    bundle = ToricBundle(fan, rank, filts)
    return bundle, validate_polarization(fan, draw(_weights(kind))), pool


def _assert_same_flats(gs):
    flats = enumerate_flats(gs)
    ref = reference_flats(gs)
    assert [(f.rank, f.indices) for f in flats] == [(r, idx) for r, idx, _ in ref]
    assert [f.subspace for f in flats] == [sp for *_, sp in ref]


def _assert_same_report(bundle, pol):
    report = check_stability(bundle, pol)
    mu, rows, stable, semistable, witness = reference_check_stability(bundle, pol)
    assert report.mu == mu
    assert [(fs.flat.indices, fs.flat.rank, fs.slope, fs.relation)
            for fs in report.flat_slopes] == rows
    assert (report.stable, report.semistable) == (stable, semistable)
    assert (report.witness.indices if report.witness else None) == witness


@settings(max_examples=40, deadline=None)
@given(case=flag_bundles(), data=st.data())
def test_random_flags_match_subspace_reference(case, data):
    bundle, pol, _ = case
    gs = bundle_ground_set(bundle)
    _assert_same_flats(gs)
    subset = data.draw(st.sets(st.integers(0, len(gs) - 1)))
    assert closure(gs, subset).indices == reference_closure(gs, subset)[0]
    _assert_same_report(bundle, pol)


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_tangent_powers_with_shuffled_rays_match_reference(data):
    d = data.draw(st.sampled_from((2, 3)))
    copies = data.draw(st.sampled_from((1, 2)))
    fan = projective_space(d, data.draw(st.permutations(range(d + 1))))
    bundle = tangent_bundle(fan)
    for _ in range(copies - 1):
        bundle = direct_sum(bundle, tangent_bundle(fan))
    _assert_same_flats(bundle_ground_set(bundle))
    _assert_same_report(bundle, validate_polarization(fan, (1,) * (d + 1)))


@settings(max_examples=30, deadline=None)
@given(case=flag_bundles(), data=st.data())
def test_preference_ground_set_matches_reference(case, data):
    bundle, _, pool = case
    picks = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=bundle.rank))
    f_space = span(picks, bundle.rank)
    if f_space.dim == 0:
        return
    gs = bundle_ground_set(bundle, prefer=f_space)
    _assert_same_flats(gs)
    inside = gs.indices_in(f_space)
    assert closure(gs, inside).indices == reference_closure(gs, inside)[0]
    masks = _level_masks(bundle, gs)
    for flat in enumerate_flats(gs):
        if flat.rank:
            mask = sum(1 << e for e in flat.indices)
            assert _c1_by_rank(gs, masks, mask) == c1(bundle, flat.subspace)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(lambda w: st.lists(
    st.lists(st.integers(-4, 4), min_size=w, max_size=w), max_size=7)))
def test_integer_rank_matches_fraction_rank(rows):
    width = len(rows[0]) if rows else 1
    assert integer_rank(rows) == matrix_rank(rows, width)


def test_integer_row_clears_denominators():
    from fractions import Fraction

    assert integer_row((Fraction(1, 2), Fraction(-2, 3), 0)) == (3, -4, 0)
    assert integer_row((2, 4)) == (2, 4)


def test_rank_memo_belongs_to_the_ground_set():
    fan = projective_space(2, range(3))
    a = bundle_ground_set(tangent_bundle(fan))
    b = bundle_ground_set(direct_sum(tangent_bundle(fan), tangent_bundle(fan)))
    assert a.rank(0b111) == 2 and b.rank((1 << len(b)) - 1) == 4
    assert a._ranks is not b._ranks and (1 << len(b)) - 1 not in a._ranks


def test_flat_enumeration_does_no_subspace_algebra(monkeypatch):
    fan = projective_space(3, range(4))
    gs = bundle_ground_set(direct_sum(tangent_bundle(fan), tangent_bundle(fan)))
    calls = {"span": 0, "intersect": 0, "contains": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # the package binds names with `from .linalg import ...`, so replace the
    # function in every toricbundles namespace that holds it
    for name in ("span", "intersect"):
        original = getattr(linalg, name)
        wrapper = counting(name, original)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "toricbundles":
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, wrapper)
    monkeypatch.setattr(Subspace, "contains", counting("contains", Subspace.contains))

    flats = enumerate_flats(gs)
    assert calls == {"span": 0, "intersect": 0, "contains": 0}
    assert len(proper_nonzero_flats(gs)) == 142
    assert len(flats) == 144
