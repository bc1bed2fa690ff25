"""The residual and integer rank routes against the subspace reference in
`subspace_reference.py`: flats, closures, slopes and verdicts must agree
exactly, and flat enumeration must do no elimination."""
import sys
from fractions import Fraction
from functools import partial

import pytest
from generators import (
    blown_up_p3,
    hexagon,
    hirzebruch,
    independent_prefix,
    p1_cubed,
    projective_space,
)
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from subspace_reference import check_stability as reference_check_stability
from subspace_reference import closure as reference_closure
from subspace_reference import enumerate_flats as reference_flats
from subspace_reference import matrix_rank as reference_rank
from subspace_reference import per_flat_check_stability

from conftest import fixture_path

from toricbundles import linalg, matroid, stability
from toricbundles.bundle import (
    Filtration,
    ToricBundle,
    direct_sum,
    line_bundle,
    tangent_bundle,
    twist_by_character,
)
from toricbundles.io import load_document
from toricbundles.linalg import (
    Subspace,
    dot,
    integer_rank,
    integer_row,
    solve_rational_system,
    span,
)
from toricbundles.matroid import (
    SubspaceLattice,
    build_lattice,
    bundle_ground_set,
    closure,
    enumerate_flats,
    ground_set,
    proper_nonzero_flats,
)
from toricbundles.stability import (
    FlatSlope,
    Polarization,
    PolarizationError,
    _slope_table,
    c1,
    check_stability,
    validate_polarization,
    weights_from_divisor,
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


SURFACE_KINDS = ("hexagon", "h0", "h1", "h2", "h3")


def surface(kind):
    return hexagon() if kind == "hexagon" else hirzebruch(int(kind[1:]))


@st.composite
def flag_bundles(draw):
    """(bundle, polarization, vector pool): random integer flags of rank 2-4
    on the hexagon or a Hirzebruch fan."""
    kind = draw(st.sampled_from(SURFACE_KINDS))
    fan = surface(kind)
    bundle, pool = draw(flag_bundles_on(fan, draw(st.integers(2, 4))))
    return bundle, validate_polarization(fan, draw(_weights(kind))), pool


@st.composite
def flag_bundles_on(draw, fan, rank):
    """(bundle, vector pool): a random integer flag of the given rank on
    each ray of the fan, of at most two proper steps. Flags draw from one
    small pool of vectors, so lines and planes coincide across rays."""
    entries = st.lists(st.integers(-2, 2), min_size=rank, max_size=rank).map(tuple)
    pool = draw(st.lists(entries, min_size=rank + 1, max_size=rank + 3))
    filts = []
    for _ in fan.rays:
        dims = [] if rank == 1 else sorted(
            draw(st.sets(st.integers(1, rank - 1), max_size=2)), reverse=True)
        order = draw(st.permutations(range(len(pool))))
        vecs = independent_prefix(pool, order, dims[0] if dims else 0, rank)
        j = draw(st.integers(-2, 2))
        steps = [(j, Subspace.full(rank))]
        for k in dims:
            j += draw(st.integers(1, 2))
            steps.append((j, span(vecs[:k], rank)))
        filts.append(Filtration(rank, steps))
    return ToricBundle(fan, rank, filts), pool


def _character_of(fan, divisor):
    """The integer character u with div(u) = (<u, v_i>)_i equal to the
    divisor, or None when the divisor is not principal: u is solved on the
    last maximal cone and then checked on every ray."""
    cone = fan.max_cones[-1]
    u = solve_rational_system(fan.ray_matrix(cone), [divisor[i] for i in cone])
    if any(x.denominator != 1 for x in u):
        return None
    u = tuple(int(x) for x in u)
    return u if all(dot(u, v) == a for v, a in zip(fan.rays, divisor)) else None


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
@given(case=st.sampled_from(((2, 1), (2, 2), (2, 3), (3, 1), (3, 2))).flatmap(
    lambda dc: st.tuples(st.just(dc), st.permutations(range(dc[0] + 1)))))
@example(case=((2, 3), [2, 0, 1]))
def test_tangent_powers_with_shuffled_rays_match_reference(case):
    """T^copies on P^d. T^3 on P^2, always run, is the one whose slope table
    meets three or more classes of a contraction, and takes `integer_rank`."""
    (d, copies), order = case
    fan = projective_space(d, order)
    bundle = tangent_bundle(fan)
    for _ in range(copies - 1):
        bundle = direct_sum(bundle, tangent_bundle(fan))
    _assert_same_flats(bundle_ground_set(bundle))
    _assert_same_report(bundle, validate_polarization(fan, (1,) * (d + 1)))


def test_three_classes_of_rank_two_match_reference():
    """Rank 4 on P^2 with E^0(1) = <e1, e2>, E^0(2) = <e1>,
    E^1(1) = <e2, e3, e4> and E^2(1) = <e1 + e2, e3, e4>. The flat
    {e3, e4} has two elements outside E^0(1), whose ground lines e1, e2 and
    e1 + e2 fall in three classes of the contraction that span only a plane,
    so c1 of that flat needs the rank of the classes, not their count."""
    fan = projective_space(2, range(3))
    e1, e2, e3, e4 = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)

    def flag(*values):
        steps = [(j + 1, span(v, 4)) for j, v in enumerate(values)]
        return Filtration(4, [(0, Subspace.full(4))] + steps)

    bundle = ToricBundle(fan, 4, [
        flag([e1, e2], [e1]), flag([e2, e3, e4]), flag([(1, 1, 0, 0), e3, e4]),
    ])
    assert bundle_ground_set(bundle).rows == (e2, e1, (1, 1, 0, 0), e3, e4)
    _, classes, members, _ = _slope_table(bundle)
    (k,) = [k for flat, k in members if flat.indices == (3, 4)]
    difference = [a - b for a, b in zip(c1(bundle, span([e3, e4], 4)), classes[k][0])]
    assert _character_of(fan, difference) is not None
    _assert_same_report(bundle, validate_polarization(fan, (1, 1, 1)))


@settings(max_examples=30, deadline=None)
@given(case=flag_bundles(), data=st.data())
def test_reordered_ground_set_matches_reference(case, data):
    """Flats and closures of a ground set swept from the bundle's lattice
    in another order, and the slope table of the bundle's own."""
    bundle, _, pool = case
    lat = build_lattice(bundle)
    gs = ground_set(SubspaceLattice(lat.ambient, tuple(data.draw(st.permutations(lat.elements)))))
    _assert_same_flats(gs)
    picks = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=bundle.rank))
    inside = gs.indices_in(span(picks, bundle.rank))
    assert closure(gs, inside).indices == reference_closure(gs, inside)[0]
    c1_e, classes, members, firsts = _slope_table(bundle)
    assert c1_e == c1(bundle)
    assert len(set(classes)) == len(classes)
    assert tuple(flat for flat, _ in members) == proper_nonzero_flats(bundle_ground_set(bundle))
    sigma = bundle.fan.max_cones[0]
    for flat, k in members:
        key, rank = classes[k]
        assert not any(key[i] for i in sigma)
        difference = [a - b for a, b in zip(c1(bundle, flat.subspace), key)]
        assert _character_of(bundle.fan, difference) is not None
        assert rank == flat.rank
    assert firsts == tuple(
        min((flat for flat, j in members if j == k), key=lambda f: f.indices)
        for k in range(len(classes))
    )


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(lambda w: st.lists(
    st.lists(st.integers(-4, 4), min_size=w, max_size=w), max_size=7)))
def test_integer_rank_matches_fraction_rank(rows):
    width = len(rows[0]) if rows else 1
    assert integer_rank(rows) == reference_rank(rows, width)
    scaled = [[Fraction(x, i + 2) for x in row] for i, row in enumerate(rows)]
    assert linalg.matrix_rank(scaled) == reference_rank(rows, width)


def test_integer_row_clears_denominators():
    assert integer_row((Fraction(1, 2), Fraction(-2, 3), 0)) == (3, -4, 0)
    assert integer_row((2, 4)) == (2, 4)


def test_rank_memo_belongs_to_the_ground_set():
    fan = projective_space(2, range(3))
    t, tt = tangent_bundle(fan), direct_sum(tangent_bundle(fan), tangent_bundle(fan))
    a, b = bundle_ground_set(t), bundle_ground_set(tt)
    assert a is not b and bundle_ground_set(t) is a and bundle_ground_set(tt) is b
    assert len(a) == 3 and len(b) == 6
    assert enumerate_flats(a)[-1].rank == 2 and enumerate_flats(b)[-1].rank == 4


def _counting(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_flat_enumeration_does_no_subspace_algebra(monkeypatch):
    fan = projective_space(3, range(4))
    gs = bundle_ground_set(direct_sum(tangent_bundle(fan), tangent_bundle(fan)))
    calls = {"span": 0, "intersect": 0, "contains": 0, "_bareiss": 0}
    counting = partial(_counting, calls)

    # the package binds names with `from .linalg import ...`, so replace the
    # function in every toricbundles namespace that holds it
    for name in ("span", "intersect", "_bareiss"):
        original = getattr(linalg, name)
        wrapper = counting(name, original)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "toricbundles":
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, wrapper)
    monkeypatch.setattr(Subspace, "contains", counting("contains", Subspace.contains))

    flats = enumerate_flats(gs)
    assert calls == {"span": 0, "intersect": 0, "contains": 0, "_bareiss": 0}
    assert len(proper_nonzero_flats(gs)) == 142
    assert len(flats) == 144


@pytest.mark.parametrize("d", [3, 4])
def test_first_slope_table_on_tangent_sums_does_no_elimination(monkeypatch, d):
    """Each value of T + T on P^d but the fiber is a plane spanned by two
    ground vectors, so it meets at most two classes of a contraction, and
    c1 of every flat is read with no `integer_rank`."""
    fan = projective_space(d, range(d + 1))
    bundle = direct_sum(tangent_bundle(fan), tangent_bundle(fan))
    bundle_ground_set(bundle)
    calls = {"_bareiss": 0}
    monkeypatch.setattr(linalg, "_bareiss", _counting(calls, "_bareiss", linalg._bareiss))
    _, _, members, _ = _slope_table(bundle)
    assert calls == {"_bareiss": 0}
    assert len(members) == {3: 142, 4: 727}[d]


def _report_fields(report):
    witness = report.witness
    return (
        report.mu, report.stable, report.semistable,
        [(fs.flat.indices, fs.flat.rank, fs.slope, fs.relation)
         for fs in report.flat_slopes],
        witness and (witness.indices, witness.rank), report.witness_slope,
    )


def _assert_reused_bundle_matches(bundle, pols):
    """Each report on the reused bundle equals the report on a fresh copy
    of it and the subspace reference."""
    for pol in pols:
        report = check_stability(bundle, pol)
        fresh = ToricBundle(bundle.fan, bundle.rank, bundle.filtrations)
        assert _report_fields(report) == _report_fields(check_stability(fresh, pol))
        _assert_same_report(bundle, pol)


@settings(max_examples=30, deadline=None)
@given(case=flag_bundles(), data=st.data())
def test_slope_table_serves_every_polarization(case, data):
    bundle, pol, _ = case
    _assert_reused_bundle_matches(bundle, _polarizations(bundle, pol, data) + [pol])


def _polarizations(bundle, pol, data):
    """The drawn integer weights, the same over 3, the weights of a random
    divisor with denominators up to 3, and the sum of the last two."""
    thirds = validate_polarization(bundle.fan, [t / 3 for t in pol.weights])
    divisor = data.draw(st.lists(
        st.fractions(Fraction(1, 3), 3, max_denominator=3),
        min_size=len(bundle.fan.rays), max_size=len(bundle.fan.rays),
    ))
    from_divisor = weights_from_divisor(bundle.fan, divisor)
    mixed = validate_polarization(
        bundle.fan, [a + b for a, b in zip(thirds.weights, from_divisor.weights)]
    )
    return [pol, thirds, from_divisor, mixed]


def _assert_same_as_per_flat_decision(bundle, pols):
    for pol in pols:
        report = check_stability(bundle, pol)
        assert _report_fields(report) == _report_fields(per_flat_check_stability(bundle, pol))


@settings(max_examples=40, deadline=None)
@given(case=flag_bundles(), data=st.data())
def test_class_decision_matches_the_per_flat_decision(case, data):
    bundle, pol, _ = case
    _assert_same_as_per_flat_decision(bundle, _polarizations(bundle, pol, data))


def test_class_decision_on_fixed_cases():
    # T+T on P^3: semistable, not stable, every flat on the boundary
    fan = projective_space(3)
    bundle = direct_sum(tangent_bundle(fan), tangent_bundle(fan))
    unit = validate_polarization(fan, (1, 1, 1, 1))
    _assert_same_as_per_flat_decision(bundle, [unit])
    report = check_stability(bundle, unit)
    assert report.semistable and not report.stable

    # O(D_0) + O(D_1) + O(D_2) on P^2: slope 1 at ranks 1 and 2, so the
    # witness goes to the larger rank, and to the least indices among the
    # three rank-2 flats, which share one class
    doc = load_document(fixture_path("p2_sum_three"))
    _assert_same_as_per_flat_decision(doc.bundle, [doc.polarization()])
    report = check_stability(doc.bundle, doc.polarization())
    assert report.witness.indices == (0, 1) and report.witness_slope == 1

    # O(D_0) + O(D_2) on P^1 x P^1: the two lines have different c1, but
    # D_0 - D_2 = div((1, 0)), so they are one class, keyed by the
    # representative that vanishes on the rays 0 and 1 of the first cone
    fan = hirzebruch(0)
    bundle = direct_sum(line_bundle(fan, (1, 0, 0, 0)), line_bundle(fan, (0, 0, 1, 0)))
    pols = [validate_polarization(fan, w) for w in ((1, 1, 1, 1), (2, 1, 2, 1))]
    _assert_same_as_per_flat_decision(bundle, pols)
    _, classes, members, firsts = _slope_table(bundle)
    assert [c1(bundle, f.subspace) for f, _ in members] == [(0, 0, 1, 0), (1, 0, 0, 0)]
    assert classes == (((0, 0, 1, 0), 1),)
    assert [k for _, k in members] == [0, 0]
    assert [f.indices for f in firsts] == [(0,)]
    report = check_stability(bundle, pols[1])
    assert report.semistable and not report.stable
    assert report.witness.indices == (0,) and report.witness_slope == 2


def test_second_polarization_builds_a_fraction_per_class(monkeypatch):
    fan = projective_space(3)
    bundle = direct_sum(tangent_bundle(fan), tangent_bundle(fan))
    check_stability(bundle, validate_polarization(fan, (1, 1, 1, 1)))
    pol = validate_polarization(fan, (Fraction(2, 3),) * 4)
    _, classes, members, _ = _slope_table(bundle)
    made = []

    def counting(*args):
        made.append(Fraction(*args))
        return made[-1]

    monkeypatch.setattr(stability, "Fraction", counting)
    report = check_stability(bundle, pol)
    assert len(made) <= len(classes) + 2 < len(members)
    assert all(isinstance(fs.slope, Fraction) for fs in report.flat_slopes)
    assert isinstance(report.mu, Fraction) and isinstance(report.witness_slope, Fraction)


def test_flat_slope_rows_are_named_tuples(p2_tangent):
    report = check_stability(p2_tangent.bundle, p2_tangent.polarization())
    assert FlatSlope._fields == ("flat", "slope", "relation")
    row = report.flat_slopes[0]
    assert FlatSlope(flat=row.flat, slope=row.slope, relation=row.relation) == row
    assert repr(row) == (
        "FlatSlope(flat=Flat(indices=(0,), rank=1), slope=Fraction(1, 1), "
        "relation=<Order.LESS: '<'>)"
    )
    with pytest.raises(AttributeError):
        row.slope = Fraction(0)
    assert all(isinstance(fs, FlatSlope) and isinstance(fs, tuple) for fs in report.flat_slopes)


def test_rows_of_a_class_share_its_slope_object():
    """One `Fraction` per class, not per row, keeps the rows cheap."""
    fan = projective_space(4)
    bundle = direct_sum(tangent_bundle(fan), tangent_bundle(fan))
    report = check_stability(bundle, validate_polarization(fan, (1,) * 5))
    _, classes, members, _ = _slope_table(bundle)
    assert len(report.flat_slopes) == len(members) == 727 and len(classes) == 10
    assert len({id(fs.slope) for fs in report.flat_slopes}) <= len(classes)


def test_slope_table_on_the_semistable_boundary():
    fan = projective_space(3)
    bundle = direct_sum(tangent_bundle(fan), tangent_bundle(fan))
    unit = validate_polarization(fan, (1, 1, 1, 1))
    third = validate_polarization(fan, (Fraction(1, 3),) * 4)
    _assert_reused_bundle_matches(bundle, [unit, third, unit])
    for pol in (unit, third):
        report = check_stability(bundle, pol)
        assert report.semistable and not report.stable
        assert report.mu == Fraction(4, 3) * pol.weights[0]


def test_second_polarization_reads_the_slope_table(monkeypatch):
    fan = projective_space(3)
    bundle = direct_sum(tangent_bundle(fan), tangent_bundle(fan))
    first = check_stability(bundle, validate_polarization(fan, (1, 1, 1, 1)))
    calls = {"residual": 0, "_bareiss": 0, "enumerate_flats": 0, "max_level": 0}
    counting = partial(_counting, calls)

    monkeypatch.setattr(Subspace, "residual", counting("residual", Subspace.residual))
    monkeypatch.setattr(linalg, "_bareiss", counting("_bareiss", linalg._bareiss))
    monkeypatch.setattr(Filtration, "max_level", counting("max_level", Filtration.max_level))
    monkeypatch.setattr(
        matroid, "enumerate_flats", counting("enumerate_flats", enumerate_flats)
    )
    second = check_stability(bundle, validate_polarization(fan, (Fraction(2, 3),) * 4))
    assert calls == {"residual": 0, "_bareiss": 0, "enumerate_flats": 0, "max_level": 0}
    assert len(second.flat_slopes) == len(first.flat_slopes) == 142
    assert [fs.slope * 3 / 2 for fs in second.flat_slopes] == [
        fs.slope for fs in first.flat_slopes
    ]


@st.composite
def basis_bundles_3d(draw):
    """(bundle, polarization): a random rational basis of rank 2-4 with a
    level per basis vector on each ray, so E_i(j) = span{b : level_i(b) >= j},
    on P^3 with shuffled rays, (P^1)^3 or P^3 blown up at a point (Picard
    rank 1, 3 and 2), under balanced integer weights. Only on (P^1)^3 is the
    first maximal cone the standard basis."""
    kind = draw(st.sampled_from(("p3", "p1_cubed", "blown_up_p3")))
    a, b, c = draw(st.lists(st.integers(1, 3), min_size=3, max_size=3))
    if kind == "p3":
        fan = projective_space(3, draw(st.permutations(range(4))))
        weights = (a,) * 4
    elif kind == "p1_cubed":
        fan = p1_cubed()
        weights = (a, a, b, b, c, c)
    else:
        fan = blown_up_p3()
        weights = (a, a, a, a + b, b)
    rank = draw(st.integers(2, 4))
    entry = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    basis = draw(st.lists(st.tuples(*[entry] * rank), min_size=rank, max_size=rank))
    assume(reference_rank(basis, rank) == rank)
    filts = []
    for _ in fan.rays:
        levels = draw(st.lists(st.integers(-2, 2), min_size=rank, max_size=rank))
        filts.append(Filtration(rank, [
            (t, span([v for v, lv in zip(basis, levels) if lv >= t], rank))
            for t in sorted(set(levels))
        ]))
    return ToricBundle(fan, rank, filts), validate_polarization(fan, weights)


@settings(max_examples=30, deadline=None)
@given(case=basis_bundles_3d(), data=st.data())
def test_class_decision_matches_the_per_flat_decision_in_dimension_3(case, data):
    bundle, pol = case
    _assert_same_as_per_flat_decision(bundle, _polarizations(bundle, pol, data))


def _reduced(fan, cone, divisor):
    """divisor + div(u), with u solved so that the sum vanishes on the
    cone's rays."""
    u = solve_rational_system(fan.ray_matrix(cone), [-divisor[i] for i in cone])
    return tuple(a + dot(u, v) for a, v in zip(divisor, fan.rays))


def _assert_classes_do_not_depend_on_the_cone(bundle):
    _, classes, members, _ = _slope_table(bundle)
    fan = bundle.fan
    c1s = [c1(bundle, flat.subspace) for flat, _ in members]
    for cone in fan.max_cones:
        labels: dict = {}
        partition = [
            labels.setdefault((_reduced(fan, cone, coeffs), flat.rank), len(labels))
            for coeffs, (flat, _) in zip(c1s, members)
        ]
        assert partition == [k for _, k in members]
        if cone == fan.max_cones[0]:
            assert tuple(labels) == classes


@settings(max_examples=30, deadline=None)
@given(case=st.one_of(flag_bundles().map(lambda c: c[0]), basis_bundles_3d().map(lambda c: c[0])))
def test_classes_do_not_depend_on_the_reducing_cone(case):
    _assert_classes_do_not_depend_on_the_cone(case)


@settings(max_examples=30, deadline=None)
@given(case=flag_bundles(), u=st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
def test_twist_by_a_character_keeps_the_classes(case, u):
    """Twisting by u shifts every c1(F) by rk F div(u), a principal divisor,
    so the keys, the partition and every slope stay."""
    bundle, pol, _ = case
    twisted = twist_by_character(bundle, u)
    c1_e, classes, members, firsts = _slope_table(bundle)
    c1_t, classes_t, members_t, firsts_t = _slope_table(twisted)
    div = [dot(u, v) for v in bundle.fan.rays]
    assert c1_t == tuple(a + bundle.rank * b for a, b in zip(c1_e, div))
    assert classes_t == classes
    assert [(f.indices, k) for f, k in members_t] == [(f.indices, k) for f, k in members]
    assert [f.indices for f in firsts_t] == [f.indices for f in firsts]
    assert _report_fields(check_stability(twisted, pol)) == _report_fields(
        check_stability(bundle, pol)
    )


def test_class_counts_of_the_scaling_family():
    """One class per (Pic class, rank): T on P^6 has Picard rank 1 and flats
    of ranks 1-5, one class each; T+T on P^4 has ranks 1-7."""
    for d, copies, flats, count in ((6, 1, 119, 5), (4, 2, 727, 10)):
        fan = projective_space(d)
        bundle = tangent_bundle(fan)
        for _ in range(copies - 1):
            bundle = direct_sum(bundle, tangent_bundle(fan))
        _, classes, members, _ = _slope_table(bundle)
        assert (len(members), len(classes)) == (flats, count)


@settings(max_examples=30, deadline=None)
@given(case=flag_bundles(), data=st.data())
def test_validated_polarizations_pass_and_malformed_ones_raise(case, data):
    """Every validated polarization is accepted; a weight more, a weight
    less, or one weight raised so that sum t_i v_i != 0, is refused."""
    bundle, pol, _ = case
    for valid in _polarizations(bundle, pol, data):
        check_stability(bundle, valid)
    t = pol.weights
    for weights in (t + (Fraction(1),), t[:-1], (t[0] + 1,) + t[1:]):
        with pytest.raises(PolarizationError):
            check_stability(bundle, Polarization(weights))
