import random
from itertools import combinations

import pytest

from toricbundles.bundle import (
    Filtration,
    IncompatibleBundleError,
    ToricBundle,
    associated_characters,
    check_compatibility,
    direct_sum,
    line_bundle,
    tangent_bundle,
    twist_by_character,
    twist_by_divisor,
)
from toricbundles.fan import Fan
from toricbundles.linalg import Subspace, span
from toricbundles.matroid import bundle_ground_set

P2_FAN = Fan(2, [(-1, -1), (1, 0), (0, 1)], [(0, 1), (0, 2), (1, 2)])
P3_FAN = Fan(
    3,
    [(-1, -1, -1), (1, 0, 0), (0, 1, 0), (0, 0, 1)],
    [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)],
)


def tangent_filtration(ray):
    d = len(ray)
    return Filtration(d, [(0, Subspace.full(d)), (1, span([ray], d))])


def test_filtration_value_steps():
    f = tangent_filtration((1, 0))
    assert f.value(0).is_full()
    assert f.value(-5).is_full()
    assert f.value(1) == span([(1, 0)], 2)
    assert f.value(2).is_zero()


def test_filtration_invariants_enforced():
    full = Subspace.full(2)
    line = span([(1, 0)], 2)
    with pytest.raises(ValueError):
        Filtration(2, [(1, full), (0, line)])  # thresholds not increasing
    with pytest.raises(ValueError):
        Filtration(2, [(0, line)])  # first step not full
    with pytest.raises(ValueError):
        Filtration(2, [(0, full), (1, full)])  # not strictly decreasing


def test_jump_values():
    f = tangent_filtration((1, 0))
    assert f.jump_multiset(span([(1, 0)], 2)) == (1,)
    assert f.jump_multiset(span([(0, 1)], 2)) == (0,)
    assert f.jump_multiset(Subspace.full(2)) == (0, 1)


def test_tangent_p2_characters():
    bundle = tangent_bundle(P2_FAN)
    sheet = check_compatibility(bundle)
    # cone (v1, v2) carries the circles at (1,0) and (0,1)
    ci = P2_FAN.max_cones.index((1, 2))
    assert sheet.characters(ci) == ((0, 1), (1, 0))
    # cone (v0, v2) carries the diamonds at (-1,1) and (-1,0)
    ci = P2_FAN.max_cones.index((0, 2))
    assert sheet.characters(ci) == ((-1, 0), (-1, 1))
    ci = P2_FAN.max_cones.index((0, 1))
    assert sheet.characters(ci) == ((0, -1), (1, -1))


def test_sheet_satisfies_sum_condition_verbatim():
    bundle = tangent_bundle(P2_FAN)
    sheet = check_compatibility(bundle)
    for ci, cone in enumerate(P2_FAN.max_cones):
        rows = sheet.rows[ci]
        for k, ray_index in enumerate(cone):
            filt = bundle.filtrations[ray_index]
            for j in filt.thresholds:
                got = span([r.row for r in rows if r.profile[k] >= j], bundle.rank)
                assert got == filt.value(j)


def test_rank_one_always_compatible():
    bundle = line_bundle(P2_FAN, (3, -1, 2))
    sheet = check_compatibility(bundle)
    assert all(len(rows) == 1 for rows in sheet.rows)


def test_incompatible_rank2_on_p3():
    # three rays of cone (1,2,3) ask for pairwise-distinct jump lines; no
    # two-line decomposition can satisfy them
    full = Subspace.full(2)
    lines = {1: span([(1, 0)], 2), 2: span([(0, 1)], 2), 3: span([(1, 1)], 2)}
    filts = [Filtration(2, [(0, full)])] + [
        Filtration(2, [(0, full), (1, lines[i])]) for i in (1, 2, 3)
    ]
    bundle = ToricBundle(P3_FAN, 2, filts)
    with pytest.raises(IncompatibleBundleError) as err:
        check_compatibility(bundle)
    assert err.value.witness.multiplicity is not None
    assert err.value.witness.multiplicity < 0

    # exhaustive oracle: no basis of two small-integer lines satisfies the
    # sum condition on that cone
    cands = []
    for v in [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1), (1, -2), (2, -1)]:
        cands.append(span([v], 2))
    ok_pairs = []
    for a, b in combinations(cands, 2):
        if subspace_sum_dim(a, b) != 2:
            continue
        good = True
        for i in (1, 2, 3):
            # E^i(1) must equal the span of the chosen lines inside it
            members = [l for l in (a, b) if lines[i].contains_subspace(l)]
            got = members[0] if members else Subspace.zero(2)
            if got != lines[i]:
                good = False
                break
        if good:
            ok_pairs.append((a, b))
    assert not ok_pairs


def subspace_sum_dim(a, b):
    from toricbundles.linalg import subspace_sum

    return subspace_sum(a, b).dim


def test_characters_unique_across_seeds():
    bundle = ToricBundle(
        P2_FAN,
        3,
        [
            Filtration(3, [(-3, Subspace.full(3)), (-1, span([(1, 0, 0), (0, 1, 0)], 3)), (1, span([(1, 0, 0)], 3))]),
            Filtration(3, [(0, Subspace.full(3)), (2, span([(0, 1, 0), (0, 0, 1)], 3)), (4, span([(0, 0, 1)], 3))]),
            Filtration(3, [(0, Subspace.full(3)), (2, span([(1, 0, -1), (1, -1, 0)], 3)), (4, span([(1, 0, -1)], 3))]),
        ],
    )
    reference = [check_compatibility(bundle).characters(ci) for ci in range(3)]
    for seed in (1, 2, 3, 17):
        sheet = check_compatibility(bundle)
        assert [sheet.characters(ci) for ci in range(3)] == reference


def test_per_ray_marginal_consistency():
    bundle = tangent_bundle(P3_FAN)
    sheet = check_compatibility(bundle)
    for ci, cone in enumerate(P3_FAN.max_cones):
        for k, ray_index in enumerate(cone):
            filt = bundle.filtrations[ray_index]
            marginal = sorted(r.profile[k] for r in sheet.rows[ci])
            assert tuple(marginal) == filt.jump_multiset(Subspace.full(bundle.rank))


def test_associated_characters_examples():
    bundle = tangent_bundle(P2_FAN)
    ci = P2_FAN.max_cones.index((0, 2))
    assert associated_characters(bundle, ci) == ((-1, 0), (-1, 1))
    trivial = line_bundle(P2_FAN, (0, 0, 0))
    for ci in range(3):
        assert associated_characters(trivial, ci) == ((0, 0),)


def test_blowup_sum_characters():
    fan = Fan(2, [(-1, -1), (1, 0), (0, 1), (-1, 0)], [(0, 1), (0, 3), (1, 2), (2, 3)])
    bundle = direct_sum(line_bundle(fan, (4, 0, 0, 1)), line_bundle(fan, (0, 3, 0, -1)))
    ci = fan.max_cones.index((0, 3))
    assert associated_characters(bundle, ci) == ((-1, -3), (1, -1))


def test_tangent_constructor_matches_fixture(documents):
    built = tangent_bundle(P2_FAN)
    assert built.filtrations == documents["p2_tangent"].bundle.filtrations


def test_rank_mismatch_rejected():
    full2, full3 = Subspace.full(2), Subspace.full(3)
    with pytest.raises(ValueError):
        ToricBundle(
            P2_FAN,
            2,
            [
                Filtration(2, [(0, full2)]),
                Filtration(3, [(0, full3)]),
                Filtration(2, [(0, full2)]),
            ],
        )
    with pytest.raises(ValueError):
        ToricBundle(P2_FAN, 2, [Filtration(2, [(0, full2)])] * 2)


def test_line_bundle_and_direct_sum_ground_sets():
    d0 = line_bundle(P2_FAN, (1, 0, 0))
    d12 = line_bundle(P2_FAN, (0, 1, 1))
    both = direct_sum(d0, d12)
    assert both.rank == 2
    assert len(bundle_ground_set(both)) == 2


def test_twist_by_character_identity_and_translation():
    bundle = tangent_bundle(P2_FAN)
    assert twist_by_character(bundle, (0, 0)).filtrations == bundle.filtrations
    trivial = line_bundle(P2_FAN, (0, 0, 0))
    twisted = twist_by_character(trivial, (1, 0))
    # thresholds shift by <u, v_i> per ray: v0, v1, v2 -> -1, 1, 0
    assert [f.thresholds for f in twisted.filtrations] == [(-1,), (1,), (0,)]


def test_twist_covariance_of_characters():
    bundle = tangent_bundle(P2_FAN)
    u = (2, -1)
    twisted = twist_by_character(bundle, u)
    for ci in range(len(P2_FAN.max_cones)):
        base = associated_characters(bundle, ci)
        shifted = associated_characters(twisted, ci)
        assert shifted == tuple(sorted(tuple(a + b for a, b in zip(c, u)) for c in base))


def test_twist_by_divisor_shifts_thresholds():
    bundle = tangent_bundle(P2_FAN)
    twisted = twist_by_divisor(bundle, (2, 0, -1))
    for f, g, a in zip(bundle.filtrations, twisted.filtrations, (2, 0, -1)):
        assert g.thresholds == tuple(j + a for j in f.thresholds)
        assert [sp for _, sp in g.steps] == [sp for _, sp in f.steps]


def test_twist_hirzebruch_by_d3_plus_d4_keeps_stability(documents):
    # thresholds move on rays 2 and 3 only; every slope comparison
    # shifts by the same amount, so verdicts are unchanged
    from toricbundles.stability import check_stability

    doc = documents["hirzebruch_printed_tangent"]
    twisted = twist_by_divisor(doc.bundle, (0, 0, 1, 1))
    for i, (f, g) in enumerate(zip(doc.bundle.filtrations, twisted.filtrations)):
        shift = 1 if i in (2, 3) else 0
        assert g.thresholds == tuple(j + shift for j in f.thresholds)
    pol = doc.polarization()
    base = check_stability(doc.bundle, pol)
    moved = check_stability(twisted, pol)
    assert (moved.stable, moved.semistable) == (base.stable, base.semistable)


def _random_surface_bundle(rng, rank):
    full = Subspace.full(rank)
    filts = []
    for _ in range(3):
        steps = [(rng.randint(-3, 0), full)]
        current = full
        j = steps[0][0]
        while current.dim > 1 and rng.random() < 0.7:
            j += rng.randint(1, 3)
            target = rng.randint(1, current.dim - 1)
            rows = None
            for _ in range(50):
                combos = []
                for _ in range(target):
                    coeffs = [rng.randint(-2, 2) for _ in current.rows]
                    combos.append(
                        [
                            sum(c * row[i] for c, row in zip(coeffs, current.rows))
                            for i in range(rank)
                        ]
                    )
                cand = span(combos, rank)
                if cand.dim == target:
                    rows = cand
                    break
            if rows is None:
                break
            steps.append((j, rows))
            current = rows
        filts.append(Filtration(rank, steps))
    return ToricBundle(P2_FAN, rank, filts)


def test_two_dimensional_fans_always_compatible():
    # any two filtrations admit a common splitting, so d = 2 never fails
    rng = random.Random(7)
    for _ in range(40):
        bundle = _random_surface_bundle(rng, rng.randint(2, 4))
        rng.randint(0, 100)  # a draw kept so the bundle sequence stays the same
        sheet = check_compatibility(bundle)
        assert all(len(rows) == bundle.rank for rows in sheet.rows)
