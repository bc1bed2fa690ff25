import random
from fractions import Fraction
from itertools import combinations

import pytest
from subspace_reference import brute_force_max_slope

from toricbundles.bundle import (
    IncompatibleBundleError,
    line_bundle,
    twist_by_divisor,
)
from toricbundles.fan import Fan, FanError, walls
from toricbundles.linalg import Subspace, span
from toricbundles.matroid import bundle_ground_set, proper_nonzero_flats
from toricbundles.parliament import average_polytope
from toricbundles.stability import (
    Order,
    Polarization,
    PolarizationError,
    c1,
    check_stability,
    compare_average_polytopes,
    restrict_to_curve,
    slope,
    tangent_weight_condition,
    validate_polarization,
    weights_from_divisor,
)

P2_FAN = Fan(2, [(-1, -1), (1, 0), (0, 1)], [(0, 1), (0, 2), (1, 2)])
BLP2_FAN = Fan(
    2, [(-1, -1), (1, 0), (0, 1), (-1, 0)], [(0, 1), (0, 3), (1, 2), (2, 3)]
)


def test_weights_of_d0_on_p2():
    assert weights_from_divisor(P2_FAN, (1, 0, 0)).weights == (1, 1, 1)


def test_weights_of_blowup_divisor():
    assert weights_from_divisor(BLP2_FAN, (0, 2, 0, -1)).weights == (1, 2, 1, 1)


def test_weights_scale_with_dilation():
    assert weights_from_divisor(P2_FAN, (2, 0, 0)).weights == (2, 2, 2)


def test_weights_reject_degenerate_polytopes():
    with pytest.raises(PolarizationError):
        weights_from_divisor(P2_FAN, (-1, -1, -1))  # empty
    with pytest.raises(PolarizationError):
        weights_from_divisor(P2_FAN, (0, 0, 0))  # a single point


def test_weights_on_p3_divisor():
    fan = Fan(
        3,
        [(-1, -1, -1), (1, 0, 0), (0, 1, 0), (0, 0, 1)],
        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)],
    )
    # normalized areas of the four facets of the D_0 simplex are all 1
    assert weights_from_divisor(fan, (1, 0, 0, 0)).weights == (1, 1, 1, 1)


def test_validate_polarization_accepts_uniform():
    pol = validate_polarization(P2_FAN, (1, 1, 1))
    assert pol.weights == (1, 1, 1)


def test_validate_polarization_rejects_unbalanced():
    with pytest.raises(PolarizationError) as err:
        validate_polarization(P2_FAN, (1, 1, 2))
    # balance defect computed exactly: 1*v0 + 1*v1 + 2*v2 = (0, 1)
    assert "(Fraction(0, 1), Fraction(1, 1))" in str(err.value)


def test_validate_polarization_rejects_all_zero():
    with pytest.raises(PolarizationError):
        validate_polarization(P2_FAN, (0, 0, 0))


def test_validate_polarization_rejects_negative():
    with pytest.raises(PolarizationError):
        validate_polarization(P2_FAN, (-1, 1, 1))


def test_c1_of_tangent(p2_tangent):
    assert c1(p2_tangent.bundle) == (1, 1, 1)


def test_c1_of_blowup_sum_pairs_with_weights(blp2_sum):
    coeffs = c1(blp2_sum.bundle)
    weights = (1, 2, 1, 1)
    assert sum(a * t for a, t in zip(coeffs, weights)) == 10


def test_c1_and_slope_reject_zero_subsheaf(p2_tangent):
    pol = validate_polarization(P2_FAN, (1, 1, 1))
    with pytest.raises(ValueError):
        c1(p2_tangent.bundle, Subspace.zero(2))
    with pytest.raises(ValueError):
        slope(p2_tangent.bundle, Subspace.zero(2), pol)


def test_c1_shifts_under_twist(p2_tangent):
    bundle = p2_tangent.bundle
    twisted = twist_by_divisor(bundle, (1, -2, 3))
    base = c1(bundle)
    assert c1(twisted) == tuple(
        b + bundle.rank * a for b, a in zip(base, (1, -2, 3))
    )


def test_slopes(p2_tangent, documents):
    pol = validate_polarization(P2_FAN, (1, 1, 1))
    bundle = p2_tangent.bundle
    assert slope(bundle, Subspace.full(2), pol) == Fraction(3, 2)
    assert slope(bundle, span([(1, 0)], 2), pol) == 1
    three = documents["p2_sum_three"].bundle
    assert slope(three, Subspace.full(3), pol) == 1


def test_compare_average_polytopes(p2_tangent, documents):
    pol = validate_polarization(P2_FAN, (1, 1, 1))
    bundle = p2_tangent.bundle
    avg_full = average_polytope(bundle, Subspace.full(2))
    avg_f1 = average_polytope(bundle, span([(1, 0)], 2))
    assert compare_average_polytopes(avg_f1, avg_full, pol) is Order.LESS
    assert compare_average_polytopes(avg_full, avg_full, pol) is Order.EQUAL
    split = documents["p2_sum_d0_d12"].bundle
    avg_e1 = average_polytope(split, span([(1, 0)], 2))  # the O(D1+D2) line
    avg_split = average_polytope(split, Subspace.full(2))
    assert compare_average_polytopes(avg_e1, avg_split, pol) is Order.GREATER


def test_compare_rejects_fan_mismatch(p2_tangent, blp2_sum):
    pol = validate_polarization(P2_FAN, (1, 1, 1))
    a = average_polytope(p2_tangent.bundle, Subspace.full(2))
    b = average_polytope(blp2_sum.bundle, Subspace.full(2))
    with pytest.raises(ValueError):
        compare_average_polytopes(a, b, pol)


def test_check_stability_tangent(p2_tangent):
    report = check_stability(p2_tangent.bundle, p2_tangent.polarization())
    assert report.stable and report.semistable
    assert report.mu == Fraction(3, 2)
    assert sorted(fs.slope for fs in report.flat_slopes) == [1, 1, 1]
    assert report.witness_slope == 1


def test_check_stability_split_three(documents):
    doc = documents["p2_sum_three"]
    report = check_stability(doc.bundle, doc.polarization())
    assert report.semistable and not report.stable
    assert report.mu == 1
    assert all(fs.relation is not Order.GREATER for fs in report.flat_slopes)
    assert any(fs.relation is Order.EQUAL for fs in report.flat_slopes)


def test_check_stability_blowup_polystable_slopes(blp2_sum):
    report = check_stability(blp2_sum.bundle, blp2_sum.polarization())
    assert report.semistable and not report.stable
    assert report.mu == 5
    rank1 = [fs for fs in report.flat_slopes if fs.flat.rank == 1]
    assert len(rank1) == 2 and all(fs.slope == 5 for fs in rank1)


def test_stability_rejects_incompatible_bundle():
    from toricbundles.bundle import Filtration, ToricBundle

    fan = Fan(
        3,
        [(-1, -1, -1), (1, 0, 0), (0, 1, 0), (0, 0, 1)],
        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)],
    )
    full = Subspace.full(2)
    filts = [Filtration(2, [(0, full)])] + [
        Filtration(2, [(0, full), (1, span([v], 2))])
        for v in ((1, 0), (0, 1), (1, 1))
    ]
    bundle = ToricBundle(fan, 2, filts)
    pol = validate_polarization(fan, (1, 1, 1, 1))
    with pytest.raises(IncompatibleBundleError):
        check_stability(bundle, pol)


def test_witness_tie_breaking(documents):
    doc = documents["p2_sum_three"]
    report = check_stability(doc.bundle, doc.polarization())
    # all proper flats share slope 1: the witness is the largest-rank one
    # with the lexicographically first index set
    assert report.witness.rank == 2
    assert report.witness.indices == (0, 1)


def test_tangent_weight_condition_examples():
    pol = validate_polarization(P2_FAN, (1, 1, 1))
    assert tangent_weight_condition(P2_FAN, pol)
    assert tangent_weight_condition(P2_FAN, pol, strict=True)  # 1 < 3/2
    # formula-level false branch: a dominant weight exceeds the mean
    skew = Polarization(weights=(Fraction(3), Fraction(1), Fraction(1)))
    assert not tangent_weight_condition(P2_FAN, skew)


def test_tangent_weight_condition_rejects_opposite_rays():
    fan = Fan(2, [(1, 0), (0, 1), (-1, 1), (0, -1)], [(0, 1), (0, 3), (1, 2), (2, 3)])
    pol = validate_polarization(fan, (1, 1, 1, 2))
    with pytest.raises(FanError):
        tangent_weight_condition(fan, pol)


def test_weight_shortcut_matches_general_verdict_on_surfaces(documents):
    # dimension 2: the weight condition matches the general semistability
    # verdict for tangent bundles
    doc = documents["p2_tangent"]
    pol = doc.polarization()
    general = check_stability(doc.bundle, pol).semistable
    assert tangent_weight_condition(doc.fan, pol) == general


def test_restrict_blowup_wall0(blp2_sum):
    ws = walls(blp2_sum.fan)
    report = restrict_to_curve(blp2_sum.bundle, ws[0])
    assert report.degrees == (1, 2)
    assert not report.semistable
    assert sum(report.degrees) == 3


def test_restrict_tangent_wall0(p2_tangent):
    ws = walls(p2_tangent.fan)
    report = restrict_to_curve(p2_tangent.bundle, ws[0])
    assert report.degrees == (1, 2)
    assert sum(report.degrees) == 3
    chars = {
        (s.character_sigma, s.character_sigma_prime) for s in report.segments
    }
    assert chars == {((0, -1), (-1, 0)), ((1, -1), (-1, 1))}


def test_restrict_trivial_rank2():
    from toricbundles.bundle import direct_sum

    bundle = direct_sum(line_bundle(P2_FAN, (0, 0, 0)), line_bundle(P2_FAN, (0, 0, 0)))
    for w in walls(P2_FAN):
        report = restrict_to_curve(bundle, w)
        assert report.degrees == (0, 0)
        assert report.semistable


def test_restrict_swap_invariance(documents):
    from toricbundles.fan import Wall

    for name in ("p2_tangent", "blp2_sum", "p2_rank3", "p3_tangent"):
        doc = documents[name]
        for w in walls(doc.fan):
            base = restrict_to_curve(doc.bundle, w)
            swapped = Wall(
                tau=w.tau,
                sigma=w.sigma_prime,
                sigma_prime=w.sigma,
                extra_sigma=w.extra_sigma_prime,
                extra_sigma_prime=w.extra_sigma,
            )
            assert restrict_to_curve(doc.bundle, swapped).degrees == base.degrees


def test_restrict_degree_sums_are_wall_independent_for_line_bundles():
    # degree of O(D) on the wall curve equals the paired-segment length
    bundle = line_bundle(BLP2_FAN, (4, 0, 0, 1))
    degs = [restrict_to_curve(bundle, w).degrees for w in walls(BLP2_FAN)]
    assert all(len(d) == 1 for d in degs)


def test_brute_force_bounded_by_flat_max(p2_tangent):
    pol = p2_tangent.polarization()
    bundle = p2_tangent.bundle
    probe = brute_force_max_slope(bundle, pol, samples=200, seed=0)
    gs = bundle_ground_set(bundle)
    flat_max = max(
        slope(bundle, f.subspace, pol) for f in proper_nonzero_flats(gs)
    )
    assert probe <= flat_max == 1


def test_brute_force_split_fixture(documents):
    doc = documents["p2_sum_d0_d12"]
    pol = doc.polarization()
    probe = brute_force_max_slope(doc.bundle, pol, samples=200, seed=0)
    # the O(D1+D2) flat has slope 2
    assert probe <= 2
    gs = bundle_ground_set(doc.bundle)
    assert max(
        slope(doc.bundle, f.subspace, pol) for f in proper_nonzero_flats(gs)
    ) == 2


def test_brute_force_zero_samples_sentinel(p2_tangent):
    assert brute_force_max_slope(p2_tangent.bundle, p2_tangent.polarization(), 0) is None


def test_order_consistency_across_flat_pairs(documents):
    for name, doc in documents.items():
        pol = doc.polarization()
        bundle = doc.bundle
        gs = bundle_ground_set(bundle)
        flats = proper_nonzero_flats(gs)
        for f1, f2 in combinations(flats, 2):
            cmp_poly = compare_average_polytopes(
                average_polytope(bundle, f1.subspace),
                average_polytope(bundle, f2.subspace),
                pol,
            )
            s1, s2 = slope(bundle, f1.subspace, pol), slope(bundle, f2.subspace, pol)
            expected = (
                Order.LESS if s1 < s2 else Order.GREATER if s1 > s2 else Order.EQUAL
            )
            assert cmp_poly is expected


def test_twist_invariance_of_verdicts(documents):
    rng = random.Random(31)
    for name in ("p2_tangent", "p2_sum_three", "blp2_sum"):
        doc = documents[name]
        pol = doc.polarization()
        base = check_stability(doc.bundle, pol)
        for _ in range(3):
            a = [rng.randint(-3, 3) for _ in doc.fan.rays]
            moved = check_stability(twist_by_divisor(doc.bundle, a), pol)
            assert (moved.stable, moved.semistable) == (base.stable, base.semistable)
            assert moved.witness.indices == base.witness.indices


def test_scaling_invariance_of_verdicts(p2_tangent):
    bundle = p2_tangent.bundle
    base = check_stability(bundle, validate_polarization(P2_FAN, (1, 1, 1)))
    for lam in (Fraction(2), Fraction(1, 3), Fraction(7, 5)):
        pol = validate_polarization(P2_FAN, (lam, lam, lam))
        scaled = check_stability(bundle, pol)
        assert (scaled.stable, scaled.semistable) == (base.stable, base.semistable)
        assert [fs.relation for fs in scaled.flat_slopes] == [
            fs.relation for fs in base.flat_slopes
        ]


def test_hirzebruch_destabilizing_weights_found(documents):
    # search small balanced weight vectors for one that destabilizes the
    # tangent bundle through the <v_2> subbundle flat; record the first hit
    expected_first_hit = {
        "hirzebruch_printed_tangent": (1, 1, 1, 2),
        "hirzebruch_h2_tangent": (1, 1, 1, 3),
    }
    for name, recorded in expected_first_hit.items():
        doc = documents[name]
        gs = bundle_ground_set(doc.bundle)
        v2 = gs.index_of_line((0, 1))
        found = None
        for a in range(1, 4):
            for b in range(1, 4):
                weights = (a, b, a, a + b) if name.endswith("printed_tangent") else (
                    a,
                    b,
                    a,
                    2 * a + b,
                )
                try:
                    pol = validate_polarization(doc.fan, weights)
                except PolarizationError:
                    continue
                report = check_stability(doc.bundle, pol)
                if not report.semistable:
                    found = (weights, report)
                    break
            if found:
                break
        assert found is not None
        weights, report = found
        assert weights == recorded
        assert report.witness.indices == (v2,)
        assert report.witness_slope > report.mu
