import random
import re
from fractions import Fraction
from itertools import combinations

import polytope_reference
import pytest
from generators import blown_up_p3, hexagon, hirzebruch, p1_cubed, projective_space
from hypothesis import given, settings
from hypothesis import strategies as st
from subspace_reference import _facet_normalized_volume, brute_force_max_slope

from toricbundles.bundle import (
    Filtration,
    IncompatibleBundleError,
    ToricBundle,
    line_bundle,
    twist_by_divisor,
)
from toricbundles import fan as fan_module
from toricbundles import stability as stability_module
from toricbundles.fan import Fan, FanError, positively_spans, validate_fan, walls
from toricbundles.linalg import Subspace, lattice_frame, span
from toricbundles.matroid import bundle_ground_set, proper_nonzero_flats
from toricbundles.parliament import average_polytope
from toricbundles.polytopes import HPolytope, newton_polytope
from toricbundles.stability import (
    Order,
    _facet_volume,
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


VOLUME_FANS = (
    projective_space(2),
    projective_space(3),
    hexagon(),
    hirzebruch(0),
    hirzebruch(3),
    p1_cubed(),
    blown_up_p3(),
)


@st.composite
def fan_divisors(draw):
    """(fan, coefficients in -3..3): nef or not, often empty."""
    fan = draw(st.sampled_from(VOLUME_FANS))
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(fan.rays),
                           max_size=len(fan.rays)))
    return fan, coeffs


def _facet_volumes(fan, coeffs):
    poly = newton_polytope(fan, coeffs)
    halfspaces = dict(zip(poly.rays, poly.bounds))
    return [_facet_volume(fan._facets, halfspaces, ray, c) for ray, c in halfspaces.items()]


@settings(max_examples=300, deadline=None)
@given(case=fan_divisors())
def test_facet_volumes_match_the_per_dimension_reference(case):
    fan, coeffs = case
    poly = newton_polytope(fan, coeffs)
    assert _facet_volumes(fan, coeffs) == [
        _facet_normalized_volume(poly, ray, c) for ray, c in zip(poly.rays, poly.bounds)
    ]


def _weights_or_error(fan, coeffs):
    try:
        return weights_from_divisor(fan, coeffs).weights
    except PolarizationError as exc:
        return str(exc)


@settings(max_examples=100, deadline=None)
@given(case=fan_divisors(), data=st.data())
def test_weights_are_invariant_under_principal_twists(case, data):
    fan, coeffs = case
    u = data.draw(st.lists(st.integers(-3, 3), min_size=fan.dim, max_size=fan.dim))
    twisted = [c + sum(a * b for a, b in zip(u, ray)) for c, ray in zip(coeffs, fan.rays)]
    assert _weights_or_error(fan, twisted) == _weights_or_error(fan, coeffs)


@pytest.mark.parametrize("d", [4, 5])
@pytest.mark.parametrize("c", [1, 2, 3])
def test_weights_of_multiples_of_the_hyperplane_class(d, c):
    fan = projective_space(d)
    weights = weights_from_divisor(fan, (c,) + (0,) * d).weights
    assert weights == (c ** (d - 1),) * (d + 1)


def test_weights_reject_a_segment_polytope_with_facets_of_volume_one():
    fan = hirzebruch(0)  # rays (1, 0), (0, 1), (-1, 0), (0, -1)
    # x = 0, 0 <= y <= 1: the two x-facets are the whole unit segment
    assert _facet_volumes(fan, (0, 1, 0, 0)) == [1, 0, 1, 0]
    with pytest.raises(PolarizationError, match="lower-dimensional"):
        weights_from_divisor(fan, (0, 1, 0, 0))


DIFFERENTIAL_FANS = (
    hexagon(),
    hirzebruch(0),
    hirzebruch(1),
    hirzebruch(2),
    hirzebruch(3),
    projective_space(2),
    projective_space(3),
    projective_space(4),
    p1_cubed(),
    blown_up_p3(),
)


@st.composite
def differential_divisors(draw):
    """(fan, coefficients): ints in -3..3 or Fractions p/q with q <= 3 (often
    empty or lower-dimensional), or a multiple of the all-ones divisor moved
    by a character and perturbed on one ray (full-dimensional or nearly)."""
    fan = draw(st.sampled_from(DIFFERENTIAL_FANS))
    n = len(fan.rays)
    if draw(st.booleans()):
        entry = st.one_of(
            st.integers(-3, 3), st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))
        )
        return fan, draw(st.lists(entry, min_size=n, max_size=n))
    c = draw(st.integers(1, 3))
    u = draw(st.lists(st.integers(-2, 2), min_size=fan.dim, max_size=fan.dim))
    coeffs = [c + sum(a * b for a, b in zip(u, ray)) for ray in fan.rays]
    k = draw(st.integers(0, n - 1))
    coeffs[k] += draw(st.sampled_from((0, -c, Fraction(-c, 2), Fraction(1, 3))))
    return fan, coeffs


def _outcome(weights_of, fan, coeffs):
    try:
        return weights_of(fan, coeffs).weights
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=250, deadline=None)
@given(case=differential_divisors())
def test_weights_match_the_fraction_reference(case):
    fan, coeffs = case
    assert _outcome(weights_from_divisor, fan, coeffs) == _outcome(
        polytope_reference.weights_from_divisor, fan, coeffs
    )


def test_weights_match_the_fraction_reference_on_degenerate_divisors():
    cases = [
        (P2_FAN, (-1, -1, -1)),  # empty
        (P2_FAN, (0, 0, 0)),  # a point
        (P2_FAN, (Fraction(-1, 2), Fraction(1, 3), Fraction(1, 6))),  # a point
        (hirzebruch(0), (0, 1, 0, 0)),  # a segment
        (hirzebruch(0), (Fraction(1, 2), 1, Fraction(-1, 2), 0)),  # a segment
        (projective_space(3), (1, 0, 0, -1)),  # a point
        (projective_space(4), (1, 0, 0, -1, -1)),  # empty
        (p1_cubed(), (1, 0, 0, 0, 1, -1)),  # a segment
        (p1_cubed(), (0, 0, 1, 0, 1, 0)),  # a square
        (p1_cubed(), (1, -1, 0, 0, 1, -2)),  # empty
        (blown_up_p3(), (0, 0, 0, 0, -1)),  # empty
    ]
    for fan, coeffs in cases:
        got = _outcome(weights_from_divisor, fan, coeffs)
        assert got == _outcome(polytope_reference.weights_from_divisor, fan, coeffs)
        assert got[0] is PolarizationError


# one fan object each, shared by every example: their facet tables stay warm
WARM_FANS = (
    hexagon(),
    hirzebruch(0),
    hirzebruch(1),
    hirzebruch(2),
    hirzebruch(3),
    projective_space(3),
    projective_space(4),
    p1_cubed(),
    blown_up_p3(),
)


def _cold_copy(fan):
    return Fan(fan.dim, fan.rays, fan.max_cones)


@st.composite
def divisor_runs(draw):
    """(a fan of WARM_FANS, divisors on it): ints in -3..3 or Fractions p/q
    with q <= 3, so that empty and lower-dimensional polytopes are common."""
    fan = draw(st.sampled_from(WARM_FANS))
    entry = st.one_of(
        st.integers(-3, 3), st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))
    )
    n = len(fan.rays)
    return fan, draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=4))


@settings(max_examples=150, deadline=None)
@given(case=divisor_runs())
def test_weights_on_a_warm_facet_table_match_a_cold_one(case):
    """Divisors one after another on the same fan read the table the
    earlier ones filled; each answer, weights or error message, is the one
    a fresh fan gives."""
    fan, divisors = case
    for coeffs in divisors:
        assert _outcome(weights_from_divisor, fan, coeffs) == _outcome(
            weights_from_divisor, _cold_copy(fan), coeffs
        )


def test_degenerate_divisors_on_a_warm_facet_table_keep_their_messages():
    cases = [
        (WARM_FANS[1], (0, 1, 0, 0), "lower-dimensional"),  # a segment
        (WARM_FANS[5], (1, 0, 0, -1), "lower-dimensional"),  # a point
        (WARM_FANS[6], (1, 0, 0, -1, -1), "empty"),
        (WARM_FANS[7], (0, 0, 1, 0, 1, 0), "lower-dimensional"),  # a square
        (WARM_FANS[7], (1, -1, 0, 0, 1, -2), "empty"),
        (WARM_FANS[8], (0, 0, 0, 0, -1), "empty"),
    ]
    for fan, coeffs, kind in cases:
        weights_from_divisor(fan, (1,) * len(fan.rays))
        warm = _outcome(weights_from_divisor, fan, coeffs)
        assert warm == _outcome(weights_from_divisor, _cold_copy(fan), coeffs)
        assert warm == (PolarizationError, f"divisor polytope is {kind}; weights undefined")


def test_the_second_divisor_on_a_fan_computes_no_lattice_frame(monkeypatch):
    calls = []

    def counted(v, d):
        calls.append(v)
        return lattice_frame(v, d)

    monkeypatch.setattr(stability_module, "lattice_frame", counted)
    fans = [hexagon(), hirzebruch(0), hirzebruch(3), projective_space(3),
            projective_space(5), p1_cubed(), blown_up_p3()]
    for fan in fans:
        n = len(fan.rays)
        calls.clear()
        weights_from_divisor(fan, (1,) * n)
        first = len(calls)
        assert first > 0
        weights_from_divisor(fan, (2,) + (3,) * (n - 1))
        assert len(calls) == first
        # a fresh fan of the same rays starts from an empty table
        weights_from_divisor(_cold_copy(fan), (2,) + (3,) * (n - 1))
        assert len(calls) == 2 * first


def test_full_dimensional_divisors_enumerate_no_vertices(monkeypatch):
    calls = []
    original = HPolytope.vertices

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(HPolytope, "vertices", counted)
    for fan in DIFFERENTIAL_FANS:
        weights_from_divisor(fan, (1,) * len(fan.rays))
        weights_from_divisor(fan, (Fraction(1, 2),) * len(fan.rays))
    assert calls == []
    with pytest.raises(PolarizationError, match="empty"):
        weights_from_divisor(P2_FAN, (-1, -1, -1))
    assert len(calls) == 1


def test_positive_weights_on_a_validated_fan_reuse_its_positive_span(monkeypatch):
    fans = [hexagon(), projective_space(3), blown_up_p3()]
    for fan in fans:
        validate_fan(fan)
    calls = []

    def counted(vectors, dim):
        calls.append(len(vectors))
        return positively_spans(vectors, dim)

    monkeypatch.setattr(fan_module, "positively_spans", counted)
    # stability tests zero weights by a rank; this catches a call if it returns
    monkeypatch.setattr(stability_module, "positively_spans", counted, raising=False)
    for fan in fans:
        pol = weights_from_divisor(fan, (1,) * len(fan.rays))
        assert all(t > 0 for t in pol.weights)
        validate_polarization(fan, [2 * t for t in pol.weights])
    assert calls == []
    # a zero weight leaves a smaller ray set, which is tested by its rank
    validate_polarization(fans[0], (1, 0, 1, 1, 0, 1))
    with pytest.raises(PolarizationError, match="positively span"):
        validate_polarization(fans[0], (1, 0, 0, 1, 0, 0))
    assert calls == []


def test_validate_polarization_accepts_uniform():
    pol = validate_polarization(P2_FAN, (1, 1, 1))
    assert pol.weights == (1, 1, 1)


def test_validate_polarization_rejects_floats():
    with pytest.raises(TypeError):
        validate_polarization(P2_FAN, (1.0, 1, 1))
    with pytest.raises(TypeError):
        validate_polarization(P2_FAN, iter((1, 1, 0.5)))


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


def test_check_stability_rejects_malformed_polarizations(documents):
    """Too few weights, too many, or sum t_i v_i != 0 raise instead of being
    truncated or read modulo principal divisors; every fixture's validated
    polarization is accepted."""
    bundle = documents["p2_tangent"].bundle
    for weights in ((1, 1), (1, 1, 1, 1), (1, 2, 1)):
        with pytest.raises(PolarizationError):
            check_stability(bundle, Polarization(tuple(map(Fraction, weights))))
    for doc in documents.values():
        pol = validate_polarization(doc.bundle.fan, doc.polarization().weights)
        assert check_stability(doc.bundle, pol) == check_stability(doc.bundle, doc.polarization())


def test_check_stability_and_validate_polarization_share_one_guard(documents):
    """A float, a wrong count, a negative weight or a balance defect raise
    the same error with the same message from both."""
    bundle = documents["p2_tangent"].bundle
    for weights in ((1.0, 1.0, 1.0), (1, 1), (1, 1, 1, 1), (-1, 1, 1), (1, 2, 1),
                    (Fraction(1, 2), 1, 1)):
        with pytest.raises((TypeError, PolarizationError)) as checked:
            check_stability(bundle, Polarization(weights))
        with pytest.raises(checked.type, match=re.escape(str(checked.value))):
            validate_polarization(bundle.fan, weights)


def _zero_sums(fan):
    """Index tuples of the fan's opposite ray pairs and zero-sum ray triples."""
    return [
        c for k in (2, 3) for c in combinations(range(len(fan.rays)), k)
        if not any(map(sum, zip(*(fan.rays[i] for i in c))))
    ]


@st.composite
def balanced_weights_with_zeros(draw):
    """(fan, weights): a nonnegative combination of the fan's opposite ray
    pairs and zero-sum ray triples, so balanced, and often zero on some rays."""
    fan = draw(st.sampled_from([f for f in DIFFERENTIAL_FANS if _zero_sums(f)]))
    weights = [0] * len(fan.rays)
    for c in _zero_sums(fan):
        share = draw(st.sampled_from((0, 0, 1, 2, Fraction(1, 2))))
        for i in c:
            weights[i] += share
    return fan, weights


@settings(max_examples=150, deadline=None)
@given(case=balanced_weights_with_zeros())
def test_validate_polarization_matches_the_reference_on_balanced_weights(case):
    fan, weights = case
    assert _outcome(validate_polarization, fan, weights) == _outcome(
        polytope_reference.validate_polarization, fan, weights
    )


def test_check_stability_rejects_negative_and_all_zero_weights(documents):
    """Both are balanced, so the balance test alone let them through: on
    p2_tangent they read as unstable (mu = -3/2) and as semistable (mu = 0)."""
    bundle = documents["p2_tangent"].bundle
    for weights in ((-1, -1, -1), (Fraction(-1, 2),) * 3, (2, -1, 0)):
        with pytest.raises(PolarizationError, match="nonnegative"):
            check_stability(bundle, Polarization(weights))
    for weights in ((0, 0, 0), (Fraction(0),) * 3):
        with pytest.raises(PolarizationError, match="all zero"):
            check_stability(bundle, Polarization(weights))


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


def _tensor(u, w):
    """u (x) w in C^3 (x) C^3, with e_a (x) e_b at index 3a + b."""
    return [x * y for x in u for y in w]


@pytest.fixture(scope="module")
def tangent_tensor_square():
    """T (x) T on P^3 at unit weights, from its flags: on the ray v, the full
    fiber at level 0, v (x) C^3 + C^3 (x) v at level 1 and v (x) v at level 2.
    Returns (bundle, polarization, report, Sym^2 T)."""
    fan = projective_space(3)
    units = [tuple(int(i == j) for j in range(3)) for i in range(3)]
    filts = []
    for v in fan.rays:
        middle = [_tensor(v, u) for u in units] + [_tensor(u, v) for u in units]
        filts.append(Filtration(9, [
            (0, Subspace.full(9)), (1, span(middle, 9)), (2, span([_tensor(v, v)], 9)),
        ]))
    bundle = ToricBundle(fan, 9, filts)
    pol = validate_polarization(fan, (1, 1, 1, 1))
    sym = span([
        [x + y for x, y in zip(_tensor(u, w), _tensor(w, u))]
        for a, u in enumerate(units) for w in units[a:]
    ], 9)
    return bundle, pol, check_stability(bundle, pol), sym


def test_tangent_tensor_square_has_a_slope_mu_subspace_off_the_flats(tangent_tensor_square):
    bundle, pol, report, sym = tangent_tensor_square
    assert len(proper_nonzero_flats(bundle_ground_set(bundle))) == 10777
    assert report.mu == Fraction(8, 3)
    assert sym.dim == 6 and slope(bundle, sym, pol) == Fraction(8, 3) == report.mu


@pytest.mark.xfail(
    strict=True,
    reason="T (x) T = Sym^2 T + wedge^2 T, and Sym^2 T, of slope mu, is not a flat: "
    "the flats alone call this bundle stable",
)
def test_tangent_tensor_square_is_not_stable(tangent_tensor_square):
    _, _, report, _ = tangent_tensor_square
    assert not report.stable


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
