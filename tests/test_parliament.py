import json
import random
from fractions import Fraction

import pytest

from toricbundles.bundle import (
    line_bundle,
    tangent_bundle,
    twist_by_character,
)
from toricbundles.fan import Fan
from toricbundles.linalg import Subspace, dot, span
from toricbundles.matroid import bundle_ground_set
from toricbundles.parliament import (
    NotGloballyGeneratedError,
    average_polytope,
    is_globally_generated,
    parliament,
    polytope_of,
    reconstruct_filtrations,
)
from toricbundles.polytopes import HPolytope, newton_polytope

P2_FAN = Fan(2, [(-1, -1), (1, 0), (0, 1)], [(0, 1), (0, 2), (1, 2)])


def _pts(pairs):
    return tuple(sorted(tuple(Fraction(x) for x in p) for p in pairs))


def _translate(p, u):
    """P + u: bounds c_i + <u, v_i>."""
    return HPolytope(p.rays, [c + dot(u, v) for c, v in zip(p.bounds, p.rays)])


def test_polytope_of_tangent_v1(p2_tangent):
    p = polytope_of(p2_tangent.bundle, (1, 0))
    assert p.bounds == (0, 1, 0)
    assert p.vertices() == _pts([(0, 0), (1, 0), (1, -1)])


def test_polytope_of_split_e1(documents):
    bundle = documents["p2_sum_d0_d12"].bundle
    # e1 survives to level 1 on rays 1 and 2: the triangle (1,1),(-1,1),(1,-1)
    p = polytope_of(bundle, (1, 0))
    assert p.vertices() == _pts([(1, 1), (-1, 1), (1, -1)])


def test_polytope_of_negative_line_bundle_is_empty():
    bundle = line_bundle(P2_FAN, (-1, 0, 0))
    p = polytope_of(bundle, (1,))
    assert p.is_empty()


def test_polytope_of_rejects_zero_vector(p2_tangent):
    with pytest.raises(ValueError):
        polytope_of(p2_tangent.bundle, (0, 0))


def test_parliament_tangent_annotations(p2_tangent):
    parl = parliament(p2_tangent.bundle)
    assert len(parl.entries) == 3
    gs = parl.ground_set
    v1 = gs.index_of_line((1, 0))
    v2 = gs.index_of_line((0, 1))
    ci = p2_tangent.fan.max_cones.index((1, 2))
    cone_marks = {m.character: m.entry for m in parl.marks if m.cone_index == ci}
    assert cone_marks == {(1, 0): v1, (0, 1): v2}
    assert not any(m.flagged for m in parl.marks)


def test_parliament_blowup_sum(blp2_sum):
    parl = parliament(blp2_sum.bundle)
    polys = {
        tuple(parl.ground_set.vectors[e.index]): e.polytope for e in parl.entries
    }
    quad_a = polys[(Fraction(1), Fraction(0))]  # the 4D0 + D3 summand
    assert quad_a.vertices() == _pts([(0, 0), (-1, 0), (-1, -3), (0, -4)])
    quad_b = polys[(Fraction(0), Fraction(1))]
    assert quad_b.vertices() == _pts([(1, 0), (3, 0), (3, -3), (1, -1)])


def test_parliament_rank1_is_newton_polytope():
    bundle = line_bundle(P2_FAN, (1, 0, 0))
    parl = parliament(bundle)
    assert len(parl.entries) == 1
    assert parl.entries[0].polytope.bounds == newton_polytope(P2_FAN, (1, 0, 0)).bounds


def test_hyperplane_usage_once_per_cone(documents):
    # per cone and ray, the multiset of jump levels used by the characters
    # equals the filtration's full jump multiset
    from toricbundles.bundle import check_compatibility

    for name in ("p2_tangent", "p2_rank3", "blp2_sum", "p3_tangent"):
        bundle = documents[name].bundle
        sheet = check_compatibility(bundle)
        for ci, cone in enumerate(bundle.fan.max_cones):
            for k, ray_index in enumerate(cone):
                used = tuple(sorted(r.profile[k] for r in sheet.rows[ci]))
                expected = bundle.filtrations[ray_index].jump_multiset(
                    Subspace.full(bundle.rank)
                )
                assert used == expected


def test_average_polytope_tangent_full(p2_tangent):
    avg = average_polytope(p2_tangent.bundle, Subspace.full(2))
    assert avg.bounds == (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    assert avg.vertices() == _pts(
        [(Fraction(1, 2), Fraction(1, 2)), (-1, Fraction(1, 2)), (Fraction(1, 2), -1)]
    )


def test_average_polytope_rank1_flat_is_newton_of_d1(p2_tangent):
    avg = average_polytope(p2_tangent.bundle, span([(1, 0)], 2))
    assert avg.bounds == newton_polytope(P2_FAN, (0, 1, 0)).bounds


def test_average_polytope_split_three(documents):
    bundle = documents["p2_sum_three"].bundle
    avg = average_polytope(bundle, Subspace.full(3))
    assert avg.bounds == (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))


def test_average_polytope_of_rank1_flats_equals_generator_polytope(documents):
    for name, doc in documents.items():
        bundle = doc.bundle
        gs = bundle_ground_set(bundle)
        from toricbundles.matroid import proper_nonzero_flats

        for flat in proper_nonzero_flats(gs):
            if flat.rank != 1:
                continue
            gen = gs.vectors[flat.indices[0]]
            assert average_polytope(bundle, flat.subspace).bounds == polytope_of(
                bundle, gen
            ).bounds


def test_average_polytope_rejects_zero():
    bundle = tangent_bundle(P2_FAN)
    with pytest.raises(ValueError):
        average_polytope(bundle, Subspace.zero(2))


def test_translation_covariance_under_twists(documents):
    rng = random.Random(5)
    for name in ("p2_tangent", "p2_rank3"):
        bundle = documents[name].bundle
        gs = bundle_ground_set(bundle)
        for _ in range(5):
            u = (rng.randint(-3, 3), rng.randint(-3, 3))
            twisted = twist_by_character(bundle, u)
            for g in gs.vectors:
                base = polytope_of(bundle, g)
                moved = polytope_of(twisted, g)
                assert moved.bounds == _translate(base, u).bounds
                assert moved.vertices() == _translate(base, u).vertices()


def test_globally_generated_examples(documents):
    assert is_globally_generated(documents["p2_tangent"].bundle)
    assert is_globally_generated(line_bundle(P2_FAN, (0, 0, 0)))
    assert not is_globally_generated(line_bundle(P2_FAN, (-1, 0, 0)))
    # Hirzebruch tangent bundles are not globally generated
    assert not is_globally_generated(documents["hirzebruch_h2_tangent"].bundle)


def test_reconstruction_round_trip(documents):
    for name in (
        "p2_tangent",
        "p2_line_d0",
        "p2_sum_d0_d12",
        "p2_sum_three",
        "blp2_sum",
        "p2_rank3",
        "p3_tangent",
    ):
        doc = documents[name]
        parl = parliament(doc.bundle)
        recovered = reconstruct_filtrations(parl, doc.fan, doc.bundle.rank)
        assert recovered == doc.bundle.filtrations


def test_reconstruction_rejects_non_generated():
    bundle = line_bundle(P2_FAN, (-1, 0, 0))
    parl = parliament(bundle)
    with pytest.raises(NotGloballyGeneratedError):
        reconstruct_filtrations(parl, P2_FAN, 1)


def test_parliament_requires_compatibility():
    from toricbundles.bundle import Filtration, IncompatibleBundleError, ToricBundle

    fan = Fan(
        3,
        [(-1, -1, -1), (1, 0, 0), (0, 1, 0), (0, 0, 1)],
        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)],
    )
    full = Subspace.full(2)
    bundle = ToricBundle(
        fan,
        2,
        [Filtration(2, [(0, full)])]
        + [
            Filtration(2, [(0, full), (1, span([v], 2))])
            for v in ((1, 0), (0, 1), (1, 1))
        ],
    )
    with pytest.raises(IncompatibleBundleError):
        parliament(bundle)
    with pytest.raises(IncompatibleBundleError):
        is_globally_generated(bundle)


FLAGGED_MARK = {
    "schema_version": 1,
    "fan": {"dim": 2, "rays": [[-1, -1], [1, 0], [0, 1]], "max_cones": [[0, 1], [0, 2], [1, 2]]},
    "bundle": {
        "rank": 2,
        "filtrations": [
            {"steps": [{"max_j": 0, "space": "full"}, {"max_j": 1, "space": [[0, 1]]}]},
            {"steps": [{"max_j": 0, "space": "full"}, {"max_j": 1, "space": [[-1, 1]]}]},
            {"steps": [{"max_j": 0, "space": "full"}]},
        ],
    },
    "polarization": {"weights": [1, 1, 1]},
}


def test_flagged_mark_falls_back_to_the_least_lattice_element(tmp_path):
    """Cones (0, 2) and (1, 2) split off the line (1, 0), parallel to
    neither ground vector (0, 1), (1, -1). The least lattice element holding
    it is the full fiber, so its flat is both entries, whose span holds the
    line."""
    from test_io_cli import run_cli

    from toricbundles.io import parse_document

    path = tmp_path / "flagged.json"
    path.write_text(json.dumps(FLAGGED_MARK))
    parl = parliament(parse_document(path.read_text()).bundle)
    assert parl.ground_set.vectors == ((0, 1), (1, -1))
    flagged = [(m.cone_index, m.line, m.flat_indices) for m in parl.marks if m.flagged]
    assert flagged == [(1, (1, 0), (0, 1)), (2, (1, 0), (0, 1))]
    code, out, _ = run_cli(["parliament", path])
    assert code == 0
    assert "cone [0, 2]: character [0, 0] -> flat [0, 1]\n" in out
    assert "cone [1, 2]: character [0, 0] -> flat [0, 1]\n" in out
