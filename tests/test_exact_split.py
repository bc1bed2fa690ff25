"""The greedy split decides compatibility exactly: bundles built from one
basis always split, together with every span of part of that basis, and a
bundle whose multiplicities are all nonnegative but which has no compatible
basis is refused without any hedge. Every split meets the sum condition of
the reference, and subbundle verdicts match the reference that re-checks
the sum condition on the witness bases. The CLI --seed flag changes no
result."""
import json
from fractions import Fraction
from itertools import combinations

import pytest
from conftest import FIXTURE_NAMES, fixture_path
from generators import projective_space
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from subspace_reference import is_subbundle as reference_is_subbundle
from subspace_reference import matrix_rank, verify_cone_split
from test_io_cli import run_cli
from test_rank_oracle import flag_bundles

from toricbundles.bundle import (
    Filtration,
    IncompatibilityWitness,
    IncompatibleBundleError,
    ToricBundle,
    _profile_multiplicities,
    _split_cone,
    associated_characters,
    check_compatibility,
)
from toricbundles.io import parse_document
from toricbundles.linalg import span
from toricbundles.matroid import is_subbundle
from toricbundles.stability import check_stability, validate_polarization


@st.composite
def basis_bundles(draw):
    """(bundle, basis): a random rational basis of rank 1-4 on P^3 or P^4
    with shuffled rays, and on each ray a level per basis vector, so
    E_i(j) = span{b : level_i(b) >= j}. Levels come from a short range, so
    many basis vectors jump together."""
    d = draw(st.sampled_from((3, 4)))
    fan = projective_space(d, draw(st.permutations(range(d + 1))))
    rank = draw(st.integers(1, 4))
    entry = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    basis = draw(
        st.lists(st.tuples(*[entry] * rank), min_size=rank, max_size=rank)
    )
    assume(matrix_rank(basis, rank) == rank)
    filts = []
    for _ in fan.rays:
        levels = draw(st.lists(st.integers(-2, 2), min_size=rank, max_size=rank))
        steps = [
            (t, span([b for b, l in zip(basis, levels) if l >= t], rank))
            for t in sorted(set(levels))
        ]
        filts.append(Filtration(rank, steps))
    return ToricBundle(fan, rank, filts), basis


@settings(max_examples=30, deadline=None)
@given(case=basis_bundles())
def test_bundles_split_by_one_basis_are_compatible_with_their_flats(case):
    bundle, basis = case
    sheet = check_compatibility(bundle)
    assert all(len(rows) == bundle.rank for rows in sheet.rows)
    for k in range(bundle.rank + 1):
        for part in combinations(basis, k):
            f_space = span(list(part), bundle.rank)
            for ci in range(len(bundle.fan.max_cones)):
                split = _split_cone(bundle, ci, prefer=f_space)
                assert not isinstance(split, IncompatibilityWitness), split
                assert sum(f_space.contains(v) for _, v in split) == k
                assert verify_cone_split(bundle, ci, split)


@settings(max_examples=20, deadline=None)
@given(case=basis_bundles(), data=st.data())
def test_subbundle_verdicts_match_the_reference(case, data):
    bundle, basis = case
    rank = bundle.rank
    spaces = [
        span(list(part), rank)
        for k in range(1, rank + 1)
        for part in combinations(basis, k)
    ]
    vectors = st.lists(st.integers(-2, 2), min_size=rank, max_size=rank)
    for rows in data.draw(st.lists(st.lists(vectors, min_size=1, max_size=rank), max_size=4)):
        spaces.append(span(rows, rank))
    for f_space in spaces:
        if f_space.dim:
            assert is_subbundle(bundle, f_space) == reference_is_subbundle(bundle, f_space)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_subbundle_verdicts_on_surfaces_match_the_reference(data):
    """Random flags on the hexagon and on Hirzebruch surfaces, where every
    bundle is compatible, against subspaces spanned by the flags' vectors:
    these are often subbundles that are not flats."""
    bundle, _, pool = data.draw(flag_bundles())
    rank = bundle.rank
    for _ in range(3):
        f_space = span(data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=rank)), rank)
        if f_space.dim:
            assert is_subbundle(bundle, f_space) == reference_is_subbundle(bundle, f_space)


# three distinct lines of one plane, each jumping on its own ray of the
# cone (0, 1, 3): every multiplicity is nonnegative, but no basis of three
# lines can contain all three
THREE_LINES_IN_A_PLANE = {
    "schema_version": 1,
    "fan": {
        "dim": 3,
        "rays": [[-1, -1, -1], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "max_cones": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
    },
    "bundle": {
        "rank": 3,
        "filtrations": [
            {"steps": [{"max_j": 0, "space": "full"}, {"max_j": 1, "space": [[0, 1, 0]]}]},
            {"steps": [{"max_j": 0, "space": "full"}, {"max_j": 1, "space": [[0, 1, 1]]}]},
            {"steps": [{"max_j": 0, "space": "full"}]},
            {"steps": [{"max_j": 0, "space": "full"}, {"max_j": 1, "space": [[0, 0, 1]]}]},
        ],
    },
}


def test_incompatible_without_negative_multiplicity_is_exact(tmp_path):
    bundle = parse_document(json.dumps(THREE_LINES_IN_A_PLANE)).bundle
    for cone in bundle.fan.max_cones:
        mult, _ = _profile_multiplicities([bundle.filtrations[i].steps for i in cone])
        assert all(m >= 0 for m in mult.values())
    with pytest.raises(IncompatibleBundleError) as err:
        check_compatibility(bundle)
    witness = err.value.witness
    assert witness.profile is None
    assert witness.cone == (0, 1, 3)
    assert "false negative" not in witness.detail

    path = tmp_path / "three_lines.json"
    path.write_text(json.dumps(THREE_LINES_IN_A_PLANE))
    code, _, _ = run_cli(["validate", path])
    assert code == 2


def test_incompatible_verdict_is_remembered_with_its_witness():
    bundle = parse_document(json.dumps(THREE_LINES_IN_A_PLANE)).bundle
    errors = []
    for ask in [lambda: check_compatibility(bundle)] * 2 + [
        lambda ci=ci: associated_characters(bundle, ci)
        for ci in range(len(bundle.fan.max_cones))
    ]:
        with pytest.raises(IncompatibleBundleError) as err:
            ask()
        errors.append(err.value)
    assert errors[0].witness.cone == (0, 1, 3)
    assert all(e.witness == errors[0].witness for e in errors)
    assert len({id(e) for e in errors}) == len(errors)


def test_incompatible_bundle_builds_no_slope_table():
    bundle = parse_document(json.dumps(THREE_LINES_IN_A_PLANE)).bundle
    pol = validate_polarization(bundle.fan, (1, 1, 1, 1))
    for _ in range(2):
        with pytest.raises(IncompatibleBundleError):
            check_stability(bundle, pol)
    assert bundle._slopes is None


def _without_seed(text):
    doc = json.loads(text)
    doc.pop("seed", None)
    return doc


@pytest.mark.parametrize("command", ["check", "flats", "parliament"])
def test_seed_flag_changes_no_result(command):
    for name in FIXTURE_NAMES:
        runs = [
            run_cli([command, fixture_path(name), "--format", "json", "--seed", seed])
            for seed in (0, 7)
        ]
        (code0, out0, _), (code7, out7, _) = runs
        assert code0 == code7 == 0
        assert _without_seed(out0) == _without_seed(out7)
        assert '"seed": 7' in out7
