"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. Every
comparison is exact rational equality; there are no tolerances anywhere.
"""
import contextlib
import io
import json
import random
from fractions import Fraction


from conftest import FIXTURE_NAMES, fixture_path
from subspace_reference import brute_force_max_slope

from toricbundles import load_document
from toricbundles.bundle import tangent_bundle, twist_by_divisor
from toricbundles.cli import main
from toricbundles.fan import Fan, validate_fan, walls
from toricbundles.linalg import Subspace, span
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
from toricbundles.parliament import is_globally_generated, parliament, reconstruct_filtrations
from toricbundles.stability import (
    check_stability,
    restrict_to_curve,
    slope,
    tangent_weight_condition,
    validate_polarization,
    weights_from_divisor,
)


def _criterion(number, label, body):
    try:
        body()
    except BaseException:
        print(f"criterion {number:02d} [{label}]: FAIL")
        raise
    print(f"criterion {number:02d} [{label}]: PASS")


def _run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in args])
    return code, out.getvalue(), err.getvalue()


def _doc(name):
    return load_document(fixture_path(name))


def test_criterion_01_tangent_p2_stable():
    def body():
        code, out, _ = _run_cli(["check", fixture_path("p2_tangent")])
        assert code == 0 and out.startswith("STABLE")
        doc = _doc("p2_tangent")
        report = check_stability(doc.bundle, doc.polarization())
        assert report.stable
        assert report.mu == Fraction(3, 2)
        slopes = [fs.slope for fs in report.flat_slopes]
        assert len(slopes) == 3 and all(s == 1 for s in slopes)

    _criterion(1, "tangent of P2 stable, mu = 3/2, flats at 1", body)


def test_criterion_02_split_semistable_not_stable():
    def body():
        doc = _doc("p2_sum_three")
        report = check_stability(doc.bundle, doc.polarization())
        assert report.semistable and not report.stable
        assert report.mu == 1
        from toricbundles.stability import Order

        assert all(fs.slope <= 1 for fs in report.flat_slopes)
        assert any(fs.relation is Order.EQUAL for fs in report.flat_slopes)

    _criterion(2, "split bundle semistable, mu = 1", body)


def test_criterion_03_blowup_polystable_slopes():
    def body():
        doc = _doc("blp2_sum")
        report = check_stability(doc.bundle, doc.polarization())
        assert report.mu == 5
        rank1 = [fs.slope for fs in report.flat_slopes if fs.flat.rank == 1]
        assert rank1 == [5, 5]

    _criterion(3, "blowup sum: both rank-1 flats at slope 5 = mu", body)


def test_criterion_04_weights_from_divisors():
    def body():
        p2 = _doc("p2_tangent").fan
        assert weights_from_divisor(p2, (1, 0, 0)).weights == (1, 1, 1)
        bl = _doc("blp2_sum").fan
        assert weights_from_divisor(bl, (0, 2, 0, -1)).weights == (1, 2, 1, 1)

    _criterion(4, "divisor weights (1,1,1) and (1,2,1,1)", body)


def test_criterion_05_restriction_degrees():
    def body():
        doc = _doc("blp2_sum")
        wall = walls(doc.fan)[0]
        assert wall.tau == (0,)
        report = restrict_to_curve(doc.bundle, wall)  # pairing verified inside
        assert report.degrees == (1, 2)
        assert not report.semistable

    _criterion(5, "restriction degrees {1,2}, not semistable", body)


def test_criterion_06_ground_set_sizes():
    def body():
        assert len(bundle_ground_set(_doc("p2_tangent").bundle)) == 3
        assert len(bundle_ground_set(_doc("p2_sum_d0_d12").bundle)) == 2
        assert len(bundle_ground_set(_doc("p2_rank3").bundle)) == 6

    _criterion(6, "ground sets of sizes 3, 2, 6", body)


def test_criterion_07_flat_compatibility():
    def body():
        split = _doc("p2_sum_d0_d12").bundle
        gs = bundle_ground_set(split)
        e2 = gs.index_of_line((0, 1))
        ok, _ = is_compatible_flat(split, closure(gs, (e2,)))
        assert ok

        tan = _doc("p2_tangent").bundle
        gs_t = bundle_ground_set(tan)
        for flat in proper_nonzero_flats(gs_t):
            ok, _ = is_compatible_flat(tan, flat)
            assert not ok

        r3 = _doc("p2_rank3").bundle
        f_space = span([(1, 0, 0), (0, 0, 1)], 3)
        assert is_subbundle(r3, f_space)
        gs3 = bundle_ground_set(r3)
        want = {
            gs3.index_of_line((1, 0, 0)),
            gs3.index_of_line((0, 0, 1)),
            gs3.index_of_line((1, 0, -1)),
        }
        assert set(closure(gs3, gs3.indices_in(f_space)).indices) == want

    _criterion(7, "compatible flats and the rank-3 subbundle", body)


def test_criterion_08_tangent_pd_stable():
    def body():
        for name in ("p2_tangent", "p3_tangent"):
            doc = _doc(name)
            pol = validate_polarization(doc.fan, [1] * len(doc.fan.rays))
            report = check_stability(doc.bundle, pol)  # the general checker
            assert report.stable

    _criterion(8, "tangent of P^d stable for uniform weights, d = 2, 3", body)


def test_criterion_09_reduction_to_flats():
    def body():
        for name in FIXTURE_NAMES:
            doc = _doc(name)
            pol = doc.polarization()
            probe = brute_force_max_slope(doc.bundle, pol, samples=200, seed=0)
            gs = bundle_ground_set(doc.bundle)
            flats = proper_nonzero_flats(gs)
            if not flats:
                assert probe is None or doc.bundle.rank == 1
                continue
            flat_max = max(slope(doc.bundle, f.subspace, pol) for f in flats)
            assert probe is not None and probe <= flat_max

    _criterion(9, "random subspace slopes never beat flat slopes", body)


def _unimodular_p2_fans():
    mats = (
        ((1, 0), (0, 1)),
        ((1, 1), (0, 1)),
        ((1, 0), (1, 1)),
        ((2, 1), (1, 1)),
        ((1, -1), (0, 1)),
    )
    base = ((-1, -1), (1, 0), (0, 1))
    fans = []
    for m in mats:
        rays = [
            (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])
            for v in base
        ]
        fans.append(Fan(2, rays, [(0, 1), (0, 2), (1, 2)]))
    return fans


def test_criterion_10_weight_shortcut_equivalence_dim2():
    def body():
        # every smooth complete toric surface other than P2 has opposite
        # rays, so the five fans are unimodular images of the P2 fan; their
        # balanced weights form a single ray of the weight cone
        fans = _unimodular_p2_fans()
        assert len(fans) >= 5
        rng = random.Random(10)
        mismatches = 0
        for fan in fans:
            assert validate_fan(fan).passed
            bundle = tangent_bundle(fan)
            scales = set()
            while len(scales) < 20:
                scales.add(Fraction(rng.randint(1, 40), rng.randint(1, 12)))
            for lam in sorted(scales):
                pol = validate_polarization(fan, (lam, lam, lam))
                lhs = tangent_weight_condition(fan, pol)
                rhs = check_stability(bundle, pol).semistable
                if lhs != rhs:
                    mismatches += 1
        assert mismatches == 0

    _criterion(10, "weight condition matches semistability on surfaces", body)


def test_criterion_11_twist_and_scaling_invariance():
    def body():
        rng = random.Random(11)
        for name in FIXTURE_NAMES:
            doc = _doc(name)
            pol = doc.polarization()
            base = check_stability(doc.bundle, pol)
            base_key = (
                base.stable,
                base.semistable,
                None if base.witness is None else base.witness.indices,
            )
            for _ in range(10):
                a = [rng.randint(-3, 3) for _ in doc.fan.rays]
                rep = check_stability(twist_by_divisor(doc.bundle, a), pol)
                assert (
                    rep.stable,
                    rep.semistable,
                    None if rep.witness is None else rep.witness.indices,
                ) == base_key
            for _ in range(5):
                lam = Fraction(rng.randint(1, 30), rng.randint(1, 10))
                scaled = validate_polarization(
                    doc.fan, [lam * t for t in pol.weights]
                )
                rep = check_stability(doc.bundle, scaled)
                assert (
                    rep.stable,
                    rep.semistable,
                    None if rep.witness is None else rep.witness.indices,
                ) == base_key

    _criterion(11, "verdicts invariant under twists and weight scaling", body)


def test_criterion_12_reconstruction_round_trip():
    def body():
        covered = 0
        for name in FIXTURE_NAMES:
            doc = _doc(name)
            if not is_globally_generated(doc.bundle):
                continue
            covered += 1
            parl = parliament(doc.bundle)
            recovered = reconstruct_filtrations(parl, doc.fan, doc.bundle.rank)
            assert recovered == doc.bundle.filtrations
        assert covered >= 7

    _criterion(12, "parliament reconstruction round-trips exactly", body)


def test_criterion_13_traversal_invariance():
    def body():
        for name in FIXTURE_NAMES:
            doc = _doc(name)
            pol = doc.polarization()
            lat = build_lattice(doc.bundle)
            base = ground_set(lat)
            base_flats = {
                (f.rank, frozenset(base.vectors[i] for i in f.indices))
                for f in enumerate_flats(base)
            }
            mu = slope(doc.bundle, Subspace.full(doc.bundle.rank), pol)

            def verdicts(gs):
                slopes = [
                    slope(doc.bundle, f.subspace, pol)
                    for f in proper_nonzero_flats(gs)
                ]
                return (
                    all(s < mu for s in slopes),
                    all(s <= mu for s in slopes),
                )

            base_verdicts = verdicts(base)
            for seed in range(100):
                shuffled = ground_set(lat, shuffle=random.Random(seed))
                assert len(shuffled) == len(base)
                got = {
                    (f.rank, frozenset(shuffled.vectors[i] for i in f.indices))
                    for f in enumerate_flats(shuffled)
                }
                assert got == base_flats
                assert verdicts(shuffled) == base_verdicts

    _criterion(13, "traversal order changes nothing observable", body)


def test_criterion_14_byte_determinism():
    def body():
        for name in FIXTURE_NAMES:
            runs = [
                _run_cli(
                    ["check", fixture_path(name), "--format", "json", "--seed", "7"]
                )
                for _ in range(2)
            ]
            assert runs[0][0] == 0
            assert runs[0] == runs[1]
            json.loads(runs[0][1])  # reports parse back

    _criterion(14, "json check output is byte-identical", body)
