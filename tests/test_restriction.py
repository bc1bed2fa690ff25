"""Curve restrictions against closed forms and against additivity.

On the invariant curve C_tau of a wall tau = sigma n sigma', with extra rays
a and b, the wall relation v_a + v_b + sum_{t in tau} x_t v_t = 0 gives the
intersection numbers D_a.C = D_b.C = 1, D_t.C = x_t, and D_i.C = 0 for every
other ray. The relation is solved here on sigma's rays, which form a basis.
"""
import json
import random
from collections import Counter
from fractions import Fraction
from operator import mul

from generators import blown_up_p3, hexagon, hirzebruch, p1_cubed, projective_space
from hypothesis import given, settings
from hypothesis import strategies as st
from subspace_reference import matrix_rank, rref_solve
from test_io_cli import run_cli
from test_rank_oracle import SURFACE_KINDS, flag_bundles_on, surface

from toricbundles.bundle import (
    Filtration,
    ToricBundle,
    check_compatibility,
    direct_sum,
    line_bundle,
    tangent_bundle,
)
from toricbundles.fan import walls
from toricbundles.linalg import span
from toricbundles.stability import restrict_to_curve

GENERATED_FANS = {
    "hexagon": hexagon(),
    **{f"H_{a}": hirzebruch(a) for a in range(4)},
    **{f"P^{d}": projective_space(d) for d in (2, 3, 4)},
    "(P^1)^3": p1_cubed(),
    "Bl_pt P^3": blown_up_p3(),
}


def curve_degrees(fan, wall):
    """D_i.C_tau for every ray i, from the wall relation."""
    cone = fan.max_cones[wall.sigma]
    matrix = [[fan.rays[s][k] for s in cone] for k in range(fan.dim)]
    x = rref_solve(matrix, [-c for c in fan.rays[wall.extra_sigma_prime]])
    coefficient = dict(zip(cone, x))
    assert coefficient.pop(wall.extra_sigma) == 1
    degrees = [0] * len(fan.rays)
    degrees[wall.extra_sigma] = degrees[wall.extra_sigma_prime] = 1
    for t, x_t in coefficient.items():
        assert x_t.denominator == 1
        degrees[t] = int(x_t)
    return degrees


def test_tangent_bundle_restrictions_match_the_closed_form():
    """T_X|C_tau = O(2) + sum_{t in tau} O(D_t.C_tau), and T_X + T_X has
    every summand twice: 124 restrictions over the generated fans."""
    count = 0
    for name, fan in GENERATED_FANS.items():
        tangent = tangent_bundle(fan)
        doubled = direct_sum(tangent, tangent)
        for wall in walls(fan):
            degrees = curve_degrees(fan, wall)
            want = sorted([2] + [degrees[t] for t in wall.tau])
            got = restrict_to_curve(tangent, wall).degrees
            assert got == tuple(want), (name, wall)
            assert restrict_to_curve(doubled, wall).degrees == tuple(sorted(want * 2)), (name, wall)
            count += 2
    assert count == 124


def test_line_bundle_restrictions_are_the_intersection_numbers():
    """O(sum a_i D_i)|C_tau has degree sum_i a_i D_i.C_tau = a_a + a_b +
    sum_{t in tau} x_t a_t: 310 restrictions, five seeded line bundles with
    coefficients in [-3, 3] on each generated fan."""
    rng = random.Random(5)
    count = 0
    for name, fan in GENERATED_FANS.items():
        for _ in range(5):
            a = [rng.randint(-3, 3) for _ in fan.rays]
            bundle = line_bundle(fan, a)
            for wall in walls(fan):
                degree = sum(map(mul, a, curve_degrees(fan, wall)))
                assert restrict_to_curve(bundle, wall).degrees == (degree,), (name, a, wall)
                count += 1
    assert count == 310


def test_tangent_plus_trivial_on_p2():
    fan = projective_space(2)
    bundle = direct_sum(tangent_bundle(fan), line_bundle(fan, (0, 0, 0)))
    for wall in walls(fan):
        report = restrict_to_curve(bundle, wall)
        assert report.degrees == (0, 1, 2)
        assert not report.semistable


def _c1(bundle):
    """Divisor coefficients of det E: each ray's thresholds times their
    dimension drops."""
    coeffs = []
    for filt in bundle.filtrations:
        dims = [sp.dim for _, sp in filt.steps] + [0]
        coeffs.append(sum(j * (d - d_next) for (j, _), d, d_next in zip(filt.steps, dims, dims[1:])))
    return coeffs


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_restriction_is_additive_and_has_degree_c1(data):
    fan = surface(data.draw(st.sampled_from(SURFACE_KINDS)))
    e, _ = data.draw(flag_bundles_on(fan, data.draw(st.integers(1, 3))))
    f, _ = data.draw(flag_bundles_on(fan, data.draw(st.integers(1, 3))))
    total = direct_sum(e, f)
    c1_total = _c1(total)
    for wall in walls(fan):
        degrees = restrict_to_curve(total, wall).degrees
        parts = restrict_to_curve(e, wall).degrees + restrict_to_curve(f, wall).degrees
        assert degrees == tuple(sorted(parts))
        assert sum(degrees) == sum(map(int.__mul__, c1_total, curve_degrees(fan, wall)))


def test_cli_restrict_tangent_square_in_another_basis(tmp_path):
    """T + T on P^2 with the fiber C^2 (x) C^2: the plane of ray v is
    v (x) C^2."""
    planes = [[[1, 0, 0, 0], [0, 1, 0, 0]],
              [[0, 0, 1, 0], [0, 0, 0, 1]],
              [[1, 0, 1, 0], [0, 1, 0, 1]]]
    doc = {
        "schema_version": 1,
        "fan": {"dim": 2, "rays": [[1, 0], [0, 1], [-1, -1]],
                "max_cones": [[0, 1], [0, 2], [1, 2]]},
        "bundle": {"rank": 4, "filtrations": [
            {"steps": [{"max_j": 0, "space": "full"}, {"max_j": 1, "space": plane}]}
            for plane in planes
        ]},
    }
    path = tmp_path / "tangent_square.json"
    path.write_text(json.dumps(doc))
    for k in range(3):
        code, out, err = run_cli(["restrict", path, "--wall", k])
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == "degrees: [1, 1, 2, 2]; restriction NOT semistable"


def test_split_bundles_on_threefolds_restrict_to_their_summands():
    """A random rational basis b of Q^r, r in 2..4, with a level in -2..2
    per basis vector per ray, and E_i(t) the span of the b with level >= t,
    is the sum of the line bundles O(sum_i level_i(b) D_i). So it restricts
    to their degrees: 200 seeded bundles on P^3 with shuffled rays, (P^1)^3
    and Bl_pt P^3. Flags on 3-d fans meet in special position, and at least
    100 of the restrictions pair a tau-class of two or more lines."""
    rng = random.Random(0)
    restrictions = shared = 0
    for _ in range(200):
        fan = rng.choice([
            lambda: projective_space(3, rng.sample(range(4), 4)), p1_cubed, blown_up_p3,
        ])()
        rank = rng.randint(2, 4)
        basis = []
        while len(basis) < rank:
            v = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rank))
            if matrix_rank(basis + [v], rank) == len(basis) + 1:
                basis.append(v)
        levels = [[rng.randint(-2, 2) for _ in fan.rays] for _ in basis]
        bundle = ToricBundle(fan, rank, [
            Filtration(rank, [
                (t, span([b for b, lv in zip(basis, levels) if lv[i] >= t], rank))
                for t in sorted({lv[i] for lv in levels})
            ])
            for i in range(len(fan.rays))
        ])
        sheet = check_compatibility(bundle)
        for wall in walls(fan):
            degrees = curve_degrees(fan, wall)
            want = sorted(sum(map(mul, lv, degrees)) for lv in levels)
            assert restrict_to_curve(bundle, wall).degrees == tuple(want), (fan.rays, wall)
            cone = fan.max_cones[wall.sigma]
            tau = [cone.index(t) for t in wall.tau]
            classes = Counter(tuple(row.profile[k] for k in tau) for row in sheet.rows[wall.sigma])
            restrictions += 1
            shared += max(classes.values()) > 1
    assert shared >= 100, (shared, restrictions)
