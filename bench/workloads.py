"""Seeded inputs for the three benchmark workloads, built as plain data.

Everything here is pure Python on tuples, ints and Fractions: the inputs and
the expected answers are computed without calling the package, so the
checks in ``run.py`` do not rest on the code they measure.
"""
from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations
from math import atan2, tau

FIXTURES = (
    "p2_tangent",
    "p2_line_d0",
    "p2_sum_d0_d12",
    "p2_sum_three",
    "blp2_sum",
    "p2_rank3",
    "p3_tangent",
    "hirzebruch_h2_tangent",
    "hirzebruch_printed_tangent",
)


# ---------------------------------------------------------------------------
# fans as (rays, max_cones)


def projective_space(d):
    rays = [tuple(int(i == j) for j in range(d)) for i in range(d)] + [(-1,) * d]
    return rays, [list(c) for c in combinations(range(d + 1), d)]


def hirzebruch(a):
    return [(1, 0), (0, 1), (-1, a), (0, -1)], [[0, 1], [0, 3], [1, 2], [2, 3]]


def hexagon():
    """Blow-up of P^2 in its three torus-fixed points; rays counterclockwise."""
    rays = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
    return rays, [[i, (i + 1) % 6] for i in range(6)]


def ccw_order(rays):
    """Ray indices of a 2-d fan sorted counterclockwise from the x-axis."""
    return sorted(range(len(rays)), key=lambda i: atan2(rays[i][1], rays[i][0]) % tau)


# ---------------------------------------------------------------------------
# scaling: closed-form family


def scaling_members():
    """(name, rays, cones, copies of T, weights, calls per cycle, expected
    (mu, stable, semistable)).

    T on P^d is stable with mu = (d+1)/d at unit weights; T+T is semistable
    but not stable with the same mu; T+T+T on H_2 at weights (1,1,1,3) is not
    semistable, with mu = (1+1+1+3)/2 = 3.

    Calls per cycle: the cheap members run more often, so each member's
    median rests on several calls. Of the eleven calls a cycle, TT_P4 makes
    the slowest two and TT_P3 and TTT_H2 the cheapest six, so at today's
    costs op_ms.p90 lies amid TT_P4's calls and op_ms.p50 amid the cheap
    ones, not on the edge between two members.
    """
    out = []
    for name, fan, copies, weights, calls in (
        ("T_P6", projective_space(6), 1, None, 2),
        ("T_P7", projective_space(7), 1, None, 1),
        ("TT_P3", projective_space(3), 2, None, 3),
        ("TT_P4", projective_space(4), 2, None, 2),
        ("TTT_H2", hirzebruch(2), 3, (1, 1, 1, 3), 3),
    ):
        rays, cones = fan
        d = len(rays[0])
        w = weights or (1,) * len(rays)
        expected = (Fraction(sum(w), d), copies == 1, name != "TTT_H2")
        out.append((name, rays, cones, copies, w, calls, expected))
    return out


WARMUP_MEMBERS = (("T_P4", projective_space(4), 1), ("TT_P2", projective_space(2), 2))


# ---------------------------------------------------------------------------
# documents


def twist_document(doc, divisor):
    """The same document with every threshold on ray i shifted by divisor[i]."""
    out = json.loads(json.dumps(doc))
    for filt, a in zip(out["bundle"]["filtrations"], divisor):
        for step in filt["steps"]:
            step["max_j"] += a
    return out


# ---------------------------------------------------------------------------
# sweep: random flags on 2-d fans, polarizations valid by construction

# (fan, rank, subspace dimensions below the full fiber on each ray). Generic
# vectors fix the matroid of each type, so every seed costs about the same:
# 7, 5 and 7 ground-set elements.
SWEEP_TYPES = (
    ("hexagon", 3, ((2, 1), (1,), (2,), (1,), (2,), (1,))),
    ("hirzebruch", 3, ((2, 1), (1,), (2, 1), (1,))),
    ("hexagon", 4, ((3,), (1,), (3,), (1,), (3,), (1,))),
)
POLARIZATIONS_PER_BUNDLE = 11


def rank_of(vectors):
    """Exact rank of a list of integer vectors."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def random_flag(rng, rank, dims):
    """Threshold steps of one ray: the full fiber at 0, then subspaces of
    the given decreasing dimensions at 1, 2, ..., each spanned by a prefix
    of independent random integer vectors."""
    while True:
        vecs = [[rng.randint(-9, 9) for _ in range(rank)] for _ in range(dims[0])]
        if rank_of(vecs) == dims[0]:
            break
    steps = [{"max_j": 0, "space": "full"}]
    steps += [{"max_j": j, "space": vecs[:k]} for j, k in enumerate(dims, start=1)]
    return steps


def tangent_steps(rays, copies):
    """Steps of T^{+copies} on each ray: the full fiber at 0, and at 1 the
    ray direction in every copy."""
    d = len(rays[0])
    r = d * copies
    return [[{"max_j": 0, "space": "full"},
             {"max_j": 1, "space": [[0] * (k * d) + list(v) + [0] * (r - (k + 1) * d)
                                    for k in range(copies)]}]
            for v in rays]


def subsheaf_c1(steps, flat_rows):
    """c1 on one ray of the subsheaf cut out by F = span(flat_rows): each
    threshold A_k counted with the drop dim(F n V_k) - dim(F n V_k+1), where
    dim(F n V) = dim F + dim V - rank(F + V)."""
    k = rank_of(flat_rows)
    dims = [k if s["space"] == "full" else k + len(s["space"]) - rank_of(flat_rows + s["space"])
            for s in steps] + [0]
    return sum(s["max_j"] * (a - b) for s, a, b in zip(steps, dims, dims[1:]))


def subsheaf_slope(steps_per_ray, weights, flat_rows):
    """Slope sum_i t_i c1_i(F) / dim F, from the flag data alone."""
    flat_rows = [list(row) for row in flat_rows]
    total = sum(t * subsheaf_c1(steps, flat_rows) for t, steps in zip(weights, steps_per_ray))
    return Fraction(total, rank_of(flat_rows))


def balanced_weights(rng, rays):
    """Positive integer weights with sum t_i v_i = 0: free draws on all rays
    but the first two, which form a unimodular cone and are solved for."""
    (a, b), (c, d) = rays[0], rays[1]
    det = a * d - b * c
    assert abs(det) == 1
    while True:
        t = [0, 0] + [rng.randint(1, 4) for _ in rays[2:]]
        sx = -sum(ti * v[0] for ti, v in zip(t, rays))
        sy = -sum(ti * v[1] for ti, v in zip(t, rays))
        t0 = (sx * d - sy * c) // det
        t1 = (a * sy - b * sx) // det
        if t0 > 0 and t1 > 0:
            t[0], t[1] = t0, t1
            return t


def divisor_with_weights(rng, rays, t):
    """A divisor whose polygon has edge lengths t: walk the edges
    counterclockwise from a random lattice point, edge i running along the
    ray rotated by +90 degrees, and read off a_i = <P_i, v_i>."""
    p = (rng.randint(-2, 2), rng.randint(-2, 2))
    a = [0] * len(rays)
    for i in ccw_order(rays):
        x, y = rays[i]
        a[i] = p[0] * x + p[1] * y
        p = (p[0] - t[i] * y, p[1] + t[i] * x)
    return a


# ---------------------------------------------------------------------------
# machine-speed reference

# Exact ranks of these matrices, by rank_of above, are a fixed task in the
# same kind of work as the package (Fraction elimination), and no change to
# the package can change its cost.
_CALIBRATION_RNG = random.Random("calibration")
CALIBRATION_MATRICES = tuple(
    tuple(tuple(_CALIBRATION_RNG.randint(-9, 9) for _ in range(8)) for _ in range(8))
    for _ in range(60)
)

