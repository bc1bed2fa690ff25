"""Small complete fans and a flag helper shared by the randomized tests."""
from itertools import combinations, product

from subspace_reference import matrix_rank

from toricbundles.fan import Fan

HEXAGON_RAYS = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]


def hexagon():
    return Fan(2, HEXAGON_RAYS, [(i, (i + 1) % 6) for i in range(6)])


def hirzebruch(a):
    return Fan(2, [(1, 0), (0, 1), (-1, a), (0, -1)], [(0, 1), (0, 3), (1, 2), (2, 3)])


def projective_space(d, order=None):
    """P^d with its rays listed in the given order."""
    order = range(d + 1) if order is None else order
    rays = [tuple(int(i == j) for j in range(d)) for i in range(d)] + [(-1,) * d]
    where = {old: new for new, old in enumerate(order)}
    cones = [tuple(sorted(where[i] for i in c)) for c in combinations(range(d + 1), d)]
    return Fan(d, [rays[i] for i in order], cones)


def p1_cubed():
    """(P^1)^3: rays +-e_k, one cone per choice of signs."""
    rays = [tuple(s * int(i == k) for i in range(3)) for k in range(3) for s in (1, -1)]
    cones = [tuple(2 * k + c for k, c in enumerate(choice))
             for choice in product((0, 1), repeat=3)]
    return Fan(3, rays, cones)


def blown_up_p3():
    """P^3 blown up at the fixed point of the cone (e_1, e_2, e_3): the new
    ray e_1 + e_2 + e_3 subdivides that cone into three."""
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (1, 1, 1)]
    cones = [(0, 1, 3), (0, 2, 3), (1, 2, 3), (0, 1, 4), (0, 2, 4), (1, 2, 4)]
    return Fan(3, rays, cones)


def independent_prefix(pool, order, k, rank):
    """k independent vectors: pool vectors in the given order that raise
    the rank, then unit vectors if the pool runs short."""
    units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    out = []
    for v in [pool[i] for i in order] + units:
        if len(out) == k:
            break
        if matrix_rank(out + [v], rank) == len(out) + 1:
            out.append(v)
    return out
