"""Small complete fans and a flag helper shared by the randomized tests."""
from itertools import combinations

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
