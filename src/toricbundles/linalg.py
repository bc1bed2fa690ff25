"""Exact linear algebra over the rationals, plus integer lattice utilities.

Vectors are tuples of ``fractions.Fraction``. A subspace is identified with
its reduced row echelon basis, so equality and hashing are structural and
every construction is bit-reproducible. No floating point anywhere.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def vector(entries: Iterable, dim: int | None = None) -> Vector:
    v = tuple(Fraction(x) for x in entries)
    if dim is not None and len(v) != dim:
        raise ValueError(f"expected a vector of length {dim}, got {len(v)}")
    return v


def dot(u: Sequence, v: Sequence) -> Fraction:
    if len(u) != len(v):
        raise ValueError("dot product of vectors of different lengths")
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), ZERO)


def vec_sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def is_zero_vector(v: Sequence) -> bool:
    return all(x == 0 for x in v)


def _rref(rows: Iterable[Sequence], width: int) -> list[Vector]:
    """Reduced row echelon form; returns the nonzero rows (pivots 1,
    zeros above and below each pivot, pivot columns strictly increasing)."""
    mat = [[Fraction(x) for x in r] for r in rows]
    for r in mat:
        if len(r) != width:
            raise ValueError(f"row of length {len(r)} in a width-{width} matrix")
    nrows = len(mat)
    row = 0
    for col in range(width):
        piv = None
        for i in range(row, nrows):
            if mat[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        mat[row], mat[piv] = mat[piv], mat[row]
        inv = mat[row][col]
        if inv != 1:
            mat[row] = [x / inv for x in mat[row]]
        for i in range(nrows):
            if i != row and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[row])]
        row += 1
        if row == nrows:
            break
    return [tuple(r) for r in mat[:row]]


class Subspace:
    """A rational subspace of Q^n with canonical echelon basis.

    Two subspaces are equal iff their canonical bases coincide; build
    instances through :func:`span` (the constructor trusts its input).
    """

    __slots__ = ("ambient", "rows")

    def __init__(self, ambient: int, rows: tuple[Vector, ...] = ()):
        self.ambient = ambient
        self.rows = rows

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient, ())

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        rows = tuple(
            tuple(ONE if i == j else ZERO for j in range(ambient))
            for i in range(ambient)
        )
        return cls(ambient, rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    def is_full(self) -> bool:
        return len(self.rows) == self.ambient

    def reduce(self, v: Sequence) -> Vector:
        """Residual of v after eliminating against the basis rows."""
        w = list(vector(v, self.ambient))
        for row in self.rows:
            piv = next(i for i, x in enumerate(row) if x != 0)
            if w[piv] != 0:
                f = w[piv]
                w = [a - f * b for a, b in zip(w, row)]
        return tuple(w)

    def contains(self, v: Sequence) -> bool:
        return is_zero_vector(self.reduce(v))

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in other.rows)

    def sort_key(self):
        return (self.dim, self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ambient, self.rows))

    def __repr__(self):
        if self.is_zero():
            return f"Subspace.zero({self.ambient})"
        if self.is_full():
            return f"Subspace.full({self.ambient})"
        body = ", ".join("(" + ", ".join(str(x) for x in r) + ")" for r in self.rows)
        return f"Subspace({self.ambient}, [{body}])"


def span(vectors: Iterable[Sequence], ambient_dim: int) -> Subspace:
    """Canonical subspace spanned by the given rational vectors."""
    vecs = [vector(v, ambient_dim) for v in vectors]
    return Subspace(ambient_dim, tuple(_rref(vecs, ambient_dim)))


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    if u.ambient != v.ambient:
        raise ValueError("subspace sum across different ambient dimensions")
    if u.is_zero():
        return v
    if v.is_zero():
        return u
    return span(u.rows + v.rows, u.ambient)


def nullspace(rows: Iterable[Sequence], width: int) -> list[Vector]:
    """Rational basis of {x : M x = 0} for the matrix with the given rows."""
    red = _rref(rows, width)
    pivots = []
    for r in red:
        pivots.append(next(i for i, x in enumerate(r) if x != 0))
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for f in free:
        x = [ZERO] * width
        x[f] = ONE
        for r, p in zip(red, pivots):
            x[p] = -r[f]
        basis.append(tuple(x))
    return basis


def intersect(u: Subspace, v: Subspace) -> Subspace:
    if u.ambient != v.ambient:
        raise ValueError("intersection across different ambient dimensions")
    if u.is_zero() or v.is_zero():
        return Subspace.zero(u.ambient)
    if u.is_full():
        return v
    if v.is_full():
        return u
    d = u.ambient
    # coefficients (a, b) with a.U = b.V; the kernel's a-part maps onto U cap V
    eqs = []
    for i in range(d):
        eqs.append(tuple(r[i] for r in u.rows) + tuple(-r[i] for r in v.rows))
    vecs = []
    for k in nullspace(eqs, u.dim + v.dim):
        a = k[: u.dim]
        vecs.append(
            tuple(
                sum((a[j] * u.rows[j][i] for j in range(u.dim)), ZERO)
                for i in range(d)
            )
        )
    return span(vecs, d)


def extend_basis(
    spanned: Subspace, target: Subspace, need: int, prefer: Subspace | None = None
) -> list[Vector]:
    """At most `need` echelon rows of `target` that are independent modulo
    `spanned`, taken greedily: the rows of target n prefer first, then those
    of target."""
    pools = [target] if prefer is None else [intersect(target, prefer), target]
    rows: list[Vector] = []
    for pool in pools:
        for cand in pool.rows:
            if len(rows) == need:
                return rows
            if not spanned.contains(cand):
                rows.append(cand)
                spanned = subspace_sum(spanned, span([cand], spanned.ambient))
    return rows


def integer_row(v: Sequence) -> tuple[int, ...]:
    """A rational vector times the lcm of its denominators: same line, ints."""
    v = vector(v)
    scale = lcm(*(x.denominator for x in v))
    return tuple(int(x * scale) for x in v)


def matrix_rank(rows: Iterable[Sequence]) -> int:
    """Rank of a rational matrix: `integer_rank` of its integer rows."""
    return integer_rank(integer_row(r) for r in rows)


def _bareiss(rows: Iterable[Sequence[int]]) -> tuple[int, int]:
    """(rank, signed last pivot) of an integer matrix by fraction-free
    elimination (Bareiss 1968).

    After each pivot every remaining entry is a minor of the input, so the
    division by the previous pivot is exact and no Fraction is built. For a
    square matrix of full rank the last pivot is the determinant of the
    row-swapped matrix; the sign undoes the swaps.
    """
    mat = [list(r) for r in rows]
    n = len(mat)
    width = len(mat[0]) if mat else 0
    rank = 0
    prev = 1
    sign = 1
    for col in range(width):
        piv = next((i for i in range(rank, n) if mat[i][col]), None)
        if piv is None:
            continue
        if piv != rank:
            mat[rank], mat[piv] = mat[piv], mat[rank]
            sign = -sign
        top = mat[rank]
        p = top[col]
        for i in range(rank + 1, n):
            a = mat[i][col]
            mat[i] = [(p * x - a * y) // prev for x, y in zip(mat[i], top)]
        prev = p
        rank += 1
        if rank == n:
            break
    return rank, sign * prev


def integer_rank(rows: Iterable[Sequence[int]]) -> int:
    """Rank of an integer matrix."""
    return _bareiss(rows)[0]


def det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    rank, pivot = _bareiss(rows)
    return pivot if rank == n else 0


def solve_rational_system(matrix: Sequence[Sequence], rhs: Sequence) -> Vector | None:
    """Unique solution of a square system, or None when singular: the last
    column of the reduced echelon form of the augmented matrix."""
    n = len(matrix)
    red = _rref([tuple(row) + (rhs[i],) for i, row in enumerate(matrix)], n + 1)
    if any(i >= len(red) or red[i][i] == 0 for i in range(n)):
        return None
    return tuple(r[n] for r in red[:n])


def is_primitive(v: Sequence[int]) -> bool:
    g = 0
    for x in v:
        if x != int(x):
            raise ValueError("primitivity is a question about integer vectors")
        g = gcd(g, abs(int(x)))
    return g == 1


def integer_kernel_basis(rows: Sequence[Sequence[int]], width: int) -> list[tuple[int, ...]]:
    """Basis of the lattice {x in Z^width : M x = 0}, by unimodular column
    reduction; the returned vectors extend to a basis of Z^width."""
    mat = [tuple(int(x) for x in r) for r in rows]
    cols = [[1 if i == j else 0 for i in range(width)] for j in range(width)]
    fixed = 0
    for r in mat:
        vals = [sum(r[i] * c[i] for i in range(width)) for c in cols]
        while True:
            nz = [j for j in range(fixed, width) if vals[j] != 0]
            if len(nz) <= 1:
                break
            j0 = min(nz, key=lambda j: abs(vals[j]))
            changed = False
            for j in nz:
                if j == j0:
                    continue
                q = vals[j] // vals[j0]
                if q:
                    vals[j] -= q * vals[j0]
                    cols[j] = [a - q * b for a, b in zip(cols[j], cols[j0])]
                    changed = True
            if not changed:
                break
        nz = [j for j in range(fixed, width) if vals[j] != 0]
        if nz:
            j0 = nz[0]
            cols[fixed], cols[j0] = cols[j0], cols[fixed]
            fixed += 1
    return [tuple(c) for c in cols[fixed:]]


def orthogonal_lattice_basis(v: Sequence[int], d: int) -> list[tuple[int, ...]]:
    """Lattice basis of {m in Z^d : <m, v> = 0} for a primitive vector v."""
    vv = tuple(int(x) for x in v)
    if len(vv) != d:
        raise ValueError(f"expected a vector of length {d}")
    if all(x == 0 for x in vv):
        raise ValueError("orthogonal lattice of the zero vector is undefined")
    if not is_primitive(vv):
        raise ValueError(f"{vv} is not primitive")
    basis = integer_kernel_basis([vv], d)
    assert len(basis) == d - 1
    return basis


class NonUnimodularError(ValueError):
    """Raised when an integer system expected to be unimodular is not."""

    def __init__(self, determinant):
        self.determinant = determinant
        super().__init__(f"matrix has determinant {determinant}, expected +-1")


def solve_integer_system(matrix: Sequence[Sequence[int]], rhs: Sequence[int]) -> tuple[int, ...]:
    """Unique integer solution of A u = b for a unimodular integer matrix A."""
    d = det(matrix)
    if abs(d) != 1:
        raise NonUnimodularError(d)
    sol = solve_rational_system(matrix, rhs)
    assert sol is not None
    out = []
    for x in sol:
        assert x.denominator == 1
        out.append(int(x))
    return tuple(out)
