"""Exact linear algebra over the rationals, plus integer lattice utilities.

A subspace of Q^n is stored as its canonical integer echelon basis: the
rows of its reduced row echelon form, each times the lcm of its
denominators. Every such row is a primitive integer vector with a positive
pivot, and this is a bijection with the reduced row echelon form, so
equality and hashing are structural and every construction is
bit-reproducible. Elimination is fraction-free: rows are combined with
integer multipliers and divided by their content, so no ``Fraction`` is
built. The ``Fraction`` rows of the reduced form (``Subspace.rows``) are
derived when read, for ordering and printing. Vectors given to the
package may hold ints or ``Fraction``s. No floating point anywhere.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]
IntRow = tuple[int, ...]


def dot(u: Sequence, v: Sequence):
    """Exact dot product; an int for integer vectors, else a Fraction."""
    if len(u) != len(v):
        raise ValueError("dot product of vectors of different lengths")
    return sum(a * b for a, b in zip(u, v))


def integer_row(v: Iterable) -> IntRow:
    """A rational vector times the lcm of its denominators: same line, ints."""
    v = tuple(v)
    for x in v:
        if not isinstance(x, int):
            break
    else:
        return v
    v = tuple(x if isinstance(x, Fraction) else Fraction(x) for x in v)
    scale = lcm(*(x.denominator for x in v))
    return tuple(x.numerator * (scale // x.denominator) for x in v)


def rational_row(row: Sequence[int]) -> Vector:
    """The reduced echelon form of a line: a nonzero integer row divided by
    its pivot, the first nonzero entry."""
    p = next(x for x in row if x)
    return tuple(Fraction(x, p) for x in row)


def _clear(row: list[int], top: Sequence[int], col: int) -> list[int]:
    """The primitive integer row on the line of (p / g) row - (a / g) top,
    with p = top[col], a = row[col] and g = gcd(p, a): it is zero at col."""
    p, a = top[col], row[col]
    g = gcd(p, a)
    out = [p // g * x - a // g * y for x, y in zip(row, top)]
    c = gcd(*out)
    return [x // c for x in out] if c > 1 else out


def _echelon(rows: Iterable[Sequence[int]], width: int) -> tuple[tuple[IntRow, ...], tuple[int, ...]]:
    """(canonical integer echelon rows, pivot columns) of the row space of
    an integer matrix, by fraction-free Gauss-Jordan elimination: every
    other row is cleared at each pivot column, and each pivot row is made
    primitive with a positive pivot at the end."""
    mat = [list(r) for r in rows]
    for r in mat:
        if len(r) != width:
            raise ValueError(f"row of length {len(r)} in a width-{width} matrix")
    nrows = len(mat)
    pivots: list[int] = []
    for col in range(width):
        rank = len(pivots)
        piv = next((i for i in range(rank, nrows) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        top = mat[rank]
        for i in range(nrows):
            if mat[i][col] and i != rank:
                mat[i] = _clear(mat[i], top, col)
        pivots.append(col)
        if len(pivots) == nrows:
            break
    out = []
    for row, col in zip(mat, pivots):
        c = gcd(*row)
        if row[col] < 0:
            c = -c
        out.append(tuple(x // c for x in row) if c != 1 else tuple(row))
    return tuple(out), tuple(pivots)


class Subspace:
    """A rational subspace of Q^n with canonical integer echelon basis:
    row k of `int_rows` is primitive, with a positive pivot at column
    `pivots[k]` and zeros at every other pivot column.

    Two subspaces are equal iff their integer rows coincide; build
    instances through :func:`span` (the constructor trusts its input).
    """

    __slots__ = ("ambient", "int_rows", "pivots")

    def __init__(self, ambient: int, int_rows: tuple[IntRow, ...] = (),
                 pivots: tuple[int, ...] = ()):
        self.ambient = ambient
        self.int_rows = int_rows
        self.pivots = pivots

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient)

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        rows = tuple(
            tuple(int(i == j) for j in range(ambient)) for i in range(ambient)
        )
        return cls(ambient, rows, tuple(range(ambient)))

    @property
    def rows(self) -> tuple[Vector, ...]:
        """The reduced row echelon basis in Fractions, built on each read."""
        return tuple(rational_row(r) for r in self.int_rows)

    @property
    def dim(self) -> int:
        return len(self.int_rows)

    def is_zero(self) -> bool:
        return not self.int_rows

    def is_full(self) -> bool:
        return len(self.int_rows) == self.ambient

    def contains(self, v: Sequence) -> bool:
        """Whether v lies in the subspace: its integer row, cleared at every
        pivot column by the basis row there, leaves no residual."""
        w = integer_row(v)
        if len(w) != self.ambient:
            raise ValueError(f"expected a vector of length {self.ambient}, got {len(w)}")
        for row, col in zip(self.int_rows, self.pivots):
            if w[col]:
                w = _clear(w, row, col)
        return not any(w)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in other.int_rows)

    def sort_key(self):
        return (self.dim, self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.int_rows == other.int_rows
        )

    def __hash__(self):
        return hash((self.ambient, self.int_rows))

    def __repr__(self):
        if self.is_zero():
            return f"Subspace.zero({self.ambient})"
        if self.is_full():
            return f"Subspace.full({self.ambient})"
        body = ", ".join("(" + ", ".join(str(x) for x in r) + ")" for r in self.rows)
        return f"Subspace({self.ambient}, [{body}])"


def span(vectors: Iterable[Sequence], ambient_dim: int) -> Subspace:
    """Canonical subspace spanned by the given rational vectors."""
    rows = []
    for v in vectors:
        row = integer_row(v)
        if len(row) != ambient_dim:
            raise ValueError(f"expected a vector of length {ambient_dim}, got {len(row)}")
        rows.append(row)
    return Subspace(ambient_dim, *_echelon(rows, ambient_dim))


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    if u.ambient != v.ambient:
        raise ValueError("subspace sum across different ambient dimensions")
    if u.is_zero():
        return v
    if v.is_zero():
        return u
    return span(u.int_rows + v.int_rows, u.ambient)


def nullspace(rows: Iterable[Sequence], width: int) -> list[IntRow]:
    """Basis of {x : M x = 0} for the rational matrix with the given rows:
    for each free column f, the vector with 1 at f that the reduced echelon
    form gives, times the lcm of its denominators."""
    red, pivots = _echelon([integer_row(r) for r in rows], width)
    basis = []
    for f in range(width):
        if f in pivots:
            continue
        # entry -r[f] / r[p] at each pivot p; clear the reduced denominators
        scale = lcm(*(r[p] // gcd(r[p], r[f]) for r, p in zip(red, pivots)))
        x = [0] * width
        x[f] = scale
        for r, p in zip(red, pivots):
            x[p] = -r[f] * scale // r[p]
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
    # coefficients (a, b) with a.U = b.V; the kernel's a-part maps onto U n V
    eqs = [
        tuple(r[i] for r in u.int_rows) + tuple(-r[i] for r in v.int_rows)
        for i in range(d)
    ]
    vecs = [
        tuple(sum(k[j] * r[i] for j, r in enumerate(u.int_rows)) for i in range(d))
        for k in nullspace(eqs, u.dim + v.dim)
    ]
    return span(vecs, d)


def extend_basis(
    spanned: Subspace, target: Subspace, need: int, prefer: Subspace | None = None
) -> list[IntRow]:
    """At most `need` integer echelon rows of `target` that are independent
    modulo `spanned`, taken greedily: the rows of target n prefer first,
    then those of target."""
    pools = [target] if prefer is None else [intersect(target, prefer), target]
    rows: list[IntRow] = []
    for pool in pools:
        for cand in pool.int_rows:
            if len(rows) == need:
                return rows
            if not spanned.contains(cand):
                rows.append(cand)
                spanned = subspace_sum(spanned, span([cand], spanned.ambient))
    return rows


def matrix_rank(rows: Iterable[Sequence]) -> int:
    """Rank of a rational matrix: `integer_rank` of its integer rows.

    Nothing in the package calls it; it is kept because the benchmark's
    tracer wraps it by name (`linalg.rank_calls`)."""
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


def _solve(matrix: Sequence[Sequence], rhs: Sequence) -> list[tuple[int, int]] | None:
    """(numerator, denominator) of each unknown of a square system, or None
    when singular: Gauss-Jordan on the integer rows of the augmented matrix
    leaves q_i x_i = c_i in row i."""
    n = len(matrix)
    rows, pivots = _echelon(
        [integer_row(tuple(row) + (rhs[i],)) for i, row in enumerate(matrix)], n + 1
    )
    if pivots[:n] != tuple(range(n)):
        return None
    return [(r[n], r[i]) for i, r in enumerate(rows)]


def solve_rational_system(matrix: Sequence[Sequence], rhs: Sequence) -> Vector | None:
    """Unique solution of a square system, or None when singular."""
    sol = _solve(matrix, rhs)
    return None if sol is None else tuple(Fraction(c, q) for c, q in sol)


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
    sol = _solve(matrix, rhs)
    assert sol is not None and all(c % q == 0 for c, q in sol)
    return tuple(c // q for c, q in sol)
