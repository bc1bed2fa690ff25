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
package may hold ints or ``Fraction``s; a ``float`` entry is a
``TypeError``. No floating point anywhere.

Work already done is not redone. A vector's residual modulo a subspace
(its integer row cleared at every pivot column) is zero exactly when the
vector lies inside; a nonzero residual is adjoined to the echelon rows
directly (made primitive, cleared from the other rows at its pivot
column, inserted by pivot), so a basis grows one line at a time with no
fresh elimination. An intersection U n V reduces the rows of the smaller
space U modulo V by a linear fraction-free map that vanishes on V. U lies
in V when every residual is zero, and a line with a nonzero residual meets
V in 0; otherwise one elimination of the rows (residual | row), whose
residual block has one column per free column of V, finds the combinations
whose residuals vanish.
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


def exact_int(x) -> int:
    """x as an int, where `int` would truncate: a float is a TypeError and a
    value that is not an integer, such as Fraction(1, 2), a ValueError."""
    if isinstance(x, float):
        raise TypeError(f"float {x!r}: give an int or a Fraction")
    n = int(x)
    if n != x:
        raise ValueError(f"{x!r} is not an integer")
    return n


def integer_row(v: Iterable) -> IntRow:
    """A rational vector times the lcm of its denominators: same line, ints."""
    v = tuple(v)
    for x in v:
        if not isinstance(x, int):
            break
    else:
        return v
    if any(isinstance(x, float) for x in v):
        raise TypeError(f"float entry in {v}: give ints or Fractions")
    v = tuple(x if isinstance(x, Fraction) else Fraction(x) for x in v)
    scale = lcm(*(x.denominator for x in v))
    return tuple(x.numerator * (scale // x.denominator) for x in v)


def rational_row(row: Sequence[int]) -> Vector:
    """The reduced echelon form of a line: a nonzero integer row divided by
    its pivot, the first nonzero entry."""
    p = next(x for x in row if x)
    return tuple(Fraction(x, p) for x in row)


def primitive_line(v: Iterable) -> IntRow:
    """The primitive integer row on the line of a rational vector, with a
    positive first nonzero entry (the zero vector is returned as is)."""
    row = integer_row(v)
    c = gcd(*row)
    if next((x for x in row if x), 0) < 0:
        c = -c
    return row if c in (0, 1) else tuple(x // c for x in row)


def _clear(row: Sequence[int], top: Sequence[int], col: int) -> list[int]:
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

    def residual(self, v: Sequence) -> Sequence[int]:
        """v's integer row cleared at every pivot column by the basis row
        there: zero exactly when v lies in the subspace, and zero at every
        pivot column."""
        w = integer_row(v)
        if len(w) != self.ambient:
            raise ValueError(f"expected a vector of length {self.ambient}, got {len(w)}")
        for row, col in zip(self.int_rows, self.pivots):
            if w[col]:
                w = _clear(w, row, col)
        return w

    def contains(self, v: Sequence) -> bool:
        """Whether v lies in the subspace: it leaves no residual."""
        return not any(self.residual(v))

    def adjoin(self, residual: Sequence[int]) -> "Subspace":
        """The span of the subspace and a nonzero residual of it. The
        residual, made primitive with a positive pivot, is zero at every
        pivot column, so clearing its pivot column from the other rows
        keeps them canonical; it is inserted by pivot."""
        new = primitive_line(residual)
        col = next(i for i, x in enumerate(new) if x)
        rows = [_clear(r, new, col) if r[col] else r for r in self.int_rows]
        at = sum(1 for p in self.pivots if p < col)
        rows.insert(at, new)
        return Subspace(
            self.ambient,
            tuple(map(tuple, rows)),
            self.pivots[:at] + (col,) + self.pivots[at:],
        )

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
    if u.dim > v.dim:
        u, v = v, u
    # x -> Q x - sum_c x[c] (Q / q_c) r_c over V's rows r_c with pivot q_c
    # at column c, Q = lcm of the q_c: linear, integral, zero on V's pivot
    # columns and zero exactly on V; only its free columns are kept
    q = lcm(*(r[c] for r, c in zip(v.int_rows, v.pivots)))
    scaled = [(c, q // r[c], r) for r, c in zip(v.int_rows, v.pivots)]
    pivots = set(v.pivots)
    free = [f for f in range(u.ambient) if f not in pivots]
    rows = []
    for x in u.int_rows:
        res = [q * x[f] for f in free]
        for c, m, r in scaled:
            if x[c]:
                m *= x[c]
                res = [a - m * r[f] for a, f in zip(res, free)]
        rows.append(res + list(x))
    k = len(free)
    if not any(any(row[:k]) for row in rows):
        return u
    if len(rows) == 1:
        return Subspace.zero(u.ambient)  # a line with a nonzero residual
    # the rows (res(x) | x) span {(res(x), x) : x in U}; its echelon rows
    # with a pivot past the residual block are (0 | x) for x in U n V, and
    # are canonical there
    red, cols = _echelon(rows, k + u.ambient)
    inside = [i for i, c in enumerate(cols) if c >= k]
    return Subspace(
        u.ambient,
        tuple(red[i][k:] for i in inside),
        tuple(cols[i] - k for i in inside),
    )


def extend_basis(
    spanned: Subspace, target: Subspace, need: int, prefer: Subspace | None = None
) -> tuple[list[IntRow], Subspace]:
    """At most `need` integer echelon rows of `target` that are independent
    modulo `spanned`, taken greedily: the rows of target n prefer first,
    then those of target. Returned with the span of `spanned` and the rows,
    which grows by one adjoined residual per row taken."""
    pools = [target] if prefer is None else [intersect(target, prefer), target]
    rows: list[IntRow] = []
    for pool in pools:
        for cand in pool.int_rows:
            if len(rows) == need:
                return rows, spanned
            res = spanned.residual(cand)
            if any(res):
                rows.append(cand)
                spanned = spanned.adjoin(res)
    return rows, spanned


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


def _unimodular_columns(rows: Sequence[Sequence[int]], width: int) -> tuple[list[list[int]], int]:
    """(columns of a unimodular matrix U, rank k of M) by unimodular column
    reduction: M U has nonzero columns only among its first k."""
    mat = [tuple(exact_int(x) for x in r) for r in rows]
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
    return cols, fixed


def integer_kernel_basis(rows: Sequence[Sequence[int]], width: int) -> list[tuple[int, ...]]:
    """Basis of the lattice {x in Z^width : M x = 0}, by unimodular column
    reduction; the returned vectors extend to a basis of Z^width."""
    cols, fixed = _unimodular_columns(rows, width)
    return [tuple(c) for c in cols[fixed:]]


def lattice_frame(v: Sequence[int], d: int) -> tuple[IntRow, list[IntRow]]:
    """(w, B) for a primitive vector v: an integer w with <v, w> = 1 and a
    lattice basis B of {m in Z^d : <m, v> = 0}. Together they form a basis
    of Z^d: the columns of the unimodular column reduction of the row v."""
    vv = tuple(exact_int(x) for x in v)
    if len(vv) != d:
        raise ValueError(f"expected a vector of length {d}")
    if all(x == 0 for x in vv):
        raise ValueError("orthogonal lattice of the zero vector is undefined")
    if not is_primitive(vv):
        raise ValueError(f"{vv} is not primitive")
    cols, fixed = _unimodular_columns([vv], d)
    assert fixed == 1
    w = tuple(cols[0])
    if dot(vv, w) < 0:  # the reduction leaves <v, w> = +-gcd(v) = +-1
        w = tuple(-x for x in w)
    return w, [tuple(c) for c in cols[1:]]


def orthogonal_lattice_basis(v: Sequence[int], d: int) -> list[tuple[int, ...]]:
    """Lattice basis of {m in Z^d : <m, v> = 0} for a primitive vector v."""
    return lattice_frame(v, d)[1]


class NonUnimodularError(ValueError):
    """Raised when an integer system expected to be unimodular is not."""

    def __init__(self, determinant):
        self.determinant = determinant
        super().__init__(f"matrix has determinant {determinant}, expected +-1")


def unimodular_inverse(matrix: Sequence[Sequence[int]]) -> tuple[IntRow, ...]:
    """Rows of the integer inverse of a unimodular square integer matrix A,
    from one Gauss-Jordan pass over [A | I]; raises NonUnimodularError
    otherwise. The canonical row i is (e_i | row i of the inverse) times the
    lcm of that row's denominators, so every pivot is 1 exactly when the
    inverse is integral, that is when det A = +-1."""
    n = len(matrix)
    if any(len(r) != n for r in matrix):
        raise ValueError("inverse of a non-square matrix")
    rows, pivots = _echelon(
        [tuple(r) + tuple(int(i == j) for j in range(n)) for i, r in enumerate(matrix)],
        2 * n,
    )
    if pivots[:n] != tuple(range(n)) or any(r[i] != 1 for i, r in enumerate(rows)):
        raise NonUnimodularError(det(matrix))
    return tuple(r[n:] for r in rows)


def solve_integer_system(matrix: Sequence[Sequence[int]], rhs: Sequence[int]) -> tuple[int, ...]:
    """Unique integer solution of A u = b for a unimodular integer matrix A."""
    d = det(matrix)
    if abs(d) != 1:
        raise NonUnimodularError(d)
    sol = _solve(matrix, rhs)
    assert sol is not None and all(c % q == 0 for c, q in sol)
    return tuple(c // q for c, q in sol)
