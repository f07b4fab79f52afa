"""Exact linear algebra: Hermite normal form, determinant, spans, echelon.

All arithmetic is over Python's arbitrary precision integers.  Every
elimination over Z runs on ``IntLattice``, an incremental gcd echelon:
lattice membership, the signed determinant ``det``, and the row style
Hermite normal form, read off the lattice of the rows of [M | I].
Bareiss's ``determinant`` is kept as an independent oracle.

Every elimination over Q goes through one integer reduced echelon
kernel (``primitive_row``, ``reduce_row``, ``insert_row``).  It is
fraction free like Bareiss's elimination, but keeps each row primitive
by its gcd in place of Bareiss's exact division.  A flat is a tuple of
(pivot column, row) pairs whose rows c.x = d are primitive, have a
positive pivot entry and vanish in every other pivot column, so each
pivot variable is an affine function of the free ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Sequence

# (c, d) is the equality c.x = d or the strict row c.x > d.
Row = tuple[tuple[int, ...], int]
Flat = tuple[tuple[int, Row], ...]


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, entries row major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimension")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "IntMatrix":
        data = [list(r) for r in rows]
        n_rows = len(data)
        n_cols = len(data[0]) if data else 0
        if any(len(r) != n_cols for r in data):
            raise ValueError("ragged rows")
        return cls(n_rows, n_cols, tuple(v for r in data for v in r))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def at(self, r: int, c: int) -> int:
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise ValueError("index outside matrix")
        return self.entries[r * self.cols + c]

    def row(self, r: int) -> tuple[int, ...]:
        if not 0 <= r < self.rows:
            raise ValueError("index outside matrix")
        return self.entries[r * self.cols : (r + 1) * self.cols]

    def row_lists(self) -> list[list[int]]:
        return [list(self.row(r)) for r in range(self.rows)]

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        columns = [other.entries[c :: other.cols] for c in range(other.cols)]
        out = tuple(
            sum(a * b for a, b in zip(self.row(r), col))
            for r in range(self.rows) for col in columns
        )
        return IntMatrix(self.rows, other.cols, out)


def hermite_normal_form(M: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Return (H, U) with H = U * M in row style Hermite normal form:
    pivots positive, each strictly right of the one above, entries above
    a pivot reduced into [0, pivot), and zero rows at the bottom.

    The lattice of the rows of [M | I] holds them as [UM | U] with U
    unimodular; ordered by pivot, those with a pivot in I are zero in H.
    """
    r, c = M.rows, M.cols
    lattice = IntLattice(c + r)
    for k in range(r):
        lattice.add(M.row(k) + tuple(int(k == j) for j in range(r)))
    pivots = sorted(lattice.pivot_row.items())
    rows = [lattice.basis[p] for _, p in pivots]
    for k, (col, _) in enumerate(pivots):
        if col >= c:
            break
        for above in range(k):
            q = rows[above][col] // rows[k][col]
            if q:
                rows[above] = [x - q * y for x, y in zip(rows[above], rows[k])]
    return (
        IntMatrix(r, c, tuple(v for row in rows for v in row[:c])),
        IntMatrix(r, r, tuple(v for row in rows for v in row[c:])),
    )


def determinant(M: IntMatrix) -> int:
    """Exact determinant by Bareiss fraction free elimination."""
    if M.rows != M.cols:
        raise ValueError("matrix is not square")
    n = M.rows
    if n == 0:
        return 1
    a = M.row_lists()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for r in range(k + 1, n):
            for c in range(k + 1, n):
                a[r][c] = (a[r][c] * a[k][k] - a[r][k] * a[k][c]) // prev
            a[r][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def primitive_row(c: Sequence[int], d: int) -> Row:
    """The row divided by the gcd of its entries; a zero row is unchanged."""
    g = gcd(*c, d)
    if g > 1:
        return tuple(v // g for v in c), d // g
    return tuple(c), d


def reduce_row(flat: Flat, row: Row) -> Row:
    """Eliminate every pivot variable of flat from row; primitive.

    Each step replaces row by e[p] * row - row[p] * (e, f) with e[p] > 0,
    so on the flat the result is a positive multiple of row: a strict row
    keeps its direction.  The result vanishes in every pivot column.
    """
    c, d = row
    for p, (e, f) in flat:
        v = c[p]
        if v:
            w = e[p]
            c = [w * x - v * y for x, y in zip(c, e)]
            d = w * d - v * f
    return primitive_row(c, d)


def insert_row(flat: Flat, row: Row) -> Flat | None:
    """Add the equality row to flat.

    Returns None when the equalities become inconsistent and flat itself
    when row is implied.  Otherwise the new pivot is the first column the
    reduced row keeps, made positive and cleared from every other row.
    """
    c, d = reduce_row(flat, row)
    col = next((j for j, v in enumerate(c) if v), None)
    if col is None:
        return None if d else flat
    if c[col] < 0:
        c, d = tuple(-v for v in c), -d
    new = ((col, (c, d)),)
    return tuple((p, reduce_row(new, r)) for p, r in flat) + new


class IntLattice:
    """Integer row lattice with incremental insertion.

    Rows are kept in echelon form with positive pivots, one pivot per
    column, which is enough for membership tests; entries above pivots
    are not reduced.  ``add`` performs the gcd elimination of the new
    vector against the existing rows and ``contains`` reduces a vector
    and checks that it vanishes.  Each step of ``add`` has determinant 1
    except the negation of a new row, which flips ``sign``.
    """

    __slots__ = ("n", "basis", "pivot_row", "sign", "added")

    def __init__(self, n: int):
        self.n = n
        self.basis: list[list[int]] = []
        self.pivot_row: dict[int, int] = {}
        self.sign = 1
        self.added = 0

    def add(self, vec0: Sequence[int]) -> bool:
        """Insert a vector; True when it enlarges the lattice."""
        if len(vec0) != self.n:
            raise ValueError("vector length does not match ambient dimension")
        vec = list(vec0)
        self.added += 1
        changed = False
        for j in range(self.n):
            if not vec[j]:
                continue
            p = self.pivot_row.get(j)
            if p is None:
                if vec[j] < 0:
                    vec = [-v for v in vec]
                    self.sign = -self.sign
                self.basis.append(vec)
                self.pivot_row[j] = len(self.basis) - 1
                return True
            row = self.basis[p]
            g, s, t = _xgcd(row[j], vec[j])
            if g != row[j]:
                # Replace the pivot row by the gcd combination; the
                # lattice strictly grows when the pivot shrinks.
                a, b = row[j] // g, vec[j] // g
                new_row = [s * x + t * y for x, y in zip(row, vec)]
                vec = [a * y - b * x for x, y in zip(row, vec)]
                self.basis[p] = new_row
                changed = True
            else:
                q = vec[j] // row[j]
                vec = [y - q * x for x, y in zip(row, vec)]
        return changed

    def contains(self, vec0: Sequence[int]) -> bool:
        if len(vec0) != self.n:
            raise ValueError("vector length does not match ambient dimension")
        vec = list(vec0)
        for j in range(self.n):
            if not vec[j]:
                continue
            p = self.pivot_row.get(j)
            if p is None:
                return False
            row = self.basis[p]
            if vec[j] % row[j]:
                return False
            q = vec[j] // row[j]
            vec = [y - q * x for x, y in zip(row, vec)]
        return True

    def rank(self) -> int:
        return len(self.basis)

    def det(self) -> int:
        """Determinant of the n added vectors in the order added; raises
        unless exactly n were added.  At full rank the basis ordered by
        pivot is triangular, so this is ``sign`` times the pivot product
        times the parity of that order, and below full rank it is 0."""
        if self.added != self.n:
            raise ValueError("determinant needs exactly n added vectors")
        if len(self.basis) < self.n:
            return 0
        det = self.sign
        cols = list(self.pivot_row)  # the pivot of each row, in basis order
        for p, j in enumerate(cols):
            det *= self.basis[p][j]
        for p in range(self.n):  # each swap sorting cols flips the sign
            while cols[p] != p:
                q = cols[p]
                cols[p], cols[q] = cols[q], cols[p]
                det = -det
        return det


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with g = gcd(a, b) = s*a + t*b and g > 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t
