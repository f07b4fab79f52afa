"""Exact linear algebra: Hermite normal form, determinant, spans, rref.

All arithmetic is over Python's arbitrary precision integers, except in
the rational Gauss-Jordan kernel ``rational_rref``.  The Hermite normal
form here is row style: pivots are positive, each pivot sits strictly to
the right of the one above, entries above a pivot are reduced into
[0, pivot), and zero rows are collected at the bottom.  The transform U
with H = U * M is accumulated from the same row operations, so
det(U) = +-1 by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


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
        return self.entries[r * self.cols + c]

    def row(self, r: int) -> tuple[int, ...]:
        return self.entries[r * self.cols : (r + 1) * self.cols]

    def row_lists(self) -> list[list[int]]:
        return [list(self.row(r)) for r in range(self.rows)]

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        out = []
        for r in range(self.rows):
            row = self.row(r)
            out.append(
                [
                    sum(row[k] * other.at(k, c) for k in range(self.cols))
                    for c in range(other.cols)
                ]
            )
        return IntMatrix.from_rows(out)


def hermite_normal_form(M: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Return (H, U) with H = U * M in row style Hermite normal form."""
    h = M.row_lists()
    u = IntMatrix.identity(M.rows).row_lists()
    top = 0
    for col in range(M.cols):
        pivot = next((r for r in range(top, M.rows) if h[r][col]), None)
        if pivot is None:
            continue
        h[top], h[pivot] = h[pivot], h[top]
        u[top], u[pivot] = u[pivot], u[top]
        for r in range(top + 1, M.rows):
            if not h[r][col]:
                continue
            # Combine rows top and r by the unimodular 2x2 transform
            # [[s, t], [-b/g, a/g]] that puts gcd(a, b) at the pivot.
            a, b = h[top][col], h[r][col]
            g, s, t = _xgcd(a, b)
            aa, bb = a // g, b // g
            h[top], h[r] = (
                [s * x + t * y for x, y in zip(h[top], h[r])],
                [aa * y - bb * x for x, y in zip(h[top], h[r])],
            )
            u[top], u[r] = (
                [s * x + t * y for x, y in zip(u[top], u[r])],
                [aa * y - bb * x for x, y in zip(u[top], u[r])],
            )
        if h[top][col] < 0:
            h[top] = [-v for v in h[top]]
            u[top] = [-v for v in u[top]]
        for r in range(top):
            q = h[r][col] // h[top][col]
            if q:
                h[r] = [x - q * y for x, y in zip(h[r], h[top])]
                u[r] = [x - q * y for x, y in zip(u[r], u[top])]
        top += 1
    return IntMatrix.from_rows(h), IntMatrix.from_rows(u)


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


def rational_rref(
    system: Iterable[Sequence[int | Fraction]], ncols: int
) -> tuple[list[int], list[list[Fraction]]] | None:
    """Gauss-Jordan elimination of an augmented system over Q.

    Each row holds ncols coefficients followed by a constant.  Returns
    (pivot columns, reduced pivot rows) as Fractions, or None when the
    system is inconsistent.  Elimination stops as soon as every row
    holds a pivot, since no later column can then change.
    """
    rows = [[Fraction(v) for v in row] for row in system]
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        if r == len(rows):
            break
        pr = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][col]
        rows[r] = [v / pv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    if any(row[ncols] != 0 for row in rows[r:]):
        return None
    return pivots, rows[:r]


def in_row_span(M: IntMatrix, v: Sequence[int]) -> bool:
    """True when v is an integer combination of the rows of M."""
    if len(v) != M.cols:
        raise ValueError("vector length does not match column count")
    lattice = IntLattice(M.cols)
    for r in range(M.rows):
        lattice.add(M.row(r))
    return lattice.contains(v)


class IntLattice:
    """Integer row lattice with incremental insertion.

    Rows are kept in echelon form with positive pivots, one pivot per
    column, which is enough for membership tests; entries above pivots
    are not reduced.  ``add`` performs the gcd elimination of the new
    vector against the existing rows and ``contains`` reduces a vector
    and checks that it vanishes.
    """

    __slots__ = ("n", "basis", "pivot_row")

    def __init__(self, n: int):
        self.n = n
        self.basis: list[list[int]] = []
        self.pivot_row: dict[int, int] = {}

    def add(self, vec0: Sequence[int]) -> bool:
        """Insert a vector; True when it enlarges the lattice."""
        if len(vec0) != self.n:
            raise ValueError("vector length does not match ambient dimension")
        vec = list(vec0)
        changed = False
        for j in range(self.n):
            if not vec[j]:
                continue
            p = self.pivot_row.get(j)
            if p is None:
                if vec[j] < 0:
                    vec = [-v for v in vec]
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
