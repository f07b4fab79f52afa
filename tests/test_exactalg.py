from fractions import Fraction
from math import gcd
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from comring.exactalg import (
    IntLattice,
    determinant,
    hermite_normal_form,
    insert_row,
    primitive_row,
    reduce_row,
)

small_matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        ).map(lambda rows: tuple(map(tuple, rows)))
    )
)

square_matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    ).map(lambda rows: tuple(map(tuple, rows)))
)


def matmul(A, B):
    """The product of two matrices given as rows."""
    return tuple(tuple(sum(map(mul, row, col)) for col in zip(*B)) for row in A)


def rational_det(M):
    rows = [[Fraction(v) for v in row] for row in M]
    n = len(rows)
    sign = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            sign = -sign
        for r in range(col + 1, n):
            f = rows[r][col] / rows[col][col]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    prod = sign
    for i in range(n):
        prod *= rows[i][i]
    return prod


def test_hnf_golden():
    M = [[2, 4], [1, 1]]
    H, U = hermite_normal_form(M)
    assert H == ((1, 1), (0, 2))
    assert matmul(U, M) == H
    assert abs(determinant(U)) == 1


@settings(max_examples=150)
@given(small_matrices)
def test_hnf_properties(M):
    H, U = hermite_normal_form(M)
    assert matmul(U, M) == H
    assert abs(determinant(U)) == 1
    pivots = []
    for row in H:
        nz = [j for j, v in enumerate(row) if v]
        if not nz:
            pivots.append(None)
            continue
        j = nz[0]
        assert row[j] > 0
        pivots.append(j)
    # nonzero rows first, pivot columns strictly increasing, entries
    # above each pivot reduced into [0, pivot)
    nonzero = [p for p in pivots if p is not None]
    assert pivots[: len(nonzero)] == nonzero
    assert nonzero == sorted(nonzero) and len(set(nonzero)) == len(nonzero)
    for r, j in enumerate(nonzero):
        for above in range(r):
            assert 0 <= H[above][j] < H[r][j]


def test_determinant_goldens():
    assert determinant([[1, 2], [3, 4]]) == -2
    assert determinant([[5]]) == 5
    assert determinant([]) == 1
    assert determinant([[2, 0, 0], [0, 3, 0], [0, 0, 4]]) == 24
    assert determinant([[1, 1], [1, 1]]) == 0


@settings(max_examples=150)
@given(square_matrices)
def test_determinant_matches_rational_elimination(M):
    assert determinant(M) == rational_det(M)


@given(square_matrices, square_matrices)
def test_determinant_multiplicative(A, B):
    if len(A) != len(B):
        return
    assert determinant(matmul(A, B)) == determinant(A) * determinant(B)


def test_zero_row_and_zero_column_shapes():
    assert hermite_normal_form(()) == ((), ())
    H, U = hermite_normal_form(((), ()))
    assert H == ((), ())
    assert U == ((1, 0), (0, 1))


def lattice_of(rows):
    """The lattice spanned by the integer rows."""
    lattice = IntLattice(len(rows[0]))
    for row in rows:
        lattice.add(row)
    return lattice


def test_row_span_membership_goldens():
    assert not lattice_of([[2]]).contains([1])
    assert lattice_of([[2]]).contains([4])
    assert lattice_of([[1, 1], [0, 2]]).contains([1, 3])
    assert not lattice_of([[1, 1], [0, 2]]).contains([1, 2])
    assert lattice_of([[1, 0], [0, 1]]).contains([7, -3])
    assert lattice_of([[1, 1]]).contains([0, 0])


def test_row_span_membership_respects_rational_obstruction():
    # rationally dependent but not an integer combination
    lattice = lattice_of([[2, 0], [0, 2]])
    assert not lattice.contains([1, 1])
    assert lattice.contains([2, -4])


def test_lattice_incremental():
    lat = IntLattice(2)
    assert not lat.contains([1, 0])
    assert lat.contains([0, 0])
    assert lat.add([2, 0])
    assert lat.contains([4, 0]) and not lat.contains([1, 0])
    assert lat.add([1, 0])
    assert lat.contains([1, 0])
    assert not lat.add([3, 0])
    assert lat.rank() == 1
    assert lat.add([0, 5])
    assert lat.rank() == 2


def test_lattice_gcd_combination():
    lat = IntLattice(1)
    lat.add([6])
    lat.add([10])
    assert lat.contains([2])
    assert not lat.contains([1])


@settings(max_examples=100)
@given(
    st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3), min_size=1, max_size=4),
    st.lists(st.integers(-3, 3), min_size=1, max_size=4),
)
def test_lattice_contains_integer_combinations(rows, coeffs):
    lat = IntLattice(3)
    for row in rows:
        lat.add(row)
    combo = [0, 0, 0]
    for c, row in zip(coeffs, rows):
        combo = [a + c * b for a, b in zip(combo, row)]
    assert lat.contains(combo)


# Small entries make singular matrices common.
det_matrices = st.integers(0, 6).flatmap(
    lambda n: st.lists(
        st.lists(st.sampled_from((0, 0, 1, -1, 2, -3, 7)), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


@settings(max_examples=300)
@given(det_matrices)
def test_lattice_det_matches_bareiss(M):
    lat = IntLattice(len(M))
    for row in M:
        lat.add(row)
    assert lat.det() == determinant(M)


def test_lattice_det_goldens():
    for rows, det in (
        ([[0, 1], [1, 0]], -1),
        ([[-1, 0], [0, 1]], -1),
        ([[2, 4], [1, 1]], -2),
        ([[6, 0], [10, 0]], 0),
        ([[0, 0, 1], [1, 0, 0], [0, 1, 0]], 1),
    ):
        lat = IntLattice(len(rows))
        for row in rows:
            lat.add(row)
        assert lat.det() == det == determinant(rows)
    assert IntLattice(0).det() == 1


def test_lattice_det_needs_exactly_n_vectors():
    lat = IntLattice(3)
    for row in ([1, 0, 0], [0, 1, 0]):
        lat.add(row)
    with pytest.raises(ValueError):
        lat.det()
    lat.add([0, 0, 1])
    assert lat.det() == 1
    lat.add([1, 1, 1])
    with pytest.raises(ValueError):
        lat.det()


# The integer reduced echelon kernel, against a Fraction elimination oracle.


def oracle_consistent_rank(rows, m):
    """Gauss-Jordan over Fractions: (consistent, rank) of c.x = d rows."""
    work = [[Fraction(v) for v in c] + [Fraction(d)] for c, d in rows]
    rank = 0
    for col in range(m):
        pr = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pr is None:
            continue
        work[rank], work[pr] = work[pr], work[rank]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                f = work[i][col] / work[rank][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return all(r[m] == 0 for r in work[rank:]), rank


@st.composite
def integer_systems(draw):
    """m and up to 6 rows over m <= 4 variables; about half the rows are
    integer combinations of earlier ones, some with a shifted constant, so
    implied and inconsistent rows both occur."""
    m = draw(st.integers(1, 4))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        if rows and draw(st.booleans()):
            picks = draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3))
            mults = draw(
                st.lists(st.integers(-3, 3), min_size=len(picks), max_size=len(picks))
            )
            c = tuple(sum(k * r[0][j] for k, r in zip(mults, picks)) for j in range(m))
            shift = draw(st.sampled_from((0, 0, 1, -2)))
            d = sum(k * r[1] for k, r in zip(mults, picks)) + shift
        else:
            c = tuple(draw(st.lists(st.integers(-4, 4), min_size=m, max_size=m)))
            d = draw(st.integers(-6, 6))
        rows.append((c, d))
    strict = (
        tuple(draw(st.lists(st.integers(-4, 4), min_size=m, max_size=m))),
        draw(st.integers(-6, 6)),
    )
    return m, rows, strict


def build_flat(rows):
    """Insert rows in order; the flat before the first inconsistent row
    and the rows it holds."""
    flat, taken = (), []
    for r in rows:
        new = insert_row(flat, r)
        if new is None:
            break
        flat = new
        taken.append(r)
    return flat, taken


def flat_point(flat, m, free_values):
    """The point of the flat with the given values on its free variables."""
    pivots = {p for p, _ in flat}
    free = [k for k in range(m) if k not in pivots]
    x = [Fraction(0)] * m
    for k, v in zip(free, free_values):
        x[k] = Fraction(v)
    for p, (e, f) in flat:
        x[p] = Fraction(f - sum(e[k] * x[k] for k in free), e[p])
    return x, free


def residual(row, x):
    c, d = row
    return sum(ck * xk for ck, xk in zip(c, x)) - d


def test_kernel_goldens():
    flat = insert_row((), ((1, 1, 0), 0))
    assert flat == ((0, ((1, 1, 0), 0)),)
    # The new pivot 1 is cleared from the first row.
    flat = insert_row(flat, ((0, -2, -4), -6))
    assert flat == ((0, ((1, 0, -2), -3)), (1, ((0, 1, 2), 3)))
    assert insert_row(flat, ((3, 1, -4), -6)) is flat
    assert insert_row(flat, ((3, 1, -4), -5)) is None
    assert reduce_row(flat, ((-2, 1, 0), 0)) == ((0, 0, -2), -3)
    assert reduce_row(flat, ((-4, 2, 0), 1)) == ((0, 0, -12), -17)
    assert primitive_row((0, 0), 0) == ((0, 0), 0)
    assert primitive_row([-4, 6], 2) == ((-2, 3), 1)


def assert_flat_invariant(flat, m):
    pivots = [p for p, _ in flat]
    assert len(set(pivots)) == len(pivots)
    for p, (e, f) in flat:
        assert len(e) == m
        assert next(j for j, v in enumerate(e) if v) == p
        assert e[p] > 0
        assert gcd(*e, f) == 1
        assert all(e[q] == 0 for q in pivots if q != p)


@settings(max_examples=300)
@given(integer_systems())
def test_insert_row_matches_fraction_oracle(system):
    m, rows, _ = system
    flat, verdicts = (), {"none": 0, "same": 0, "new": 0}
    for k, r in enumerate(rows):
        consistent, rank = oracle_consistent_rank(rows[: k + 1], m)
        new = insert_row(flat, r)
        if not consistent:
            assert new is None
            return
        if rank == len(flat):
            assert new is flat
            continue
        c, d = reduce_row(flat, r)
        col = next(j for j, v in enumerate(c) if v)
        sign = 1 if c[col] > 0 else -1
        assert len(new) == rank == len(flat) + 1
        assert new[-1] == (col, (tuple(sign * v for v in c), sign * d))
        assert all(e[col] == 0 for _, (e, _) in new[:-1])
        assert [p for p, _ in new[:-1]] == [p for p, _ in flat]
        assert_flat_invariant(new, m)
        flat = new


@settings(max_examples=300)
@given(integer_systems(), st.lists(st.integers(-5, 5), min_size=4, max_size=4))
def test_flat_points_satisfy_inserted_equalities(system, values):
    m, rows, _ = system
    flat, taken = build_flat(rows)
    x, free = flat_point(flat, m, values)
    assert len(free) == m - len(flat)
    for r in taken:
        assert residual(r, x) == 0


@settings(max_examples=300)
@given(integer_systems())
def test_reduce_row_is_a_positive_multiple_on_the_flat(system):
    m, rows, strict = system
    flat, _ = build_flat(rows)
    reduced = reduce_row(flat, strict)
    c, d = reduced
    assert all(c[p] == 0 for p, _ in flat)
    assert gcd(*c, d) in (0, 1)
    # Both rows are affine on the flat; compare them at the point with all
    # free variables 0 and at each free unit vector.
    base, free = flat_point(flat, m, [0] * m)
    points = [base] + [
        flat_point(flat, m, [int(k == j) for k in range(len(free))])[0]
        for j in range(len(free))
    ]
    before = [residual(strict, x) for x in points]
    after = [residual(reduced, x) for x in points]
    nonzero = [(b, a) for b, a in zip(before, after) if b]
    if not nonzero:
        assert not any(after) and reduced == ((0,) * m, 0)
        return
    b0, a0 = nonzero[0]
    ratio = a0 / b0
    assert ratio > 0
    assert all(a == ratio * b for b, a in zip(before, after))
