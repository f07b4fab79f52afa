"""Deletion, contraction, walls, and the minor laws used for verification.

Both minors drop coordinate i and renumber the indices above it down by
one.  Deletion keeps every covector; contraction keeps the covectors
vanishing at i.  Each minor is looked up once per Com and element, and
is shared by value within its minor tree: the root and every minor
derived from it share one table of minors keyed by ``(n, mask pairs)``.
So deleting i then j or j then i, deleting and contracting in either
order, and deleting or contracting a coloop each give one object, and
the checks that reach it by any path share its circuits and NBC
families.  That is sound because every memoized result is a pure
function of ``(n, covectors)``.  The table holds its minors weakly, so
it keeps nothing alive on its own, and it belongs to one root, so
separately built equal roots share no minor.  ``label_map`` reports the
renumbering so callers can recover original hyperplane labels.

Inside the checks, sign vectors stay (plus, minus) mask pairs, looked up
in ``Com._members`` or the column index and compared as sets.  The tope
recursion returns a bool, and its element is the witness; the disjoint
covector and lift checks return the first failing circuit, and the
circuit minor laws the name of the first failing law, or None when they
pass.
"""

from __future__ import annotations

from typing import Iterable
from weakref import WeakValueDictionary

from .circuits import circuits, minimal_support_walk, submasks
from .core import Com, SignVector, _drop_bit, coloops, covector_columns, topes


def project(x: SignVector, i: int) -> SignVector:
    """Forget coordinate i, shifting higher indices down."""
    if not 0 <= i < x.n:
        raise ValueError("index outside ground set")
    return SignVector(x.n - 1, _drop_bit(x.plus, i), _drop_bit(x.minus, i))


def inject(x: SignVector, i: int) -> SignVector:
    """Insert a zero coordinate at position i."""
    if not 0 <= i <= x.n:
        raise ValueError("insertion point outside range")
    return SignVector(x.n + 1, _insert_bit(x.plus, i), _insert_bit(x.minus, i))


def _insert_bit(mask: int, i: int) -> int:
    """The mask with a zero bit inserted at position i; ``_drop_bit`` undoes it."""
    low = mask & ((1 << i) - 1)
    return low | ((mask ^ low) << 1)


def _projected(xs: Iterable[SignVector], i: int) -> list[tuple[int, int]]:
    """The mask pairs of the projections at i, in order."""
    return [(_drop_bit(x.plus, i), _drop_bit(x.minus, i)) for x in xs]


def _minor(L: Com, kind: str, i: int) -> Com:
    """The deletion or contraction at i, memoized on L under (kind, i)
    and shared by value within L's minor tree."""
    if not 0 <= i < L.n:
        raise ValueError("index outside ground set")

    def build() -> Com:
        dropped = 1 << i if kind == "contract" else 0
        members = frozenset(
            (_drop_bit(p, i), _drop_bit(m, i))
            for p, m in L._members
            if not (p | m) & dropped
        )
        if L._tree is None:
            L._tree = WeakValueDictionary()
        M = L._tree.get((L.n - 1, members))
        if M is None:
            M = Com(L.n - 1, (SignVector(L.n - 1, p, m) for p, m in members))
            M._tree = L._tree
            L._tree[M.n, M._members] = M
        return M

    return L._cached((kind, i), build)


def delete(L: Com, i: int) -> Com:
    """The deletion at i; computed once per Com and element."""
    return _minor(L, "delete", i)


def contract(L: Com, i: int) -> Com:
    """The contraction at i; computed once per Com and element."""
    return _minor(L, "contract", i)


def label_map(n: int, i: int) -> dict[int, int]:
    """Minor index -> original index after removing coordinate i."""
    if not 0 <= i < n:
        raise ValueError("index outside ground set")
    return {j if j < i else j - 1: j for j in range(n) if j != i}


def tope_trichotomy(
    L: Com, i: int
) -> tuple[tuple[SignVector, ...], tuple[SignVector, ...], tuple[SignVector, ...]]:
    """Split topes by wall sign at i: (wall and positive, wall and negative,
    not a wall).  A tope is a wall at i when zeroing its sign at i gives a
    covector.  Raises on coloops, where no tope has a sign at i."""
    if not 0 <= i < L.n:
        raise ValueError("index outside ground set")
    if coloops(L) >> i & 1:
        raise ValueError("coordinate is a coloop")
    plus: list[SignVector] = []
    minus: list[SignVector] = []
    non_wall: list[SignVector] = []
    bit, members = 1 << i, L._members
    for t in topes(L):
        if (t.plus & ~bit, t.minus & ~bit) in members:
            (plus if t.plus & bit else minus).append(t)
        else:
            non_wall.append(t)
    return tuple(plus), tuple(minus), tuple(non_wall)


def verify_tope_recursion(L: Com, i: int) -> bool:
    """Check |topes| = |deletion topes| + |contraction topes| at i.

    The projection must restrict to a bijection from the positive-wall
    topes onto the contraction topes and from the remaining topes onto
    the deletion topes.  The count identity follows from the two
    bijections, so it is not tested apart.  Raises on coloops.
    """
    t_plus, t_minus, t_non = tope_trichotomy(L, i)
    return all(
        sorted(_projected(part, i)) == sorted((t.plus, t.minus) for t in topes(M))
        for part, M in ((t_plus, contract(L, i)), (t_minus + t_non, delete(L, i)))
    )


def verify_circuit_minor_laws(L: Com, i: int) -> str | None:
    """The name of the first of the three circuit laws for the minors at
    i that fails ("deletion", "contraction" or "projection"), or None.

    (1) Circuits of the deletion are the projections of circuits
        vanishing at i.
    (2) For non coloop i, circuits of the contraction are the support
        minimal projections of blockers of L: the patterns on the
        remaining elements whose lift by 0, + or - at i is a blocker.
    (3) Nonzero projections of circuits with i in their support are
        circuits of the contraction.
    """
    bit = 1 << i
    C, cols = circuits(L), covector_columns(L)
    if circuits(delete(L, i))._members != set(
        _projected((x for x in C.circuits if not x.support & bit), i)
    ):
        return "deletion"

    def projected_blockers(mask: int) -> list[int]:
        # A pattern whose lift by 0 blocks has lifts by + and - that
        # block too, so the lifts by + and - decide.
        out = []
        wide = _insert_bit(mask, i)
        for pat in submasks(wide):
            bits = cols.extending(pat, wide ^ pat)
            if not bits & cols.plus[i] or not bits & cols.minus[i]:
                out.append(_drop_bit(pat, i))
        return out

    con_circ = circuits(contract(L, i))
    if not coloops(L) >> i & 1 and (
        minimal_support_walk(L.n - 1, projected_blockers).circuits != con_circ.circuits
    ):
        return "contraction"

    # only nonzero projections; a circuit supported exactly at i drops
    # to the zero vector, which is a circuit just for empty minors
    if not con_circ._members.issuperset(
        _projected((x for x in C.circuits if x.support & bit and x.support != bit), i)
    ):
        return "projection"
    return None


def verify_disjoint_covector(L: Com) -> SignVector | None:
    """The first symmetric circuit with no covector of disjoint support,
    or None when every symmetric circuit pair admits one."""
    C = circuits(L)
    cols = covector_columns(L)
    for x in C.circuits:
        if x.is_zero() or not C.paired(x):
            continue
        if not cols.vanishing(x.support):
            return x
    return None


def verify_lift(L: Com, i: int) -> SignVector | None:
    """The first symmetric circuit of the contraction at i that is no
    projection of a symmetric circuit of L, or None when all lift."""
    C = circuits(L)
    con = circuits(contract(L, i))
    lifted = set(_projected((c for c in C.circuits if C.paired(c)), i))
    for x in con.circuits:
        if x.is_zero() or not con.paired(x):
            continue
        if (x.plus, x.minus) not in lifted:
            return x
    return None


def verify_boolean_extension(L: Com, J: int) -> bool:
    """All 2^|J| full sign patterns on the support mask J extend to
    covectors.

    Precondition: J contains no circuit support; raises ValueError when
    it does, since the guarantee only holds in that case.  The patterns
    are counted by a scan of the covectors, not by the column index that
    the circuits come from, so a faulty index cannot certify itself.
    """
    for s in circuits(L).minimal_deficient_supports:
        if s & J == s:
            raise ValueError("J contains a circuit support")
    realized = {v.plus & J for v in L.covectors if v.support & J == J}
    return len(realized) == 1 << J.bit_count()
