"""Deletion, contraction, walls, and the minor laws used for verification.

Both minors drop coordinate i and renumber the indices above it down by
one.  Deletion keeps every covector; contraction keeps the covectors
vanishing at i.  A minor is built by ``Com`` like any other input and
gets its own column index and walk.  Each minor is looked up once per
Com and element, and is shared by value within its minor tree: the root
and every minor derived from it share one table of minors keyed by
``(n, mask pairs)``, which only this module knows.  So deleting i then j
or j then i, deleting and contracting in either order, and deleting or
contracting a coloop each give one object, and the checks that reach it
by any path share its circuits and NBC families.  That is sound because
every memoized result is a pure function of ``(n, covectors)``.  The
table holds its minors weakly, so it keeps nothing alive on its own, and
it belongs to one root, so separately built equal roots share no minor.
``label_map`` reports the renumbering so callers can recover original
hyperplane labels.

Inside the checks, sign vectors stay (plus, minus) mask pairs, looked up
in ``Com._members`` or in sets built by one covector scan, never in the
column index the circuits come from, and compared as sets.  The tope
recursion returns a bool, and its element is the witness; the disjoint
covector and lift checks and the generator test ``extended_circuit``
return the first failing circuit, and the circuit minor laws the name of
the first failing law, or None.
"""

from __future__ import annotations

from typing import Iterable
from weakref import WeakValueDictionary

from .circuits import circuits, minimal_support_walk, realized_patterns, submasks
from .core import Com, SignVector, check_index, coloops, topes


def project(x: SignVector, i: int) -> SignVector:
    """Forget coordinate i, shifting higher indices down."""
    check_index(i, x.n)
    return SignVector(x.n - 1, _drop_bit(x.plus, i), _drop_bit(x.minus, i))


def inject(x: SignVector, i: int) -> SignVector:
    """Insert a zero coordinate at position i."""
    check_index(i, x.n + 1, "insertion point outside range")
    return SignVector(x.n + 1, _insert_bit(x.plus, i), _insert_bit(x.minus, i))


def _drop_bit(mask: int, i: int) -> int:
    """The mask with element i removed and the elements above it
    renumbered down by one, as in a minor at i."""
    low = mask & ((1 << i) - 1)
    return low | ((mask >> (i + 1)) << i)


def _insert_bit(mask: int, i: int) -> int:
    """The mask with a zero bit inserted at position i; ``_drop_bit`` undoes it."""
    low = mask & ((1 << i) - 1)
    return low | ((mask ^ low) << 1)


def _projected(xs: Iterable[SignVector], i: int) -> list[tuple[int, int]]:
    """The mask pairs of the projections at i, in order."""
    return [(_drop_bit(x.plus, i), _drop_bit(x.minus, i)) for x in xs]


def _minor(L: Com, kind: str, i: int) -> Com:
    """The deletion or contraction at i, memoized on L under (kind, i)
    and shared by value within L's minor tree.

    One projection of the parent's mask pairs, with ``_drop_bit``
    inline, gives either minor: contraction keeps the pairs zero at
    ``bit``, deletion (``bit`` 0) keeps them all.  The tree's table is
    the root's memoized "minor_tree" entry, copied into each minor's
    memo; a minor is stored under its own ``_members``.  The index is
    checked before the memo is read, since ("delete", 1.0) equals ("delete", 1).
    """
    check_index(i, L.n)

    def build() -> Com:
        n, low, bit = L.n - 1, (1 << i) - 1, 1 << i if kind == "contract" else 0
        high = ~low
        members = frozenset(
            (p & low | p >> 1 & high, m & low | m >> 1 & high)
            for p, m in L._members
            if not (p | m) & bit
        )
        table = L._cached("minor_tree", WeakValueDictionary)
        M = table.get((n, members))
        if M is None:
            M = Com(n, (SignVector(n, p, m) for p, m in members))
            M._memo["minor_tree"] = table
            table[n, M._members] = M
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
    check_index(i, n)
    return {j if j < i else j - 1: j for j in range(n) if j != i}


def tope_trichotomy(
    L: Com, i: int
) -> tuple[tuple[SignVector, ...], tuple[SignVector, ...], tuple[SignVector, ...]]:
    """Split topes by wall sign at i: (wall and positive, wall and negative,
    not a wall).  A tope is a wall at i when zeroing its sign at i gives a
    covector.  Raises on coloops, where no tope has a sign at i."""
    check_index(i, L.n)
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
        remaining elements whose lift by 0, + or - at i is a blocker,
        found by one scan of the covectors per support.
    (3) Nonzero projections of circuits with i in their support are
        circuits of the contraction.

    Raises ValueError when i is outside the ground set.
    """
    check_index(i, L.n)
    bit = 1 << i
    C = circuits(L)
    if circuits(delete(L, i))._members != set(
        _projected((x for x in C.circuits if not x.support & bit), i)
    ):
        return "deletion"

    def projected_blockers(mask: int) -> list[int]:
        # A pattern whose lift by 0 blocks has lifts by + and - that
        # block too, so the lifts by + and - decide: as plus masks of
        # patterns on wide | bit, they are pat | bit and pat.
        wide = _insert_bit(mask, i)
        seen = realized_patterns(L, wide | bit)
        return [_drop_bit(pat, i) for pat in submasks(wide) if not {pat, pat | bit} <= seen]

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
    or None when every symmetric circuit pair admits one.  It scans the
    covectors' supports, not the column index that made the circuits."""
    C = circuits(L)
    supports = {v.support for v in L.covectors}
    for x in C.circuits:
        if not x.is_zero() and C.paired(x) and all(s & x.support for s in supports):
            return x
    return None


def extended_circuit(L: Com) -> SignVector | None:
    """The first circuit, in canonical order, that a covector of widest
    support extends, or None; one scan per Com.  The composition of all
    covectors has every element but the coloops as its support, and the
    covectors of that support are the widest (the topes, unless there are
    coloops).  When Y extends X so does the widest Y o T, for any widest T,
    so a scan of them, not of the column index, finds every such circuit."""

    def scan() -> SignVector | None:
        support = ((1 << L.n) - 1) & ~coloops(L)
        widest = [(v.plus, v.minus) for v in L.covectors if v.support == support]
        return next((
            x for x in circuits(L).circuits
            if not all(x.plus & ~p or x.minus & ~m for p, m in widest)
        ), None)

    return L._cached("extended_circuit", scan)


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
    it does, since the guarantee only holds in that case, and when J has
    an index outside the ground set.  ``realized_patterns`` counts the
    patterns by a scan of the covectors, not by the column index that the
    circuits come from, so a faulty index cannot certify itself.
    """
    realized = realized_patterns(L, J)
    if any(s & J == s for s in circuits(L).minimal_deficient_supports):
        raise ValueError("J contains a circuit support")
    return len(realized) == 1 << J.bit_count()
