"""Circuits of a conditional oriented matroid.

The generator test: a sign vector X blocks a covector set L when
X o Y != Y for every Y in L.  Since (X o Y)_i = X_i wherever X_i != 0,
the equation X o Y = Y holds exactly when Y agrees with X on the whole
support of X.  So X blocks L if and only if no covector extends X.
``circuits`` finds the covectors extending X as the AND of the plus
columns on X+ and the minus columns on X- of ``core.covector_columns``,
exact for any covector set, COM or not.  It sweeps a support's patterns
by extending its parent's sweep (the support without its top element)
by that element's columns, and keeps one parent's sweep at a time.
``realized_patterns`` and ``in_generator_set`` scan the covectors.

Circuits are the support minimal blockers.  Every circuit family here
is a family of sign vectors cut down to its inclusion minimal supports:
blockers, infeasible patterns (``realize.geometric_circuits``), vectors
orthogonal to all covectors (``om_circuits``) and projected blockers (the
contraction law in ``minors``).  They, and the NBC sets of ``nbc``, run
one support walk, ``unblocked_levels``: it tests a k-set only when each
of its (k-1)-subsets was tested and found unblocked, k set lookups that
skip exactly the supersets of the blocked supports.  Its test is a
function of the mask alone; NBC passes a set's ``__contains__``.  For a
circuit family a support is blocked when the family has members on it,
so every support with members the walk tests is minimal, whether the
family is upward closed or not.  Supports are bit masks throughout.

The orthogonality test of ``om_circuits`` runs on per-element bit sets
of its own, built from the covector list and not from the column index,
so the cross check does not share the index with ``circuits``.  OR-ing
the sets over a pattern X gives A, the covectors that agree with X
somewhere, and O, those that oppose it somewhere; X is orthogonal to
every covector exactly when A == O.  It keeps its last parent's sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from .core import (
    Columns, Com, SignVector, check_index, covector_columns, elements, is_oriented_matroid
)


@dataclass(frozen=True)
class CircuitSet:
    """Circuits plus the minimal deficient supports they live on, as bit
    masks.  ``pair_supports`` holds the supports of ``symmetric_pairs()``,
    in the same order."""

    n: int
    circuits: tuple[SignVector, ...]
    minimal_deficient_supports: tuple[int, ...]
    _members: frozenset[tuple[int, int]] = field(init=False, repr=False, compare=False)
    pair_supports: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        members = frozenset((c.plus, c.minus) for c in self.circuits)
        object.__setattr__(self, "_members", members)
        pairs = tuple(c.support for c in self.symmetric_pairs())
        object.__setattr__(self, "pair_supports", pairs)

    def __contains__(self, x: SignVector) -> bool:
        return x.n == self.n and (x.plus, x.minus) in self._members

    def paired(self, x: SignVector) -> bool:
        """True when -x is a circuit."""
        return x.n == self.n and (x.minus, x.plus) in self._members

    def words(self) -> list[str]:
        return [c.word() for c in self.circuits]

    def symmetric_pairs(self) -> list[SignVector]:
        """One representative per pair {X, -X} with both members present:
        the first in canonical order, which is X unless its first nonzero
        sign is +: ``plus & -support`` is that sign's bit when it is +."""
        return [
            c for c in self.circuits if self.paired(c) and not c.plus & -c.support
        ]

    def unpaired(self) -> list[SignVector]:
        """Circuits X with -X not a circuit."""
        return [c for c in self.circuits if not self.paired(c)]


def in_generator_set(L: Com, x: SignVector) -> bool:
    """True when no covector of L extends x on the support of x."""
    if x.n != L.n:
        raise ValueError("ground sets differ")
    return x.plus not in realized_patterns(L, x.support)


def _patterns(cols: Columns, mask: int) -> list[tuple[int, int]]:
    """Every sign pattern on the support mask, as its plus mask, paired
    with the bit set of the covectors extending it."""
    out = [(0, cols.every)]
    while mask:
        low = mask & -mask
        i = low.bit_length() - 1
        p, m = cols.plus[i], cols.minus[i]
        out = [q for pat, bits in out for q in ((pat | low, bits & p), (pat, bits & m))]
        mask ^= low
    return out


def realized_patterns(L: Com, S: int) -> frozenset[int]:
    """The full sign patterns on the support mask S realized by covectors,
    each as its plus mask, from one scan of the covectors."""
    check_index(S, 1 << L.n)
    return frozenset(v.plus & S for v in L.covectors if v.support & S == S)


def circuits(L: Com) -> CircuitSet:
    """All circuits of L, by ascending support size.

    A support S is deficient when the covectors realize fewer than 2^|S|
    full sign patterns on it; the circuits are the missing patterns on
    the minimal deficient supports.  A parent's sweep pairs each of its
    patterns, as a plus mask, with the bit set of the covectors extending
    it.  The walk tests a parent's children one after another, each the
    parent plus one element above its top, so only the sweep of the last
    parent is kept: ``_patterns`` builds it once when the first child
    arrives, and each child costs one AND per parent pattern and sign of
    its top element.  The result does not depend on that order; a child
    of any other parent has its parent's sweep built afresh.  Intended
    for ground sets up to around 16 elements.  Computed once per Com.
    """

    def compute() -> CircuitSet:
        cols = covector_columns(L)
        parent, sweep = -1, []

        def missing(mask: int) -> list[int]:
            nonlocal parent, sweep
            if not mask:
                return [] if cols.every else [0]
            i = mask.bit_length() - 1
            top = 1 << i
            if mask ^ top != parent:
                parent = mask ^ top
                sweep = _patterns(cols, parent)
            p, m = cols.plus[i], cols.minus[i]
            return [pat | top for pat, bits in sweep if not bits & p] + [
                pat for pat, bits in sweep if not bits & m
            ]

        return minimal_support_walk(L.n, missing)

    return L._cached("circuits", compute)


def unblocked_levels(n: int, blocked: Callable[[int], bool]) -> list[list[int]]:
    """The supports on {0, ..., n-1} that hold no blocked support, by size.

    Level k lists the unblocked k-sets as bit masks in ``combinations``
    order; the walk stops at the first empty level, so no level is empty.
    A k-set is tested as ``blocked(mask)`` only when all of its
    (k-1)-subsets are unblocked, and once.  Each k-set is reached from its
    parent, the (k-1)-set without its highest element, which keeps the
    order, and the children of one parent are tested one after another.
    """
    levels: list[list[int]] = []
    level = [0]
    while level:
        clear = [mask for mask in level if not blocked(mask)]
        if not clear:
            break
        levels.append(clear)
        cleared = set(clear)
        level = []
        for mask in clear:
            for j in range(mask.bit_length(), n):
                grown = mask | 1 << j
                rest = mask
                while rest and grown ^ (rest & -rest) in cleared:
                    rest &= rest - 1
                if not rest:
                    level.append(grown)
    return levels


def minimal_support_walk(n: int, family: Callable[[int], list[int]]) -> CircuitSet:
    """The members of a family on its inclusion minimal supports.

    ``family(mask)`` returns the plus masks of the members with support
    exactly ``mask``; it is called in the order ``unblocked_levels``
    tests the masks.  A support with members blocks its supersets in
    ``unblocked_levels``, which tests a support only when no smaller one
    inside it had members; so every support with members that it tests
    is minimal.  Circuits come out canonically ordered, supports by size.
    """
    found: list[SignVector] = []
    supports: list[int] = []

    def blocked(mask: int) -> bool:
        members = family(mask)
        if members:
            supports.append(mask)
            found.extend(SignVector(n, pat, mask ^ pat) for pat in members)
        return bool(members)

    unblocked_levels(n, blocked)
    found.sort(key=SignVector.sort_key)
    return CircuitSet(n, tuple(found), tuple(supports))


def submasks(mask: int) -> Iterator[int]:
    """Every submask of mask, from mask itself down to 0."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def orthogonal(x: SignVector, y: SignVector) -> bool:
    """Orthogonality of sign vectors.

    Either the supports are disjoint, or some common index carries equal
    nonzero signs and another carries opposite nonzero signs.
    """
    if x.n != y.n:
        raise ValueError("ground sets differ")
    agree = (x.plus & y.plus) | (x.minus & y.minus)
    oppose = (x.plus & y.minus) | (x.minus & y.plus)
    return (agree == 0) == (oppose == 0)


def _orthogonality_sweep(plus: list[int], minus: list[int], mask: int) -> list[tuple]:
    """Each sign pattern on the support mask as (plus mask, A, O)."""
    sweep = [(0, 0, 0)]
    for i in elements(mask):
        p, m, low = plus[i], minus[i], 1 << i
        sweep = [
            q for pat, a, o in sweep for q in ((pat | low, a | p, o | m), (pat, a | m, o | p))
        ]
    return sweep


def om_circuits(L: Com) -> CircuitSet:
    """Support minimal nonzero sign vectors orthogonal to every covector.

    Only defined for oriented matroids; raises ValueError otherwise.
    For oriented matroids this set equals circuits(L); as a cross check
    it shares only the support walk with ``circuits``, and builds its own
    per-element bit sets from ``L.covectors``, not ``covector_columns``.
    Each pattern X on a support is swept with the pair (A, O): A ORs the
    plus sets on X+ and the minus sets on X-, the covectors agreeing with
    X somewhere, and O the other two, those opposing it somewhere.  A
    covector Y is orthogonal to X when it is in both or neither, so X is
    orthogonal to every covector exactly when A == O.  As in ``circuits``,
    ``_orthogonality_sweep`` builds each parent's sweep once and keeps the last.
    """
    if not is_oriented_matroid(L):
        raise ValueError("input is not an oriented matroid")
    plus, minus = [0] * L.n, [0] * L.n
    for k, v in enumerate(L.covectors):
        bit = 1 << k
        for i in elements(v.plus):
            plus[i] |= bit
        for i in elements(v.minus):
            minus[i] |= bit
    parent, sweep = -1, []

    def vectors(mask: int) -> list[int]:
        nonlocal parent, sweep
        if not mask:
            return []
        i = mask.bit_length() - 1
        top = 1 << i
        if mask ^ top != parent:
            parent = mask ^ top
            sweep = _orthogonality_sweep(plus, minus, parent)
        p, m = plus[i], minus[i]
        return [pat | top for pat, a, o in sweep if a | p == o | m] + [
            pat for pat, a, o in sweep if a | m == o | p
        ]

    return minimal_support_walk(L.n, vectors)
