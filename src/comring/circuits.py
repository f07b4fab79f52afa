"""Circuits of a conditional oriented matroid.

The generator test: a sign vector X blocks a covector set L when
X o Y != Y for every Y in L.  Since (X o Y)_i = X_i wherever X_i != 0,
the equation X o Y = Y holds exactly when Y agrees with X on the whole
support of X.  So X blocks L if and only if no covector extends X, which
is the membership test implemented here.  Every extension test ANDs the
per-element covector bit sets of ``core.covector_columns``: the
covectors extending X are the AND of the plus columns on X+ and the
minus columns on X-.  That is exact for any covector set, COM or not.

Circuits are the support minimal blockers.  Every circuit family here
is a family of sign vectors cut down to its inclusion minimal supports:
blockers, infeasible patterns (``realize.geometric_circuits``), vectors
orthogonal to all covectors (``om_circuits``) and projected blockers (the
contraction law in ``minors``).  They, and the NBC sets of ``nbc``, run
one support walk, ``unblocked_levels``: it tests a k-set only when each
of its (k-1)-subsets was tested and found unblocked, k set lookups that
skip exactly the supersets of the blocked supports.  For a circuit
family a support is blocked when the family has members on it, so every
support with members the walk tests is minimal, whether the family is
upward closed or not.  Supports are bit masks throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from .core import Columns, Com, SignVector, covector_columns, elements, is_oriented_matroid


@dataclass(frozen=True)
class CircuitSet:
    """Circuits plus the minimal deficient supports they live on, as bit
    masks."""

    n: int
    circuits: tuple[SignVector, ...]
    minimal_deficient_supports: tuple[int, ...]
    _members: frozenset[tuple[int, int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        members = frozenset((c.plus, c.minus) for c in self.circuits)
        object.__setattr__(self, "_members", members)

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
    return not covector_columns(L).extending(x.plus, x.minus)


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


def realized_patterns(L: Com, S: int) -> frozenset[tuple[int, ...]]:
    """Full sign patterns on the support mask S realized by covectors, as
    tuples over the elements of S in ascending order."""
    if S < 0 or S >> L.n:
        raise ValueError("index outside ground set")
    idx = elements(S)
    return frozenset(
        tuple(1 if (pat >> i) & 1 else -1 for i in idx)
        for pat, bits in _patterns(covector_columns(L), S)
        if bits
    )


def circuits(L: Com) -> CircuitSet:
    """All circuits of L, by ascending support size.

    A support S is deficient when the covectors realize fewer than 2^|S|
    full sign patterns on it; the circuits are the missing patterns on
    the minimal deficient supports.  Intended for ground sets up to
    around 16 elements.  Computed once per Com.
    """

    def compute() -> CircuitSet:
        cols = covector_columns(L)
        return minimal_support_walk(
            L.n, lambda mask: [pat for pat, bits in _patterns(cols, mask) if not bits]
        )

    return L._cached("circuits", compute)


def unblocked_levels(n: int, blocked: Callable[[int], object]) -> list[list[int]]:
    """The supports on {0, ..., n-1} that hold no blocked support, by size.

    Level k lists the unblocked k-sets as bit masks in ``combinations``
    order; the walk stops at the first empty level, so no level is empty.
    A k-set is tested with ``blocked`` only when all of its (k-1)-subsets
    are unblocked.  Each k-set is reached from the (k-1)-set without its
    highest element, which keeps the order.
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
    exactly ``mask``.  A support with members blocks its supersets in
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


def _orthogonal(xp: int, xm: int, yp: int, ym: int) -> bool:
    """Orthogonality of the sign vectors with these plus and minus masks."""
    agree = (xp & yp) | (xm & ym)
    oppose = (xp & ym) | (xm & yp)
    return (agree == 0) == (oppose == 0)


def orthogonal(x: SignVector, y: SignVector) -> bool:
    """Orthogonality of sign vectors.

    Either the supports are disjoint, or some common index carries equal
    nonzero signs and another carries opposite nonzero signs.
    """
    if x.n != y.n:
        raise ValueError("ground sets differ")
    return _orthogonal(x.plus, x.minus, y.plus, y.minus)


def om_circuits(L: Com) -> CircuitSet:
    """Support minimal nonzero sign vectors orthogonal to every covector.

    Only defined for oriented matroids; raises ValueError otherwise.
    For oriented matroids this set equals circuits(L); as a cross check
    it shares only the support walk with ``circuits`` and tests each
    pattern for orthogonality to the covectors restricted to its support,
    not for extension.
    """
    if not is_oriented_matroid(L):
        raise ValueError("input is not an oriented matroid")
    cov = L.covectors

    def vectors(mask: int) -> list[int]:
        if not mask:
            return []
        rows = {(v.plus & mask, v.minus & mask) for v in cov}
        return [
            pat
            for pat in submasks(mask)
            if all(_orthogonal(pat, mask ^ pat, yp, ym) for yp, ym in rows)
        ]

    return minimal_support_walk(L.n, vectors)
