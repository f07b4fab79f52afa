"""Circuits of a conditional oriented matroid.

The generator test: a sign vector X blocks a covector set L when
X o Y != Y for every Y in L.  Since (X o Y)_i = X_i wherever X_i != 0,
the equation X o Y = Y holds exactly when Y agrees with X on the whole
support of X.  So X blocks L if and only if no covector extends X, which
is the membership test implemented here.

Circuits are the support minimal blockers.  Every circuit family here
is a family of sign vectors cut down to its inclusion minimal supports:
blockers, infeasible patterns (``realize.geometric_circuits``), vectors
orthogonal to all covectors (``om_circuits``) and projected blockers (the
contraction law in ``minors``).  ``minimal_support_walk`` takes any such
family support by support, walks supports by cardinality and skips the
supersets of supports found.  The pruning is exact for every family,
upward closed or not, since such a superset cannot be minimal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Iterable, Iterator

from .core import Com, SignVector, is_oriented_matroid


@dataclass(frozen=True)
class CircuitSet:
    """Circuits plus the minimal deficient supports they live on."""

    n: int
    circuits: tuple[SignVector, ...]
    minimal_deficient_supports: tuple[frozenset[int], ...]
    _members: frozenset[tuple[int, int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        members = frozenset((c.plus, c.minus) for c in self.circuits)
        object.__setattr__(self, "_members", members)

    def __contains__(self, x: SignVector) -> bool:
        return (x.plus, x.minus) in self._members

    def paired(self, x: SignVector) -> bool:
        """True when -x is a circuit."""
        return (x.minus, x.plus) in self._members

    def words(self) -> list[str]:
        return [c.word() for c in self.circuits]

    def symmetric_pairs(self) -> list[SignVector]:
        """One representative per pair {X, -X} with both members present:
        the one that comes first in canonical order."""
        return [
            c for c in self.circuits if self.paired(c) and c.sort_key() <= (-c).sort_key()
        ]

    def unpaired(self) -> list[SignVector]:
        """Circuits X with -X not a circuit."""
        return [c for c in self.circuits if not self.paired(c)]


def in_generator_set(L: Com, x: SignVector) -> bool:
    """True when no covector of L extends x on the support of x."""
    if x.n != L.n:
        raise ValueError("ground sets differ")
    return not any(
        x.plus & ~v.plus == 0 and x.minus & ~v.minus == 0 for v in L.covectors
    )


def realized_patterns(L: Com, S: frozenset[int] | set[int]) -> frozenset[tuple[int, ...]]:
    """Full sign patterns on S realized by covectors, as tuples over sorted(S)."""
    idx = sorted(S)
    mask = 0
    for i in idx:
        if i < 0 or i >= L.n:
            raise ValueError("index outside ground set")
        mask |= 1 << i
    seen = set()
    for v in L.covectors:
        if v.support & mask == mask:
            seen.add(tuple(1 if (v.plus >> i) & 1 else -1 for i in idx))
    return frozenset(seen)


def circuits(L: Com) -> CircuitSet:
    """All circuits of L, by ascending support size.

    A support S is deficient when the covectors realize fewer than 2^|S|
    full sign patterns on it; the circuits are the missing patterns on
    the minimal deficient supports.  Intended for ground sets up to
    around 16 elements.  Computed once per Com.
    """
    cov = L.covectors

    def unrealized(mask: int) -> list[int]:
        target = 1 << bin(mask).count("1")
        realized: set[int] = set()
        for v in cov:
            if v.support & mask == mask:
                realized.add(v.plus & mask)
                if len(realized) == target:
                    return []
        return [pat for pat in submasks(mask) if pat not in realized]

    return L._cached("circuits", lambda: minimal_support_walk(L.n, unrealized))


def minimal_support_walk(n: int, family: Callable[[int], list[int]]) -> CircuitSet:
    """The members of a family on its inclusion minimal supports.

    ``family(mask)`` returns the plus masks of the members with support
    exactly ``mask``.  A visited support with members is minimal: its
    proper subsets all came earlier without members, or it would have been
    skipped.  Circuits come out canonically ordered, supports by size.
    """
    found: list[SignVector] = []
    minimal: list[int] = []
    supports: list[frozenset[int]] = []
    for k in range(n + 1):
        for combo in combinations(range(n), k):
            mask = 0
            for i in combo:
                mask |= 1 << i
            if any(mask & d == d for d in minimal):
                continue
            members = family(mask)
            if not members:
                continue
            minimal.append(mask)
            supports.append(frozenset(combo))
            found.extend(SignVector(n, pat, mask ^ pat) for pat in members)
        if k == 0 and minimal:
            # The zero sign vector is a member; no other support is minimal.
            break
    found.sort(key=SignVector.sort_key)
    return CircuitSet(n, tuple(found), tuple(supports))


def minimal_masks(masks: Iterable[int]) -> set[int]:
    """The inclusion minimal members of a family of bit masks."""
    family = set(masks)
    return {s for s in family if not any(t != s and t & s == t for t in family)}


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
