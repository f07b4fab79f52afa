"""Circuits of a conditional oriented matroid.

The generator test: a sign vector X blocks a covector set L when
X o Y != Y for every Y in L.  Since (X o Y)_i = X_i wherever X_i != 0,
the equation X o Y = Y holds exactly when Y agrees with X on the whole
support of X.  So X blocks L if and only if no covector extends X, which
is the membership test implemented here.

Circuits are the support minimal blockers.  Equivalently, call a subset
S of the ground set deficient when the covectors realize fewer than
2^|S| full sign patterns on S.  Deficiency is upward closed: if some
pattern p on S is extended by no covector, then any full pattern on a
superset T that restricts to p is extended by no covector either, since
a covector matching it on T matches p on S.  The circuits are exactly
the unrealized full patterns on the inclusion minimal deficient
supports, and the enumeration below walks supports by cardinality,
skipping supersets of deficient supports already found.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
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
        """One representative per pair {X, -X} with both members present."""
        reps = []
        seen = set()
        for c in self.circuits:
            if not self.paired(c) or (c.plus, c.minus) in seen:
                continue
            seen.add((c.minus, c.plus))
            reps.append(c)
        return reps

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

    Intended for ground sets up to around 16 elements; the support scan
    prunes every superset of a deficient support already found.
    Computed once per Com.
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


def minimal_support_walk(n: int, unrealized: Callable[[int], list[int]]) -> CircuitSet:
    """Circuits from a per-support test, walking supports by cardinality.

    ``unrealized(mask)`` returns the plus masks of the full sign patterns
    on the support ``mask`` that are not realized.  A support with any
    unrealized pattern is deficient, its unrealized patterns are
    circuits, and its supersets are skipped.
    """
    found: list[SignVector] = []
    deficient: list[int] = []
    supports: list[frozenset[int]] = []
    for k in range(n + 1):
        for combo in combinations(range(n), k):
            mask = 0
            for i in combo:
                mask |= 1 << i
            if any(mask & d == d for d in deficient):
                continue
            missing = unrealized(mask)
            if not missing:
                continue
            deficient.append(mask)
            supports.append(frozenset(combo))
            found.extend(SignVector(n, pat, mask ^ pat) for pat in missing)
        if k == 0 and deficient:
            # The zero sign vector blocks everything; nothing is realized.
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


def orthogonal(x: SignVector, y: SignVector) -> bool:
    """Orthogonality of sign vectors.

    Either the supports are disjoint, or some common index carries equal
    nonzero signs and another carries opposite nonzero signs.
    """
    if x.n != y.n:
        raise ValueError("ground sets differ")
    if (x.support & y.support) == 0:
        return True
    agree = (x.plus & y.plus) | (x.minus & y.minus)
    oppose = (x.plus & y.minus) | (x.minus & y.plus)
    return agree != 0 and oppose != 0


def om_circuits(L: Com) -> CircuitSet:
    """Support minimal nonzero sign vectors orthogonal to every covector.

    Only defined for oriented matroids; raises ValueError otherwise.
    For oriented matroids this set coincides with circuits(L), and the
    full 3^n scan here serves as an independent cross check at small n.
    """
    if not is_oriented_matroid(L):
        raise ValueError("input is not an oriented matroid")
    n = L.n
    cov = L.covectors
    members: list[SignVector] = []
    for signs in product((1, 0, -1), repeat=n):
        x = SignVector.from_signs(signs)
        if x.is_zero():
            continue
        if all(orthogonal(x, v) for v in cov):
            members.append(x)
    minimal = minimal_masks(x.support for x in members)
    out = [x for x in members if x.support in minimal]
    out.sort(key=SignVector.sort_key)
    supports = sorted(
        (frozenset(i for i in range(n) if (m >> i) & 1) for m in minimal),
        key=lambda s: (len(s), sorted(s)),
    )
    return CircuitSet(n, tuple(out), tuple(supports))
