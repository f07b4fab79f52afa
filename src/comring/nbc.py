"""Broken circuits and NBC sets relative to a linear order on the ground set.

A subset S is NBC when it contains no circuit support and, for every
symmetric circuit pair {X, -X}, does not contain the broken circuit of
X, which is the support of X with its order minimum removed.  Both
blocking conditions are monotone, so the family is closed downward, and
it is the support walk of ``circuits.unblocked_levels`` with "is a
blocker" as its test.  The walk tests a k-set only when all of its
(k-1)-subsets are NBC, so the k-set holds a blocker exactly when it is
one; non-minimal blockers are therefore harmless and are not filtered
out.  The sets come out level by level in canonical order (size, then
lexicographic), as bit masks, and the counts per size are the level
sizes.  The family size always equals the number of topes.

Like the minor checks, ``verify_nbc_tope`` and ``verify_nbc_recursion``
return a bool; the order (and its maximal element) is the witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable

from .circuits import CircuitSet, circuits, unblocked_levels
from .core import Com, SignVector, _drop_bit, coloops, elements, topes
from .minors import contract, delete


@dataclass(frozen=True)
class LinearOrder:
    """A permutation of {0, ..., n-1}; earlier entries are smaller."""

    perm: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError("not a permutation of the ground set")

    @classmethod
    def identity(cls, n: int) -> "LinearOrder":
        return cls(tuple(range(n)))

    @property
    def n(self) -> int:
        return len(self.perm)

    def ranks(self) -> dict[int, int]:
        return {e: r for r, e in enumerate(self.perm)}

    def minimum(self, subset: Iterable[int]) -> int:
        return min(subset, key=self.perm.index)

    def maximum_element(self) -> int:
        if not self.perm:
            raise ValueError("empty ground set has no maximum")
        return self.perm[-1]


def broken_circuit(x: SignVector, order: LinearOrder) -> int:
    """Support mask of x with its order minimum removed; x must be nonzero.

    The broken circuit of a one-element circuit is 0, the empty set."""
    if x.is_zero():
        raise ValueError("zero sign vector has no broken circuit")
    return x.support & ~(1 << order.minimum(elements(x.support)))


@dataclass(frozen=True)
class NbcFamily:
    """The NBC sets as bit masks in canonical order, and their number
    per size."""

    order: LinearOrder
    sets: tuple[int, ...]
    counts: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.sets)


def _blocker_masks(C: CircuitSet, order: LinearOrder) -> set[int]:
    """Every circuit support and the broken circuit of every symmetric
    circuit pair.  The zero circuit gives the empty blocker 0."""
    blockers = set(C.minimal_deficient_supports)
    blockers.update(broken_circuit(x, order) for x in C.symmetric_pairs() if x.support)
    return blockers


def nbc_sets(L: Com, order: LinearOrder | None = None) -> NbcFamily:
    """Enumerate the NBC family by the support walk.

    Computed once per Com and order.
    """
    if order is None:
        order = LinearOrder.identity(L.n)
    if order.n != L.n:
        raise ValueError("order is on the wrong ground set")
    return L._cached(("nbc_sets", order.perm), lambda: _nbc_family(L, order))


def _nbc_family(L: Com, order: LinearOrder) -> NbcFamily:
    levels = unblocked_levels(L.n, _blocker_masks(circuits(L), order).__contains__)
    return NbcFamily(order, tuple(chain.from_iterable(levels)), tuple(map(len, levels)))


def verify_nbc_tope(L: Com, order: LinearOrder | None = None) -> bool:
    """The NBC family under order has as many sets as L has topes."""
    return len(nbc_sets(L, order)) == len(topes(L))


def induced_order(order: LinearOrder, i: int) -> LinearOrder:
    return LinearOrder(tuple(j if j < i else j - 1 for j in order.perm if j != i))


def verify_nbc_recursion(L: Com, order: LinearOrder | None = None) -> bool:
    """Check the NBC recursion at the order maximal element i.

    The NBC sets avoiding i must be exactly the NBC family of the
    deletion, and stripping i from the rest must give exactly the NBC
    family of the contraction, both under the induced order.  The count
    identity follows from this partition, since shifting indices down is
    injective on each part.  Raises when i is a coloop, where contraction
    and deletion coincide and the recursion does not apply.
    """
    if order is None:
        order = LinearOrder.identity(L.n)
    i = order.maximum_element()
    if coloops(L) >> i & 1:
        raise ValueError("order maximal element is a coloop")
    fam = nbc_sets(L, order)
    sub = induced_order(order, i)
    bit = 1 << i
    without = {_drop_bit(s, i) for s in fam.sets if not s & bit}
    with_i = {_drop_bit(s, i) for s in fam.sets if s & bit}
    return without == set(nbc_sets(delete(L, i), sub).sets) and with_i == set(
        nbc_sets(contract(L, i), sub).sets
    )


def order_with_maximum(n: int, i: int) -> LinearOrder:
    """Natural order with i moved to the top; handy for recursion checks."""
    return LinearOrder(tuple(j for j in range(n) if j != i) + (i,))
