"""Broken circuits and NBC sets relative to a linear order on the ground set.

A subset S is NBC when it contains no circuit support and, for every
symmetric circuit pair {X, -X}, does not contain the broken circuit of
X, which is the support of X with its order minimum removed.  That
minimum has one rule, ``LinearOrder.minimum``: the first element of the
permutation that lies in the support mask.  Both blocking conditions
are monotone, so the family is closed downward, and it is the support
walk of ``circuits.unblocked_levels`` with "is a blocker" as its test.
The walk tests a k-set only when all of its (k-1)-subsets are NBC, so
the k-set holds a blocker exactly when it is one; non-minimal blockers
are therefore harmless and are not filtered out.  The sets come out
level by level in canonical order (size, then lexicographic), as bit
masks, and the counts per size are the level sizes.  The family size
always equals the number of topes.

Like the minor checks, ``verify_nbc_tope`` and ``verify_nbc_recursion``
return a bool; the order (and its maximal element) is the witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .circuits import CircuitSet, circuits, unblocked_levels
from .core import Com, SignVector, check_index, coloops, topes
from .minors import _drop_bit, contract, delete


@dataclass(frozen=True)
class LinearOrder:
    """A permutation of {0, ..., n-1}; earlier entries are smaller.

    Subsets are bit masks, as everywhere in the package: ``minimum``
    takes a mask and ``ranks`` gives each element's position in perm.
    """

    perm: tuple[int, ...]

    def __post_init__(self) -> None:
        ints = all(isinstance(e, int) and not isinstance(e, bool) for e in self.perm)
        if not ints or sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError("not a permutation of the ground set")

    @classmethod
    def identity(cls, n: int) -> "LinearOrder":
        return cls(tuple(range(n)))

    @property
    def n(self) -> int:
        return len(self.perm)

    def ranks(self) -> dict[int, int]:
        return {e: r for r, e in enumerate(self.perm)}

    def minimum(self, mask: int) -> int:
        """The order minimum of the subset mask: the first element of perm
        that lies in it.  Raises when the mask is empty or has an element
        outside the order."""
        check_index(mask, 1 << self.n, "mask has elements outside the order")
        for e in self.perm:
            if mask >> e & 1:
                return e
        raise ValueError("empty mask has no minimum")

    def maximum_element(self) -> int:
        if not self.perm:
            raise ValueError("empty ground set has no maximum")
        return self.perm[-1]


def broken_circuit(x: SignVector, order: LinearOrder) -> int:
    """Support mask of x with its order minimum removed.

    The broken circuit of a one-element circuit is 0, the empty set.
    Raises when the order is on another ground set than x, and, through
    ``LinearOrder.minimum``, when x is zero."""
    if x.n != order.n:
        raise ValueError("order is on the wrong ground set")
    return x.support ^ 1 << order.minimum(x.support)


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
    blockers.update(s ^ 1 << order.minimum(s) for s in C.pair_supports if s)
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
    blockers = _blocker_masks(circuits(L), order)
    levels = unblocked_levels(L.n, blockers.__contains__)
    return NbcFamily(order, tuple(chain.from_iterable(levels)), tuple(map(len, levels)))


def verify_nbc_tope(L: Com, order: LinearOrder | None = None) -> bool:
    """The NBC family under order has as many sets as L has topes."""
    return len(nbc_sets(L, order)) == len(topes(L))


def induced_order(order: LinearOrder, i: int) -> LinearOrder:
    """order without i, the elements above i shifted down by one.  Raises
    when i is not an element of the order."""
    check_index(i, order.n)
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
    """Natural order with i moved to the top; handy for recursion checks.
    Raises when i is not in 0..n-1."""
    check_index(i, n)
    return LinearOrder(tuple(j for j in range(n) if j != i) + (i,))
