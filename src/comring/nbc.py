"""Broken circuits and NBC sets relative to a linear order on the ground set.

A subset S is NBC when it contains no circuit support and, for every
symmetric circuit pair {X, -X}, does not contain the broken circuit of
X, which is the support of X with its order minimum removed.  Both
blocking conditions are monotone, so the family is closed downward and
a pruned depth first scan enumerates it without visiting blocked
supersets.  The family size always equals the number of topes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuits import CircuitSet, circuits, minimal_masks
from .core import Com, SignVector, coloops, topes
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

    def rank(self, i: int) -> int:
        return self.perm.index(i)

    def ranks(self) -> dict[int, int]:
        return {e: r for r, e in enumerate(self.perm)}

    def minimum(self, subset: frozenset[int] | set[int]) -> int:
        ranks = self.ranks()
        return min(subset, key=lambda i: ranks[i])

    def maximum_element(self) -> int:
        if not self.perm:
            raise ValueError("empty ground set has no maximum")
        return self.perm[-1]


def broken_circuit(x: SignVector, order: LinearOrder) -> frozenset[int]:
    """Support of x with its order minimum removed; x must be nonzero."""
    sup = x.support_set()
    if not sup:
        raise ValueError("zero sign vector has no broken circuit")
    return sup - {order.minimum(sup)}


@dataclass(frozen=True)
class NbcFamily:
    order: LinearOrder
    sets: tuple[frozenset[int], ...]
    counts: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.sets)


def _blocker_masks(C: CircuitSet, order: LinearOrder) -> list[int]:
    ranks = order.ranks()
    blockers: set[int] = set()
    for x in C.circuits:
        if x.is_zero():
            blockers.add(0)
            continue
        sup = x.support
        blockers.add(sup)
        if C.paired(x):
            m = min((i for i in range(x.n) if (sup >> i) & 1), key=lambda i: ranks[i])
            blockers.add(sup & ~(1 << m))
    # Keep only inclusion minimal blockers; the rest are redundant.
    return list(minimal_masks(blockers))


def nbc_sets(L: Com, order: LinearOrder | None = None) -> NbcFamily:
    """Enumerate the NBC family by pruned depth first search.

    Computed once per Com and order.
    """
    if order is None:
        order = LinearOrder.identity(L.n)
    if order.n != L.n:
        raise ValueError("order is on the wrong ground set")
    return L._cached(("nbc_sets", order.perm), lambda: _nbc_family(L, order))


def _nbc_family(L: Com, order: LinearOrder) -> NbcFamily:
    blockers = _blocker_masks(circuits(L), order)
    out: list[int] = []

    def walk(mask: int, next_i: int) -> None:
        out.append(mask)
        for i in range(next_i, L.n):
            grown = mask | (1 << i)
            if any(grown & b == b for b in blockers):
                continue
            walk(grown, i + 1)

    if not any(b == 0 for b in blockers):
        walk(0, 0)
    sets = sorted(
        (frozenset(i for i in range(L.n) if (m >> i) & 1) for m in out),
        key=lambda s: (len(s), sorted(s)),
    )
    max_k = max((len(s) for s in sets), default=-1)
    counts = tuple(sum(1 for s in sets if len(s) == k) for k in range(max_k + 1))
    return NbcFamily(order, tuple(sets), counts)


@dataclass(frozen=True)
class NbcTopeReport:
    n_nbc: int
    n_topes: int

    @property
    def ok(self) -> bool:
        return self.n_nbc == self.n_topes


def verify_nbc_tope(L: Com, order: LinearOrder | None = None) -> NbcTopeReport:
    return NbcTopeReport(len(nbc_sets(L, order)), len(topes(L)))


def _shift_down(s: frozenset[int], i: int) -> frozenset[int]:
    return frozenset(j if j < i else j - 1 for j in s)


def induced_order(order: LinearOrder, i: int) -> LinearOrder:
    return LinearOrder(tuple(j if j < i else j - 1 for j in order.perm if j != i))


@dataclass(frozen=True)
class NbcRecursionReport:
    element: int
    n_total: int
    n_deletion: int
    n_contraction: int
    counts_ok: bool
    partition_ok: bool

    @property
    def ok(self) -> bool:
        return self.counts_ok and self.partition_ok


def verify_nbc_recursion(L: Com, order: LinearOrder | None = None) -> NbcRecursionReport:
    """Check the NBC recursion at the order maximal element i.

    The NBC sets avoiding i must be exactly the NBC family of the
    deletion, and stripping i from the rest must give exactly the NBC
    family of the contraction, both under the induced order.  Raises
    when i is a coloop, where contraction and deletion coincide and the
    recursion does not apply.
    """
    if order is None:
        order = LinearOrder.identity(L.n)
    i = order.maximum_element()
    if i in coloops(L):
        raise ValueError("order maximal element is a coloop")
    fam = nbc_sets(L, order)
    sub = induced_order(order, i)
    fam_del = nbc_sets(delete(L, i), sub)
    fam_con = nbc_sets(contract(L, i), sub)
    without = {_shift_down(s, i) for s in fam.sets if i not in s}
    with_i = {_shift_down(s - {i}, i) for s in fam.sets if i in s}
    partition_ok = without == set(fam_del.sets) and with_i == set(fam_con.sets)
    counts_ok = len(fam) == len(fam_del) + len(fam_con)
    return NbcRecursionReport(
        i, len(fam), len(fam_del), len(fam_con), counts_ok, partition_ok
    )


def order_with_maximum(n: int, i: int) -> LinearOrder:
    """Natural order with i moved to the top; handy for recursion checks."""
    return LinearOrder(tuple(j for j in range(n) if j != i) + (i,))
