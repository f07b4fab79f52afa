"""Deletion, contraction, walls, and the minor laws used for verification.

Both minors drop coordinate i and renumber the indices above it down by
one.  Deletion keeps every covector; contraction keeps the covectors
vanishing at i.  ``label_map`` reports the renumbering so callers can
recover original hyperplane labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .circuits import circuits, in_generator_set, minimal_masks, realized_patterns
from .core import Com, SignVector, coloops, topes


def _drop_bit(mask: int, i: int) -> int:
    low = mask & ((1 << i) - 1)
    return low | ((mask >> (i + 1)) << i)


def project(x: SignVector, i: int) -> SignVector:
    """Forget coordinate i, shifting higher indices down."""
    if not 0 <= i < x.n:
        raise ValueError("index outside ground set")
    return SignVector(x.n - 1, _drop_bit(x.plus, i), _drop_bit(x.minus, i))


def inject(x: SignVector, i: int) -> SignVector:
    """Insert a zero coordinate at position i."""
    if not 0 <= i <= x.n:
        raise ValueError("insertion point outside range")
    low = (1 << i) - 1
    return SignVector(
        x.n + 1,
        (x.plus & low) | ((x.plus & ~low) << 1),
        (x.minus & low) | ((x.minus & ~low) << 1),
    )


def delete(L: Com, i: int) -> Com:
    if not 0 <= i < L.n:
        raise ValueError("index outside ground set")
    return Com(L.n - 1, (project(v, i) for v in L.covectors))


def contract(L: Com, i: int) -> Com:
    if not 0 <= i < L.n:
        raise ValueError("index outside ground set")
    bit = 1 << i
    return Com(L.n - 1, (project(v, i) for v in L.covectors if not (v.support & bit)))


def label_map(n: int, i: int) -> dict[int, int]:
    """Minor index -> original index after removing coordinate i."""
    return {j if j < i else j - 1: j for j in range(n) if j != i}


def is_wall(L: Com, x: SignVector, i: int) -> bool:
    """True when zeroing coordinate i of the tope x stays inside L."""
    full = (1 << L.n) - 1
    if x not in L or x.support != full:
        raise ValueError("x is not a tope of L")
    if not 0 <= i < L.n:
        raise ValueError("index outside ground set")
    bit = 1 << i
    return SignVector(L.n, x.plus & ~bit, x.minus & ~bit) in L


def tope_trichotomy(
    L: Com, i: int
) -> tuple[tuple[SignVector, ...], tuple[SignVector, ...], tuple[SignVector, ...]]:
    """Split topes by wall sign at i: (wall and positive, wall and negative,
    not a wall).  Raises on coloops, where no tope has a sign at i."""
    if i in coloops(L):
        raise ValueError("coordinate is a coloop")
    plus: list[SignVector] = []
    minus: list[SignVector] = []
    non_wall: list[SignVector] = []
    bit = 1 << i
    for t in topes(L):
        if SignVector(L.n, t.plus & ~bit, t.minus & ~bit) in L:
            (plus if t.plus & bit else minus).append(t)
        else:
            non_wall.append(t)
    return tuple(plus), tuple(minus), tuple(non_wall)


@dataclass(frozen=True)
class TopeRecursionReport:
    element: int
    n_topes: int
    n_deletion_topes: int
    n_contraction_topes: int
    counts_ok: bool
    bijections_ok: bool

    @property
    def ok(self) -> bool:
        return self.counts_ok and self.bijections_ok


def verify_tope_recursion(L: Com, i: int) -> TopeRecursionReport:
    """Check |topes| = |deletion topes| + |contraction topes| at i.

    The projection must restrict to a bijection from the positive-wall
    topes onto the contraction topes and from the remaining topes onto
    the deletion topes.  Raises on coloops.
    """
    t_plus, t_minus, t_non = tope_trichotomy(L, i)
    del_topes = set(topes(delete(L, i)))
    con_topes = set(topes(contract(L, i)))
    image_plus = [project(t, i) for t in t_plus]
    rest = list(t_minus) + list(t_non)
    image_rest = [project(t, i) for t in rest]
    bijections_ok = (
        len(set(image_plus)) == len(image_plus)
        and set(image_plus) == con_topes
        and len(set(image_rest)) == len(image_rest)
        and set(image_rest) == del_topes
    )
    n_t = len(t_plus) + len(t_minus) + len(t_non)
    counts_ok = n_t == len(del_topes) + len(con_topes)
    return TopeRecursionReport(
        i, n_t, len(del_topes), len(con_topes), counts_ok, bijections_ok
    )


@dataclass(frozen=True)
class MinorReport:
    element: int
    deletion: Com
    contraction: Com
    tope_counts: tuple[int, int, int]


def minor_report(L: Com, i: int) -> MinorReport:
    d = delete(L, i)
    c = contract(L, i)
    return MinorReport(i, d, c, (len(topes(L)), len(topes(d)), len(topes(c))))


@dataclass(frozen=True)
class CircuitMinorReport:
    element: int
    deletion_ok: bool
    contraction_ok: bool
    projection_ok: bool

    @property
    def ok(self) -> bool:
        return self.deletion_ok and self.contraction_ok and self.projection_ok


def verify_circuit_minor_laws(L: Com, i: int) -> CircuitMinorReport:
    """Check the three circuit laws for the minors at i.

    (1) Circuits of the deletion are the projections of circuits
        vanishing at i.
    (2) For non coloop i, circuits of the contraction are the support
        minimal projections of blockers of L.  The blocker scan is a
        full 3^n enumeration, so this check is meant for small n.
    (3) Nonzero projections of circuits with i in their support are
        circuits of the contraction.
    """
    bit = 1 << i
    C = circuits(L)
    del_circ = circuits(delete(L, i))
    expected_del = sorted(
        {project(x, i) for x in C.circuits if not (x.support & bit)},
        key=SignVector.sort_key,
    )
    deletion_ok = tuple(expected_del) == del_circ.circuits

    con_circ = circuits(contract(L, i))
    if i in coloops(L):
        contraction_ok = True
    else:
        projected: set[SignVector] = set()
        for signs in product((1, 0, -1), repeat=L.n):
            x = SignVector.from_signs(signs)
            if in_generator_set(L, x):
                projected.add(project(x, i))
        minimal = minimal_masks(x.support for x in projected)
        expected_con = sorted(
            (x for x in projected if x.support in minimal),
            key=SignVector.sort_key,
        )
        contraction_ok = tuple(expected_con) == con_circ.circuits

    # only nonzero projections; a circuit supported exactly at i drops
    # to the zero vector, which is a circuit just for empty minors
    projection_ok = all(
        project(x, i) in con_circ
        for x in C.circuits
        if x.support & bit and x.support != bit
    )
    return CircuitMinorReport(i, deletion_ok, contraction_ok, projection_ok)


@dataclass(frozen=True)
class DisjointCovectorReport:
    pairs_checked: int
    ok: bool
    failing: SignVector | None = None


def verify_disjoint_covector(L: Com) -> DisjointCovectorReport:
    """Every symmetric circuit pair admits a covector with disjoint support."""
    C = circuits(L)
    checked = 0
    for x in C.circuits:
        if x.is_zero() or not C.paired(x):
            continue
        checked += 1
        if not any(v.support & x.support == 0 for v in L.covectors):
            return DisjointCovectorReport(checked, False, x)
    return DisjointCovectorReport(checked, True)


@dataclass(frozen=True)
class LiftReport:
    element: int
    pairs_checked: int
    ok: bool
    failing: SignVector | None = None


def verify_lift(L: Com, i: int) -> LiftReport:
    """Every symmetric circuit pair of the contraction lifts to one of L."""
    C = circuits(L)
    con = circuits(contract(L, i))
    checked = 0
    for x in con.circuits:
        if x.is_zero() or not con.paired(x):
            continue
        checked += 1
        if not any(project(c, i) == x and C.paired(c) for c in C.circuits):
            return LiftReport(i, checked, False, x)
    return LiftReport(i, checked, True)


def verify_boolean_extension(L: Com, J: frozenset[int] | set[int]) -> bool:
    """All 2^|J| full sign patterns on J extend to covectors.

    Precondition: J contains no circuit support; raises ValueError when
    it does, since the guarantee only holds in that case.
    """
    jset = frozenset(J)
    for s in circuits(L).minimal_deficient_supports:
        if s <= jset:
            raise ValueError("J contains a circuit support")
    return len(realized_patterns(L, jset)) == 1 << len(jset)
