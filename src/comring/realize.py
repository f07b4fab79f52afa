"""Covector sets of rational hyperplane arrangements inside open regions.

An arrangement is a list of cooriented hyperplanes a.x = b in Q^d
together with an open region K given by finitely many strict rational
inequalities c.x > d.  A sign vector X is realized when the set

    {x in K : a_i.x > b_i where X_i = +, a_i.x < b_i where X_i = -,
              a_i.x = b_i where X_i = 0}

is nonempty.  Every such system is a mix of rational equalities and
strict inequalities, decided exactly in integers: the equalities go into
the reduced echelon kernel of ``exactalg``, which also rewrites the
strict rows over the free variables, and Fourier-Motzkin elimination
decides the strict part.
Fourier-Motzkin removes, at each step, the variable that combines the
fewest pairs of rows, and drops copies of a row.  The last variable is
decided by its tightest lower and upper bound alone, and back
substitution runs in integers.
A strict rational system has a real solution iff it has a rational one:
Fourier-Motzkin eliminates variable by variable over Q, and the final
constant system is satisfied over R iff over Q, so back substitution
produces a rational witness whenever the real system is solvable.

Covector enumeration walks sign prefixes in hyperplane list order, as
one loop over a stack of nodes: a node pushes its children in the order
+, 0, -, so they pop in prefix order, and no recursion limits the depth.
Each node keeps its sign pattern, a witness point as an integer vector
over a positive denominator, and the flat of its equalities.  The
pattern is one int, the plus, zero and minus masks side by side: sign s
of element k is bit k + n (1 - s).  A node is a relatively open convex
cell, so at most one feasibility solve decides all three children.  The
node inserts the next hyperplane into its flat once, which tells whether
the hyperplane is constant on the cell and else gives the zero child's
flat.  No solve is needed when it is constant or passes through the
witness; else one asks whether the hyperplane meets the cell.  A cell
reaches the side opposite its witness exactly when the hyperplane meets
it, so that solve runs on the zero child's flat, one free variable
fewer.  That makes the search output sensitive.

Every Fourier-Motzkin row carries a tag: the OR of the tags of the input
rows it is a positive combination of.  A solve that fails thus names the
rows of its Farkas refutation.  Each input row of a solve has a tag bit
of its own, so the tag is also the row's Chernikov history: after k
eliminations a row whose history has more than k + 1 members is implied
by rows with smaller histories, and is never built (Chernikov 1965;
Imbert 1990).  A copy of a row goes only when the kept copy's tag is a
subset of its own: that copy enters every combination the dropped one
could, with a subset tag, so the bound admits it wherever it admits the
dropped one.

The walk tags each strict row with its (element, side) bit and region row
i with bit 3n + i.  Every cell keeps the region rows, so their bits are
masked off before a refutation is stored: the walk remembers a
refutation of hyperplane k as its sign pattern plus the zeros of the
node.  It certifies that hyperplane k misses every cell that keeps those
rows on a flat containing those zeros, whichever side its witness is on:
such a flat lies inside the refuted one, so the same combination refutes
its intersection with the hyperplane.  A later node whose pattern
contains a remembered one for k is answered without a solve.  When a
hyperplane misses a cell, the child keeps the strict rows it had: the
side row would be implied.

The covectors of the first k + 1 hyperplanes inside K form a COM, and its
face symmetry and strong elimination answer many of the walk's questions
before a solve.  Children pop in the order -, 0, +, so when a cell Q with
a + at an earlier element j asks whether hyperplane k meets it, the
subtrees of the cells that differ from Q by - and by 0 at j are finished.
Write A and B for those two cells with a 0 added at k.  If both are
realized, so is B o (-A), which is Q with a 0 at k: hyperplane k meets Q.
If A is realized and B is not, hyperplane k misses Q: a segment from a
point of A to a point of Q on hyperplane k stays on it and keeps every
other sign of Q, so it crosses hyperplane j at a point of B.  Such a miss
names no Farkas refutation, so it is not remembered.  A cell thus asks, in
order, the remembered refutations, its siblings, its flat and a solve.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence

from .circuits import CircuitSet, minimal_support_walk, submasks
from .core import Com, SignVector, elements, parse_json_object
from .exactalg import Flat, Row, insert_row, primitive_row, reduce_row

Vector = tuple[Fraction, ...]
LinRow = tuple[tuple[Fraction, ...], Fraction]
# A strict row c.x > d with the tag of the input rows it combines.
TaggedRow = tuple[tuple[int, ...], int, int]
# The rational point X / D: an integer vector X and a denominator D > 0.
IntPoint = tuple[Sequence[int], int]
# The rational p / q as integers with q > 0.
Ratio = tuple[int, int]


class ArrangementFormatError(ValueError):
    """Raised when serialized input does not describe an arrangement."""


def _exact(values: Sequence[object]) -> bool:
    """True when every value is an int, not a bool, or a Fraction."""
    return all(type(v) is int or isinstance(v, Fraction) for v in values)


@dataclass(frozen=True)
class Hyperplane:
    """Cooriented hyperplane a.x = b; the positive side is a.x > b."""

    a: Vector
    b: Fraction

    def __post_init__(self) -> None:
        if not _exact((*self.a, self.b)):
            raise ValueError("hyperplane entries must be ints or Fractions")
        if all(v == 0 for v in self.a):
            raise ValueError("hyperplane normal must be nonzero")


@dataclass(frozen=True)
class OpenRegion:
    """Intersection of strict half spaces c.x > d; may be empty."""

    strict: tuple[LinRow, ...]

    def __post_init__(self) -> None:
        if not all(_exact((*c, d)) for c, d in self.strict):
            raise ValueError("region entries must be ints or Fractions")


@dataclass(frozen=True)
class Arrangement:
    dim: int
    hyperplanes: tuple[Hyperplane, ...]
    region: OpenRegion

    def __post_init__(self) -> None:
        if type(self.dim) is not int or self.dim < 0:
            raise ValueError("dimension must be a nonnegative int")
        if any(len(h.a) != self.dim for h in self.hyperplanes):
            raise ValueError("hyperplane dimension mismatch")
        if any(len(c) != self.dim for c, _ in self.region.strict):
            raise ValueError("region dimension mismatch")

    @property
    def n(self) -> int:
        return len(self.hyperplanes)


def _int_row(c: Vector, d: Fraction) -> Row:
    """Clear denominators of c.x > d (or = d) into a primitive integer row."""
    denom = lcm(d.denominator, *(v.denominator for v in c))
    coeffs = [v.numerator * (denom // v.denominator) for v in c]
    return primitive_row(coeffs, d.numerator * (denom // d.denominator))


def _distinct(rows: list[TaggedRow]) -> list[TaggedRow] | int:
    """Drop constant rows, and every strict row with a copy whose tag is a
    subset of its own; rows are primitive, so copies are equal (c, d)
    pairs.  Returns the tag of a contradictory constant row 0 > d with
    d >= 0 when one appears.  ``_fm`` runs this before each elimination.
    """
    kept: dict[Row, list[int]] = {}
    for c, d, tag in rows:
        if not any(c):
            if d >= 0:
                return tag
            continue
        tags = kept.setdefault((c, d), [])
        if all(t & ~tag for t in tags):
            tags[:] = [t for t in tags if tag & ~t]
            tags.append(tag)
    return [(c, d, t) for (c, d), tags in kept.items() for t in tags]


def _split(rows: list[TaggedRow], j: int) -> tuple[list[TaggedRow], ...]:
    """The rows with a positive, a negative and a zero coefficient at j."""
    pos, neg, out = [], [], []
    for row in rows:
        v = row[0][j]
        (pos if v > 0 else neg if v < 0 else out).append(row)
    return pos, neg, out


def _pair_count(rows: list[TaggedRow], j: int) -> int:
    """Number of rows that eliminating variable j combines into one."""
    pos = sum(1 for r in rows if r[0][j] > 0)
    return pos * sum(1 for r in rows if r[0][j] < 0)


def _between(lo: Ratio | None, hi: Ratio | None) -> Ratio:
    """A rational p / q strictly between lo and hi (None is unbounded):
    the integer nearest 0 in that open interval if there is one, else the
    midpoint in lowest terms.  Small witnesses keep later exact arithmetic
    cheap."""
    if (lo is None or lo[0] < 0) and (hi is None or hi[0] > 0):
        return 0, 1
    if lo is not None and lo[0] >= 0:
        x = lo[0] // lo[1] + 1
    else:
        x = -(-hi[0] // hi[1]) - 1
    if (lo is None or lo[0] < x * lo[1]) and (hi is None or x * hi[1] < hi[0]):
        return x, 1
    p, q = lo[0] * hi[1] + hi[0] * lo[1], 2 * lo[1] * hi[1]
    g = gcd(p, q)
    return p // g, q // g


def _fm(rows: list[TaggedRow], m: int) -> IntPoint | int:
    """A point X / D satisfying all strict rows over m variables, or the
    OR of the tags of the rows whose positive combination refutes them.

    Fourier-Motzkin elimination that at each step removes the variable
    whose positive and negative row counts have the smallest product
    (the highest index on ties) and drops copied rows by ``_distinct``.
    A combined row carries the OR of its two rows' tags, so a
    contradictory constant row names the input rows it combines.  With a
    tag bit per input row the tag is also the row's Chernikov history, and
    after k eliminations no row that combines more than k + 1 input rows
    is built: rows that combine fewer imply it.  The last variable is
    decided by its two bounds alone: it gets no ``_distinct`` pass and no
    combination step, its constant rows are checked, and a tightest lower
    bound not below the tightest upper bound refutes the system by those
    two rows.  Back substitution sets the variables in the reverse of the
    elimination order, in integers, each strictly between the bounds of
    the rows it was eliminated from; a variable that appears in no row
    is 0.
    """
    current, steps, remaining = rows, [], list(range(m))
    for k in range(1, m):
        current = _distinct(current)
        if isinstance(current, int):
            return current
        if not current:
            break
        j = min(remaining, key=lambda v: (_pair_count(current, v), -v))
        remaining.remove(j)
        pos, neg, out = _split(current, j)
        for cp, dp, tp in pos:
            for cn, dn, tn in neg:
                tag = tp | tn
                if tag.bit_count() > k + 1:
                    continue
                mp, mn = -cn[j], cp[j]
                coeffs = [mp * a + mn * b for a, b in zip(cp, cn)]
                out.append((*primitive_row(coeffs, mp * dp + mn * dn), tag))
        steps.append((j, pos, neg))
        current = out
    if remaining:
        pos, neg, current = _split(current, remaining[0])
        steps.append((remaining[0], pos, neg))
    for _, d, tag in current:
        if d >= 0:
            return tag
    point, denom = [0] * m, 1
    for j, pos, neg in reversed(steps):
        # Row c.x > d is tight at x_j = (d D - c.X) / (c_j D), x_j still 0.
        lo = hi = None
        for c, d, tag in pos:
            bound = d * denom - sum(map(mul, c, point)), c[j] * denom
            if lo is None or bound[0] * lo[1] > lo[0] * bound[1]:
                lo, tl = bound, tag
        for c, d, tag in neg:
            bound = sum(map(mul, c, point)) - d * denom, -c[j] * denom
            if hi is None or bound[0] * hi[1] < hi[0] * bound[1]:
                hi, th = bound, tag
        if lo and hi and lo[0] * hi[1] >= hi[0] * lo[1]:
            # Only the last variable's rows were never combined in pairs.
            return tl | th
        p, q = _between(lo, hi)
        if denom % q:
            scale = q // gcd(denom, q)
            point = [v * scale for v in point]
            denom *= scale
        point[j] = p * (denom // q)
    return point, denom


def _step_off(p: IntPoint, V: list[int], stricts: list[TaggedRow]) -> IntPoint:
    """The point p + V / (m D) for p = X / D, with m the least positive
    integer that keeps every strict row strict: row c.x > d asks for m
    above -c.V / (c.X - d D).  Steps of the form 1 / m keep witnesses small.
    """
    X, D = p
    m = 1
    for c, d, _ in stricts:
        cv = sum(map(mul, c, V))
        if cv < 0:
            m = max(m, -cv // (sum(map(mul, c, X)) - d * D) + 1)
    return primitive_row([m * x + v for x, v in zip(X, V)], m * D)


def _beyond(z: IntPoint, p: IntPoint, stricts: list[TaggedRow]) -> IntPoint:
    """The point z + (z - p) / m past z = Z / E on the ray from p = X / D,
    over the denominator E D, with m as in ``_step_off``."""
    (Z, E), (X, D) = z, p
    return _step_off(([v * D for v in Z], E * D), [v * D - x * E for v, x in zip(Z, X)], stricts)


def _complete(flat: Flat, point: list[int], denom: int) -> IntPoint:
    """X / D with the pivot coordinates of the reduced echelon flat filled
    in: over D L, L the lcm of the pivot entries, pivot row e.x = f gives
    x_p = (f D - e.X) L / e_p, X being 0 at every pivot.  With D = 0, X is
    a direction and the result solves the homogeneous equalities."""
    scale = lcm(*(e[p] for p, (e, _) in flat))
    out = [v * scale for v in point]
    for p, (e, f) in flat:
        out[p] = (f * denom - sum(map(mul, e, point))) * (scale // e[p])
    return out, denom * scale


def _solve(flat: Flat, stricts: list[TaggedRow], dim: int) -> IntPoint | int:
    """A point X / D of the flat solving every strict row, or the OR of the
    tags of the strict rows a refutation combines.

    The flat is an integer reduced echelon flat, which makes each pivot
    variable an affine function of the free ones; the strict rows are
    reduced on it by positive multiples, so they keep their direction and
    their tag, and Fourier-Motzkin decides them over the free variables.
    """
    pivots = {p for p, _ in flat}
    free = [k for k in range(dim) if k not in pivots]
    reduced = []
    for c, d, tag in stricts:
        e, f = reduce_row(flat, (c, d))
        reduced.append((tuple(e[k] for k in free), f, tag))
    found = _fm(reduced, len(free))
    if isinstance(found, int):
        return found
    basic, denom = found
    point = [0] * dim
    for k, v in zip(free, basic):
        point[k] = v
    return primitive_row(*_complete(flat, point, denom))


def _fraction_point(point: Sequence[int], denom: int) -> Vector:
    return tuple(Fraction(v, denom) for v in point)


def feasible_point(
    equalities: list[Row], stricts: list[Row], dim: int
) -> Vector | None:
    """A rational point solving the mixed system of integer rows, or None.

    Callers clear the denominators of an arrangement's rational rows
    once, when they set up their rows.  The equalities go into an
    integer reduced echelon flat and ``_solve`` decides the strict rows
    on it.  Raises when a row does not have dim coefficients.
    """
    if any(len(c) != dim for rows in (equalities, stricts) for c, _ in rows):
        raise ValueError("every row needs dim coefficients")
    flat: Flat | None = ()
    for row in equalities:
        flat = insert_row(flat, row)
        if flat is None:
            return None
    found = _solve(flat, [(c, d, 1 << i) for i, (c, d) in enumerate(stricts)], dim)
    return None if isinstance(found, int) else _fraction_point(*found)


def strictly_feasible(equalities: list[Row], stricts: list[Row], dim: int) -> bool:
    return feasible_point(equalities, stricts, dim) is not None


def region_point(arr: Arrangement) -> Vector | None:
    return feasible_point([], [_int_row(c, d) for c, d in arr.region.strict], arr.dim)


def sign_vector_at_point(arr: Arrangement, p: Vector) -> SignVector:
    """Sign of a.p - b per hyperplane; p must be exact and in the open region."""
    if len(p) != arr.dim:
        raise ValueError("point dimension mismatch")
    if not _exact(p):
        raise ValueError("point entries must be ints or Fractions")
    for c, d in arr.region.strict:
        if sum(ck * pk for ck, pk in zip(c, p)) <= d:
            raise ValueError("point lies outside the region")
    plus = minus = 0
    for k, h in enumerate(arr.hyperplanes):
        v = sum(ak * pk for ak, pk in zip(h.a, p)) - h.b
        if v > 0:
            plus |= 1 << k
        elif v < 0:
            minus |= 1 << k
    return SignVector(arr.n, plus, minus)


def covectors_with_witnesses(arr: Arrangement) -> list[tuple[SignVector, Vector]]:
    """All realized sign vectors, each with a rational witness point.

    Each node of the sign-prefix walk is a relatively open convex cell C
    with a witness p = X / D, X an integer vector and D > 0; its
    equalities are kept as an integer reduced echelon flat, which is also
    what its feasibility solves receive.  For the next hyperplane
    a.x = b, with v_p = a.X - b D:

    (a) inserting a.x = b into the flat gives None or the flat itself:
        a.x - b is constant on C, so only the sign at p occurs and the
        cell is unchanged;
    (b) v_p = 0: V, the unit vector at the new pivot column completed on
        the flat and signed so that a.V > 0, moves p off the hyperplane
        to both sides, by a step below the smallest slack ratio of C's
        strict rows along +V or -V (``_step_off``);
    (c) otherwise the side of p is free, and one solve asks whether the
        hyperplane meets C.  The segment from p to any point of C on the
        far side crosses the hyperplane inside C, and a point z of C on
        the hyperplane can be pushed past it, away from p, and stay in C.
        So if the solve fails the hyperplane misses C; if it finds z,
        z is the zero child's witness and one step from z along z - p
        is the far side's.

    Whenever v_p != 0, the hyperplane is first looked up among the
    remembered refutations of the module docstring, then put to the
    finished siblings A and B there, before the flat is built: each + at
    an element j of the pattern costs at most two lookups in ``on_plane``,
    the witnesses of the zero children pushed so far.  A and B realized, with
    witnesses a and b on the hyperplane: b + (b - a) / m is on it, on every
    zero of the cell, strictly on the + side of hyperplane j since a is on
    the - side and b on j, and for m as in ``_step_off`` strictly on every
    other side of the cell, so it is the zero child's witness as in (c).
    A realized and B not: the segment from a to a point of the cell on the
    hyperplane would cross hyperplane j inside B, so the hyperplane misses
    the cell.  A missed hyperplane adds no strict row to the child.
    """
    # Every row is a primitive integer row: a positive multiple of its
    # rational form, which leaves the sides, the flats and the slack
    # ratios unchanged.  The strict row of a side is the row or its
    # negation, tagged with its bit in the sign pattern; region row i is
    # tagged with bit 3n + i, above the pattern.
    n = arr.n
    region = [
        (*_int_row(c, d), 1 << 3 * n + i) for i, (c, d) in enumerate(arr.region.strict)
    ]
    start = _solve((), region, arr.dim)
    if isinstance(start, int):
        return []
    rows = [_int_row(h.a, h.b) for h in arr.hyperplanes]
    full = (1 << n) - 1
    zeros = full << n
    sides = (1 << 3 * n) - 1
    refuted: dict[int, list[int]] = {}
    # The witness of every pushed child with a zero at its last element,
    # by pattern; a pattern's bits place its last element.
    on_plane: dict[int, IntPoint] = {}
    out: list[tuple[SignVector, Vector]] = []
    stack = [(0, 0, (), region, start)]
    while stack:
        k, pattern, flat, stricts, p = stack.pop()
        if k == n:
            out.append((SignVector(n, pattern & full, pattern >> 2 * n), _fraction_point(*p)))
            continue
        a, b = rows[k]
        X, D = p
        value = sum(map(mul, a, X)) - b * D
        side = (value > 0) - (value < 0)
        witness = {side: p}
        missed = False
        if side:
            missed = any(old & pattern == old for old in refuted.get(k, ()))
            # A and B: the pattern with its + at kk turned to - or to 0,
            # and a 0 at k.
            zero = 1 << (k + n)
            for kk in () if missed else elements(pattern & full):
                plus = 1 << kk
                below = on_plane.get(pattern ^ plus | plus << 2 * n | zero)
                if below is not None:
                    on = on_plane.get(pattern ^ plus | plus << n | zero)
                    if on is None:
                        missed = True
                    else:
                        witness[0] = _beyond(on, below, stricts)
                    break
        zero_flat = None if missed else insert_row(flat, rows[k])
        if zero_flat is None or zero_flat is flat:
            # Only the side of p occurs, and the cell is unchanged.
            zero_flat = flat
        elif side == 0:
            # V solves the flat's homogeneous equalities and is free only
            # at the zero flat's new pivot, where a.V != 0.
            unit = [0] * arr.dim
            unit[zero_flat[-1][0]] = 1
            V, _ = _complete(flat, unit, 0)
            if sum(map(mul, a, V)) < 0:
                V = [-v for v in V]
            for s in (1, -1):
                witness[s] = _step_off(p, [s * v for v in V], stricts)
        elif 0 not in witness:
            found = _solve(zero_flat, stricts, arr.dim)
            if isinstance(found, int):
                refuted.setdefault(k, []).append(found & sides | pattern & zeros)
            else:
                witness[0] = found
        if side and 0 in witness:
            # The zero child's witness is in C on the hyperplane, and the
            # far side's is one step past it, away from p.
            witness[-side] = _beyond(witness[0], p, stricts)
        for s in (1, 0, -1):
            if s not in witness:
                continue
            bit = 1 << (k + n * (1 - s))
            child = stricts
            if s and len(witness) > 1:
                child = stricts + [(tuple(s * v for v in a), s * b, bit)]
            elif not s:
                on_plane[pattern | bit] = witness[0]
            stack.append((k + 1, pattern | bit, flat if s else zero_flat, child, witness[s]))
    return out


def covectors(arr: Arrangement) -> Com:
    return Com(arr.n, (x for x, _ in covectors_with_witnesses(arr)))


def geometric_circuits(arr: Arrangement) -> CircuitSet:
    """Minimal sign patterns whose open half space intersection misses K.

    Independent of the combinatorial circuit computation, with which it
    shares only the support walk: every pattern is tested directly by
    feasibility of its open system inside the region.
    """
    # Each hyperplane's side rows, indexed by the pattern's bit there.
    rows = [_int_row(h.a, h.b) for h in arr.hyperplanes]
    sides = [((tuple(-v for v in a), -b), (a, b)) for a, b in rows]
    region = [_int_row(c, d) for c, d in arr.region.strict]

    def unrealized(mask: int) -> list[int]:
        support = elements(mask)
        return [
            pat for pat in submasks(mask)
            if not strictly_feasible(
                [], region + [sides[i][pat >> i & 1] for i in support], arr.dim
            )
        ]

    return minimal_support_walk(arr.n, unrealized)


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _parse_rational(value: object) -> Fraction:
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str) and _RATIONAL.fullmatch(value):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ArrangementFormatError(f"bad rational {value!r}") from exc
    raise ArrangementFormatError(f"bad rational {value!r}")


def _parse_vector(value: object, dim: int, what: str) -> Vector:
    if not isinstance(value, list) or len(value) != dim:
        raise ArrangementFormatError(f"{what} must be a list of length {dim}")
    return tuple(_parse_rational(v) for v in value)


def parse_arrangement_json(text: str) -> Arrangement:
    """Parse the arrangement file format.

    ``{"dim": d, "hyperplanes": [{"a": [...], "b": ...}, ...],
    "region": [{"c": [...], "d": ..., "rel": ">"}, ...]}`` with rationals
    written as JSON integers or strings "[-]digits[/digits]", such as "-3"
    or "2/3"; no decimal or exponent form.  Only the relation ">" is
    accepted; encode c.x < d as (-c).x > -d.
    """
    data = parse_json_object(text, "dim", "hyperplanes", ArrangementFormatError)
    dim, raw_hyps = data["dim"], data["hyperplanes"]
    if not isinstance(raw_hyps, list):
        raise ArrangementFormatError('"hyperplanes" must be a list')
    hyps = []
    for item in raw_hyps:
        if not isinstance(item, dict) or "a" not in item or "b" not in item:
            raise ArrangementFormatError('each hyperplane needs keys "a" and "b"')
        a = _parse_vector(item["a"], dim, '"a"')
        if all(v == 0 for v in a):
            raise ArrangementFormatError("hyperplane normal must be nonzero")
        hyps.append(Hyperplane(a, _parse_rational(item["b"])))
    raw_rows = data.get("region", [])
    if not isinstance(raw_rows, list):
        raise ArrangementFormatError('"region" must be a list')
    rows = []
    for item in raw_rows:
        if not isinstance(item, dict) or "c" not in item or "d" not in item:
            raise ArrangementFormatError('each region row needs keys "c" and "d"')
        if item.get("rel", ">") != ">":
            raise ArrangementFormatError('only the relation ">" is supported')
        rows.append((_parse_vector(item["c"], dim, '"c"'), _parse_rational(item["d"])))
    return Arrangement(dim, tuple(hyps), OpenRegion(tuple(rows)))


def arrangement_to_json(arr: Arrangement) -> str:
    data: dict[str, object] = {}
    data["dim"] = arr.dim
    data["hyperplanes"] = [
        {"a": [str(v) for v in h.a], "b": str(h.b)} for h in arr.hyperplanes
    ]
    data["region"] = [
        {"c": [str(v) for v in c], "d": str(d), "rel": ">"}
        for c, d in arr.region.strict
    ]
    return json.dumps(data, indent=2)
