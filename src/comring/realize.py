"""Covector sets of rational hyperplane arrangements inside open regions.

An arrangement is a list of cooriented hyperplanes a.x = b in Q^d
together with an open region K given by finitely many strict rational
inequalities c.x > d.  A sign vector X is realized when the set

    {x in K : a_i.x > b_i where X_i = +, a_i.x < b_i where X_i = -,
              a_i.x = b_i where X_i = 0}

is nonempty.  Every such system is a mix of rational equalities and
strict inequalities, decided exactly by Gaussian elimination on the
equalities followed by Fourier-Motzkin elimination on the strict part.
A strict rational system has a real solution iff it has a rational one:
Fourier-Motzkin eliminates variable by variable over Q, and the final
constant system is satisfied over R iff over Q, so back substitution
produces a rational witness whenever the real system is solvable.

Covector enumeration walks sign prefixes in hyperplane list order and
keeps a rational witness point per node: the child matching the sign of
the witness is feasible for free, so only the other two branches pay a
feasibility solve.  That makes the search output sensitive.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .circuits import CircuitSet, minimal_support_walk, submasks
from .core import Com, SignVector
from .exactalg import rational_rref

Vector = tuple[Fraction, ...]
LinRow = tuple[tuple[Fraction, ...], Fraction]


class ArrangementFormatError(ValueError):
    """Raised when serialized input does not describe an arrangement."""


@dataclass(frozen=True)
class Hyperplane:
    """Cooriented hyperplane a.x = b; the positive side is a.x > b."""

    a: Vector
    b: Fraction

    def __post_init__(self) -> None:
        if all(v == 0 for v in self.a):
            raise ValueError("hyperplane normal must be nonzero")


@dataclass(frozen=True)
class OpenRegion:
    """Intersection of strict half spaces c.x > d; may be empty."""

    strict: tuple[LinRow, ...]


@dataclass(frozen=True)
class Arrangement:
    dim: int
    hyperplanes: tuple[Hyperplane, ...]
    region: OpenRegion

    def __post_init__(self) -> None:
        for h in self.hyperplanes:
            if len(h.a) != self.dim:
                raise ValueError("hyperplane dimension mismatch")
        for c, _ in self.region.strict:
            if len(c) != self.dim:
                raise ValueError("region dimension mismatch")

    @property
    def n(self) -> int:
        return len(self.hyperplanes)


def _normalize_int_row(coeffs: list[int], const: int) -> tuple[tuple[int, ...], int]:
    g = 0
    for v in coeffs:
        g = gcd(g, v)
    g = gcd(g, const)
    if g > 1:
        coeffs = [v // g for v in coeffs]
        const = const // g
    return tuple(coeffs), const


def _int_row(c: Vector | list[Fraction], d: Fraction) -> tuple[tuple[int, ...], int]:
    """Clear denominators of c.x > d (or = d) into an integer row."""
    denom = d.denominator
    for v in c:
        denom = denom * v.denominator // gcd(denom, v.denominator)
    coeffs = [int(v * denom) for v in c]
    return _normalize_int_row(coeffs, int(d * denom))


def _eliminate(rows: list[tuple[tuple[int, ...], int]], j: int):
    """Project a strict integer system to the variables below j.

    Returns the projected rows, or None when a contradictory constant
    row 0 > d with d >= 0 appears.
    """
    pos = []
    neg = []
    out = set()
    for c, d in rows:
        if c[j] > 0:
            pos.append((c, d))
        elif c[j] < 0:
            neg.append((c, d))
        else:
            out.add((c[:j], d))
    for cp, dp in pos:
        for cn, dn in neg:
            mp, mn = -cn[j], cp[j]
            coeffs = [mp * a + mn * b for a, b in zip(cp[:j], cn[:j])]
            out.add(_normalize_int_row(coeffs, mp * dp + mn * dn))
    kept = []
    for c, d in out:
        if any(c):
            kept.append((c, d))
        elif d >= 0:
            return None
    return kept


def _fm_witness(rows: list[tuple[tuple[int, ...], int]], m: int) -> list[Fraction] | None:
    """Rational point satisfying all strict rows over m variables, or None."""
    levels = [rows]
    for j in reversed(range(m)):
        projected = _eliminate(levels[0], j)
        if projected is None:
            return None
        levels.insert(0, projected)
    point: list[Fraction] = []
    for j in range(m):
        lo = hi = None
        for c, d in levels[j + 1]:
            if not c[j]:
                continue
            bound = Fraction(d - sum(ck * xk for ck, xk in zip(c, point)), c[j])
            if c[j] > 0:
                lo = bound if lo is None else max(lo, bound)
            else:
                hi = bound if hi is None else min(hi, bound)
        if lo is None and hi is None:
            point.append(Fraction(0))
        elif lo is None:
            point.append(hi - 1)
        elif hi is None:
            point.append(lo + 1)
        else:
            point.append((lo + hi) / 2)
    return point


def feasible_point(
    equalities: list[LinRow], stricts: list[LinRow], dim: int
) -> Vector | None:
    """A rational point solving the mixed system, or None.

    Equalities are removed first: the reduced echelon form rewrites each
    pivot variable as an affine function of the free ones, the strict
    rows are rewritten over the free variables, and Fourier-Motzkin
    decides the remainder.
    """
    int_rows = [_int_row(c, d) for c, d in equalities]
    solved = rational_rref([c + (d,) for c, d in int_rows], dim)
    if solved is None:
        return None
    pivots, rows = solved
    free = [c for c in range(dim) if c not in pivots]
    pos = {c: k for k, c in enumerate(free)}
    reduced = []
    for c, d in stricts:
        coeffs = [Fraction(0)] * len(free)
        const = Fraction(d)
        for col, v in enumerate(c):
            if v == 0:
                continue
            if col in pos:
                coeffs[pos[col]] += v
            else:
                row = rows[pivots.index(col)]
                const -= v * row[dim]
                for f, k in pos.items():
                    coeffs[k] -= v * row[f]
        reduced.append(_int_row(coeffs, const))
    for c, d in reduced:
        if not any(c) and d >= 0:
            return None
    basic = _fm_witness([(c, d) for c, d in reduced if any(c)], len(free))
    if basic is None:
        return None
    point = [Fraction(0)] * dim
    for c, v in zip(free, basic):
        point[c] = v
    for col, row in zip(pivots, rows):
        point[col] = row[dim] - sum(row[f] * point[f] for f in free)
    return tuple(point)


def strictly_feasible(
    equalities: list[LinRow], stricts: list[LinRow], dim: int
) -> bool:
    return feasible_point(equalities, stricts, dim) is not None


def region_point(arr: Arrangement) -> Vector | None:
    return feasible_point([], list(arr.region.strict), arr.dim)


def sign_vector_at_point(arr: Arrangement, p: Vector) -> SignVector:
    """Sign of a.p - b per hyperplane; p must lie in the open region."""
    if len(p) != arr.dim:
        raise ValueError("point dimension mismatch")
    for c, d in arr.region.strict:
        if sum(ck * pk for ck, pk in zip(c, p)) <= d:
            raise ValueError("point lies outside the region")
    signs = []
    for h in arr.hyperplanes:
        v = sum(ak * pk for ak, pk in zip(h.a, p)) - h.b
        signs.append(1 if v > 0 else -1 if v < 0 else 0)
    return SignVector.from_signs(signs)


def covectors_with_witnesses(arr: Arrangement) -> list[tuple[SignVector, Vector]]:
    """All realized sign vectors, each with a rational witness point."""
    start = region_point(arr)
    if start is None:
        return []
    hyps = [(h.a, h.b) for h in arr.hyperplanes]
    stricts0 = list(arr.region.strict)
    out: list[tuple[SignVector, Vector]] = []

    def value_sign(row: LinRow, p: Vector) -> int:
        v = sum(ak * pk for ak, pk in zip(row[0], p)) - row[1]
        return 1 if v > 0 else -1 if v < 0 else 0

    def branch(
        k: int, signs: tuple[int, ...], eqs: list[LinRow], stricts: list[LinRow],
        witness: Vector,
    ) -> None:
        if k == len(hyps):
            out.append((SignVector.from_signs(signs), witness))
            return
        a, b = hyps[k]
        free = value_sign((a, b), witness)
        for s in (-1, 0, 1):
            if s == 0:
                child_eqs = eqs + [(a, b)]
                child_stricts = stricts
            else:
                child_eqs = eqs
                row = (a, b) if s > 0 else (tuple(-v for v in a), -b)
                child_stricts = stricts + [row]
            if s == free:
                branch(k + 1, signs + (s,), child_eqs, child_stricts, witness)
                continue
            p = feasible_point(child_eqs, child_stricts, arr.dim)
            if p is not None:
                branch(k + 1, signs + (s,), child_eqs, child_stricts, p)

    branch(0, (), [], stricts0, start)
    return out


def covectors(arr: Arrangement) -> Com:
    return Com(arr.n, (x for x, _ in covectors_with_witnesses(arr)))


def geometric_circuits(arr: Arrangement) -> CircuitSet:
    """Minimal sign patterns whose open half space intersection misses K.

    Independent of the combinatorial circuit computation, with which it
    shares only the support walk: every pattern is tested directly by
    feasibility of its open system inside the region.
    """
    hyps = [(h.a, h.b) for h in arr.hyperplanes]
    stricts0 = list(arr.region.strict)

    def unrealized(mask: int) -> list[int]:
        missing = []
        for pat in submasks(mask):
            stricts = list(stricts0)
            for i, (a, b) in enumerate(hyps):
                if not (mask >> i) & 1:
                    continue
                if (pat >> i) & 1:
                    stricts.append((a, b))
                else:
                    stricts.append((tuple(-v for v in a), -b))
            if not strictly_feasible([], stricts, arr.dim):
                missing.append(pat)
        return missing

    return minimal_support_walk(arr.n, unrealized)


def _parse_rational(value: object) -> Fraction:
    if isinstance(value, bool):
        raise ArrangementFormatError("rationals must be integers or strings")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
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
    written as integers or "p/q" strings.  Only the relation ">" is
    accepted; encode c.x < d as (-c).x > -d.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ArrangementFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ArrangementFormatError("top level must be an object")
    if "dim" not in data or "hyperplanes" not in data:
        raise ArrangementFormatError('keys "dim" and "hyperplanes" are required')
    dim = data["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise ArrangementFormatError('"dim" must be a nonnegative integer')
    raw_hyps = data["hyperplanes"]
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
    rows = []
    for item in data.get("region", []):
        if not isinstance(item, dict) or "c" not in item or "d" not in item:
            raise ArrangementFormatError('each region row needs keys "c" and "d"')
        if item.get("rel", ">") != ">":
            raise ArrangementFormatError('only the relation ">" is supported')
        rows.append((_parse_vector(item["c"], dim, '"c"'), _parse_rational(item["d"])))
    return Arrangement(dim, tuple(hyps), OpenRegion(tuple(rows)))


def arrangement_to_json(arr: Arrangement, description: str | None = None) -> str:
    data: dict[str, object] = {}
    if description is not None:
        data["description"] = description
    data["dim"] = arr.dim
    data["hyperplanes"] = [
        {"a": [str(v) for v in h.a], "b": str(h.b)} for h in arr.hyperplanes
    ]
    data["region"] = [
        {"c": [str(v) for v in c], "d": str(d), "rel": ">"}
        for c, d in arr.region.strict
    ]
    return json.dumps(data, indent=2)
