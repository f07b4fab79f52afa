"""Sign vectors, covector sets, and the conditional oriented matroid axioms.

A sign vector on the ground set {0, ..., n-1} assigns one of the signs
+1, 0, -1 to every index.  It is stored as a pair of disjoint bit masks,
one for the positive and one for the negative positions.  A ``Com`` is a
finite set of sign vectors on a common ground set, kept sorted and
duplicate free so that value equality is equality of covector lists.

``is_com`` decides whether the set satisfies the two axioms of a
conditional oriented matroid:

* face symmetry: for all members X, Y the composition X o (-Y) is again
  a member;
* strong elimination: for all members X, Y and every index i at which X
  and Y carry opposite nonzero signs, some member Z has Z_i = 0 and
  agrees with X o Y at every index outside the separator of X and Y.

A conditional oriented matroid that contains the zero sign vector is an
oriented matroid.  All values here are immutable and all operations are
pure functions; the bit mask representation keeps the axiom scans cheap
for ground sets up to a few dozen elements.  Results derived from a
``Com`` (the axiom verdict, its circuits, its NBC families) are computed
once per instance and kept on it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")

SIGN_CHARS = {1: "+", 0: "0", -1: "-"}
CHAR_SIGNS = {"+": 1, "0": 0, "-": -1}

# Canonical order on sign words is lexicographic with '-' < '0' < '+'.
_CHAR_RANK = {"-": 0, "0": 1, "+": 2}
_SIGN_RANK = {-1: 0, 0: 1, 1: 2}


class ComFormatError(ValueError):
    """Raised when serialized input does not describe a valid object."""


@dataclass(frozen=True)
class SignVector:
    """Sign vector on {0, ..., n-1} as disjoint plus and minus bit masks."""

    n: int
    plus: int
    minus: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("ground set size must be nonnegative")
        full = (1 << self.n) - 1
        if self.plus & ~full or self.minus & ~full:
            raise ValueError("mask exceeds ground set")
        if self.plus & self.minus:
            raise ValueError("plus and minus masks overlap")

    @classmethod
    def from_word(cls, word: str) -> "SignVector":
        plus = minus = 0
        for i, ch in enumerate(word):
            if ch == "+":
                plus |= 1 << i
            elif ch == "-":
                minus |= 1 << i
            elif ch != "0":
                raise ComFormatError(f"bad sign character {ch!r}")
        return cls(len(word), plus, minus)

    @classmethod
    def from_signs(cls, signs: Iterable[int]) -> "SignVector":
        plus = minus = 0
        n = 0
        for s in signs:
            if s > 0:
                plus |= 1 << n
            elif s < 0:
                minus |= 1 << n
            n += 1
        return cls(n, plus, minus)

    @property
    def support(self) -> int:
        return self.plus | self.minus

    def support_set(self) -> frozenset[int]:
        return frozenset(_mask_bits(self.support))

    def sign(self, i: int) -> int:
        bit = 1 << i
        if self.plus & bit:
            return 1
        if self.minus & bit:
            return -1
        return 0

    def signs(self) -> tuple[int, ...]:
        return tuple(self.sign(i) for i in range(self.n))

    def word(self) -> str:
        return "".join(SIGN_CHARS[self.sign(i)] for i in range(self.n))

    def is_zero(self) -> bool:
        return self.plus == 0 and self.minus == 0

    def sort_key(self) -> tuple[int, ...]:
        return tuple(_SIGN_RANK[s] for s in self.signs())

    def __neg__(self) -> "SignVector":
        return SignVector(self.n, self.minus, self.plus)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SignVector({self.word()!r})"


def _mask_bits(mask: int) -> Iterator[int]:
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def compose(x: SignVector, y: SignVector) -> SignVector:
    """Composition: take the sign of x, falling back to y where x is zero."""
    if x.n != y.n:
        raise ValueError("ground sets differ")
    free = ~x.support
    return SignVector(x.n, x.plus | (y.plus & free), x.minus | (y.minus & free))


def negate(x: SignVector) -> SignVector:
    return -x


def separator(x: SignVector, y: SignVector) -> frozenset[int]:
    """Indices where x and y carry opposite nonzero signs."""
    if x.n != y.n:
        raise ValueError("ground sets differ")
    return frozenset(_mask_bits((x.plus & y.minus) | (x.minus & y.plus)))


def _separator_mask(x: SignVector, y: SignVector) -> int:
    return (x.plus & y.minus) | (x.minus & y.plus)


@dataclass(frozen=True)
class AxiomWitness:
    """First counterexample found by an axiom scan.

    ``kind`` is "fs-violation" or "se-violation"; ``i`` is the
    separator index for strong elimination and None otherwise.
    """

    kind: str
    x: SignVector
    y: SignVector
    i: int | None = None


class Com:
    """A set of sign vectors on a common ground set, canonically ordered.

    The constructor sorts, deduplicates and validates; two Com values are
    equal exactly when their covector lists are equal.  Membership tests
    run against a frozen set of (plus, minus) mask pairs.  Immutable
    results derived from the covectors are memoized per instance, never
    by value: hashing a Com walks its whole covector tuple.
    """

    __slots__ = ("n", "covectors", "_members", "_memo")

    def __init__(self, n: int, covectors: Iterable[SignVector]):
        vecs = list(covectors)
        for v in vecs:
            if v.n != n:
                raise ValueError("covector on wrong ground set")
        vecs.sort(key=SignVector.sort_key)
        deduped: list[SignVector] = []
        for v in vecs:
            if not deduped or deduped[-1] != v:
                deduped.append(v)
        self.n = n
        self.covectors = tuple(deduped)
        self._members = frozenset((v.plus, v.minus) for v in self.covectors)
        self._memo: dict[object, object] = {}

    def _cached(self, key: object, compute: Callable[[], T]) -> T:
        """The memoized result under key, computed on first request.

        For use by the analysis functions of this package; each result
        must be immutable, since every caller receives the same object.
        """
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]  # type: ignore[return-value]

    @classmethod
    def from_words(cls, n: int, words: Iterable[str]) -> "Com":
        vecs = []
        for w in words:
            if len(w) != n:
                raise ComFormatError(f"sign word {w!r} has length {len(w)}, expected {n}")
            vecs.append(SignVector.from_word(w))
        return cls(n, vecs)

    def __contains__(self, x: SignVector) -> bool:
        return (x.plus, x.minus) in self._members

    def __iter__(self) -> Iterator[SignVector]:
        return iter(self.covectors)

    def __len__(self) -> int:
        return len(self.covectors)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Com):
            return NotImplemented
        return self.n == other.n and self.covectors == other.covectors

    def __hash__(self) -> int:
        return hash((self.n, self.covectors))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Com({self.n}, {[v.word() for v in self.covectors]})"

    def words(self) -> list[str]:
        return [v.word() for v in self.covectors]


def check_face_symmetry(L: Com) -> AxiomWitness | None:
    """Return the first (X, Y) with X o (-Y) missing, scanning canonically."""
    for x in L.covectors:
        for y in L.covectors:
            if compose(x, -y) not in L:
                return AxiomWitness("fs-violation", x, y)
    return None


def check_strong_elimination(L: Com) -> AxiomWitness | None:
    """Return the first (X, Y, i) without an eliminating covector.

    Outside the separator X o Y and Y o X agree, so the condition is
    symmetric in X and Y and unordered pairs suffice.  The scan runs over
    canonically ordered pairs with the separator index ascending.
    """
    vecs = L.covectors
    zeros_at: dict[int, list[SignVector]] = {i: [] for i in range(L.n)}
    for z in vecs:
        sup = z.support
        for i in range(L.n):
            if not (sup >> i) & 1:
                zeros_at[i].append(z)
    for a in range(len(vecs)):
        x = vecs[a]
        for b in range(a, len(vecs)):
            y = vecs[b]
            sep = _separator_mask(x, y)
            if not sep:
                continue
            w = compose(x, y)
            keep = ~sep
            wp = w.plus & keep
            wm = w.minus & keep
            for i in _mask_bits(sep):
                if not any(
                    z.plus & keep == wp and z.minus & keep == wm
                    for z in zeros_at[i]
                ):
                    return AxiomWitness("se-violation", x, y, i)
    return None


def axiom_witness(L: Com) -> AxiomWitness | None:
    """The first face symmetry witness, else the first strong elimination
    witness; None when L is a conditional oriented matroid.  Computed
    once per Com."""
    return L._cached(
        "axiom_witness", lambda: check_face_symmetry(L) or check_strong_elimination(L)
    )


def is_com(L: Com) -> bool:
    """True when face symmetry and strong elimination both hold."""
    return axiom_witness(L) is None


def is_oriented_matroid(L: Com) -> bool:
    """True when the zero sign vector belongs to L.

    Requires the axioms to hold; raises ValueError otherwise.
    """
    if not is_com(L):
        raise ValueError("input is not a conditional oriented matroid")
    return SignVector(L.n, 0, 0) in L


def coloops(L: Com) -> frozenset[int]:
    """Indices at which every covector is zero."""
    used = 0
    for v in L.covectors:
        used |= v.support
    return frozenset(i for i in range(L.n) if not (used >> i) & 1)


def topes(L: Com) -> tuple[SignVector, ...]:
    """Covectors with full support, in canonical order."""
    full = (1 << L.n) - 1
    return tuple(v for v in L.covectors if v.support == full)


def parse_com_json(text: str) -> Com:
    """Parse ``{"n": int, "covectors": ["+-0", ...]}``; strict on content."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ComFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ComFormatError("top level must be an object")
    if "n" not in data or "covectors" not in data:
        raise ComFormatError('keys "n" and "covectors" are required')
    n = data["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ComFormatError('"n" must be a nonnegative integer')
    words = data["covectors"]
    if not isinstance(words, list) or not all(isinstance(w, str) for w in words):
        raise ComFormatError('"covectors" must be a list of sign words')
    return Com.from_words(n, words)


def com_to_json(L: Com) -> str:
    return json.dumps({"n": L.n, "covectors": L.words()}, indent=2)
