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
pure functions.  ``covector_columns`` is the column index of a ``Com``:
for each element, the covectors positive there and those negative there,
each as one integer bit set, so that "which covectors extend this
pattern?" is an AND over the pattern's support; the circuit, disjoint
covector and kernel checks ask it that way, and so does strong
elimination.

The axiom scans read mask pairs only.  Face symmetry implies closure
under composition, since X o (-(X o (-Y))) = X o Y.  So X o Y and Y o X
are members with equal support, and the pair (X o Y, Y o X) has the
separator of (X, Y) and the same X o Y: it asks the same strong
elimination question.  When face symmetry holds, the pairs of equal
support therefore certify strong elimination; the canonical scan of all
pairs runs only to name a witness, or when face symmetry fails.

Results derived from a ``Com`` (the face symmetry and axiom verdicts,
its column index, topes and coloops, its circuits, its NBC families) are
computed once per instance and kept on it.  Minors are
shared by value within one minor tree (see ``minors``), which is sound
because every memoized result is a pure function of ``(n, covectors)``.

Subsets of the ground set (circuit supports, NBC sets, filtration
witnesses) travel through the package as bit masks; ``elements`` lists
one in ascending order where a report is written.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Callable, Iterable, Iterator, TypeVar
from weakref import WeakValueDictionary

T = TypeVar("T")

SIGN_CHARS = {1: "+", 0: "0", -1: "-"}
# Bit j of a byte weighs 3^(7 - j): a byte of a plus or minus mask read as
# eight ternary digits, its lowest bit the most significant.
_TERNARY = tuple(sum(3 ** (7 - j) for j in range(8) if b >> j & 1) for b in range(256))


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

    def sort_key(self) -> int:
        """Canonical order: lexicographic on signs, so '-' < '0' < '+'.  The
        key reads the signs as balanced ternary, element 0 most significant."""
        key, plus, minus = 0, self.plus, self.minus
        for _ in range(0, self.n, 8):
            key = key * 3**8 + _TERNARY[plus & 255] - _TERNARY[minus & 255]
            plus >>= 8
            minus >>= 8
        return key

    def __neg__(self) -> "SignVector":
        return SignVector(self.n, self.minus, self.plus)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SignVector({self.word()!r})"


def elements(mask: int) -> list[int]:
    """The elements of a subset given as a bit mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _drop_bit(mask: int, i: int) -> int:
    """The mask with element i removed and the elements above it
    renumbered down by one, as in a minor at i."""
    low = mask & ((1 << i) - 1)
    return low | ((mask >> (i + 1)) << i)


def compose(x: SignVector, y: SignVector) -> SignVector:
    """Composition: take the sign of x, falling back to y where x is zero."""
    if x.n != y.n:
        raise ValueError("ground sets differ")
    free = ~x.support
    return SignVector(x.n, x.plus | (y.plus & free), x.minus | (y.minus & free))


def separator(x: SignVector, y: SignVector) -> int:
    """The mask of the indices where x and y carry opposite nonzero signs."""
    if x.n != y.n:
        raise ValueError("ground sets differ")
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

    The constructor validates and deduplicates in one pass keyed by the
    (plus, minus) mask pair, then sorts the distinct vectors; two Com
    values are equal exactly when their covector lists are equal.
    Membership tests compare the ground set, then look the pair up in
    ``_members``, the frozen set of mask pairs that the checks also read.
    Immutable results derived from the covectors are memoized per
    instance, since hashing a Com walks its whole covector tuple.  Within
    one minor tree, though, equal minors are one instance: ``_tree`` is
    the table of minors, held weakly, that the root and every minor
    derived from it share; the first minor built creates it.  Sharing is
    sound because every memoized result is a pure function of
    ``(n, covectors)``.
    """

    __slots__ = ("n", "covectors", "_members", "_memo", "_tree", "__weakref__")

    def __init__(self, n: int, covectors: Iterable[SignVector]):
        if n < 0:
            raise ValueError("ground set size must be nonnegative")
        distinct: dict[tuple[int, int], SignVector] = {}
        for v in covectors:
            if v.n != n:
                raise ValueError("covector on wrong ground set")
            distinct[v.plus, v.minus] = v
        self.n = n
        self.covectors = tuple(sorted(distinct.values(), key=SignVector.sort_key))
        self._members = frozenset(distinct)
        self._memo: dict[object, object] = {}
        self._tree: WeakValueDictionary[tuple[int, frozenset], Com] | None = None

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
        return x.n == self.n and (x.plus, x.minus) in self._members

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
    """Return the first (X, Y) with X o (-Y) missing, scanning canonically.

    X o (-Y) is X on the support of X and -Y off it, so the restrictions
    of -Y to the zero set of X, one set per distinct support, are all the
    scan tests.  A tope costs one lookup.  The covectors Y are rescanned
    only to name the first failing one.  Computed once per Com.
    """
    return _face_symmetry(L)


def _face_symmetry(L: Com) -> AxiomWitness | None:
    return L._cached("face_symmetry", lambda: _scan_face_symmetry(L))


def _scan_face_symmetry(L: Com) -> AxiomWitness | None:
    members = L._members
    restrictions: dict[int, set[tuple[int, int]]] = {}
    for x in L.covectors:
        support = x.support
        free = ~support
        rest = restrictions.get(support)
        if rest is None:
            rest = restrictions[support] = {
                (y.minus & free, y.plus & free) for y in L.covectors
            }
        if all((x.plus | p, x.minus | m) in members for p, m in rest):
            continue
        for y in L.covectors:
            if (x.plus | (y.minus & free), x.minus | (y.plus & free)) not in members:
                return AxiomWitness("fs-violation", x, y)
    return None


def check_strong_elimination(L: Com) -> AxiomWitness | None:
    """Return the first (X, Y, i) without an eliminating covector.

    Outside the separator S, X o Y and Y o X agree, so unordered pairs
    suffice, and each pair asks one question keyed by S and the
    restriction W of X o Y outside S: which e in S have a covector that
    is zero at e and equals W outside S?  The answer is the AND of the
    column index (``covector_columns``) over the elements outside S,
    then one AND per e with e's zero column.  Each distinct question is
    answered once per call.

    Face symmetry implies closure under composition, since
    X o (-(X o (-Y))) = X o Y.  So X o Y and Y o X are covectors with
    equal support, the same separator S and the same X o Y, and every
    pair asks what some equal-support pair asks.  When L is face
    symmetric, the pairs within each support class are therefore a
    certificate: if they all pass, L satisfies strong elimination.
    Otherwise, or when L is not face symmetric, the canonical pair scan
    (i ascending) runs with the same questions and names the first
    witness, so the result does not depend on face symmetry.
    """
    vecs = L.covectors
    ask = _elimination_question(L)
    if _face_symmetry(L) is None:
        classes: dict[int, list[SignVector]] = {}
        for v in vecs:
            classes.setdefault(v.support, []).append(v)
        pairs = chain.from_iterable(combinations(c, 2) for c in classes.values())
        if _first_elimination_failure(pairs, ask) is None:
            return None
    return _first_elimination_failure(combinations(vecs, 2), ask)


def _elimination_question(L: Com) -> Callable[[int, int, int], int]:
    """The strong elimination question as a function of (S, plus, minus),
    the separator and the restriction W of X o Y outside it: the elements
    of S at which no covector is zero while equal to W outside S.
    Answers are kept for the lifetime of the returned function."""
    cols = covector_columns(L)
    zero = [cols.every & ~(p | m) for p, m in zip(cols.plus, cols.minus)]
    n = L.n
    full = (1 << n) - 1
    vanishing: dict[int, int] = {}
    answers: dict[int, int] = {}

    def ask(sep: int, plus: int, minus: int) -> int:
        key = (sep << n | plus) << n | minus
        missing = answers.get(key)
        if missing is None:
            off = full & ~(sep | plus | minus)
            agree = vanishing.get(off)
            if agree is None:
                agree = vanishing[off] = cols.vanishing(off)
            agree &= cols.extending(plus, minus)
            missing = rest = sep
            while rest and agree:
                low = rest & -rest
                if agree & zero[low.bit_length() - 1]:
                    missing ^= low
                rest ^= low
            answers[key] = missing
        return missing

    return ask


def _first_elimination_failure(
    pairs: Iterable[tuple[SignVector, SignVector]],
    ask: Callable[[int, int, int], int],
) -> AxiomWitness | None:
    for x, y in pairs:
        sep = (x.plus & y.minus) | (x.minus & y.plus)
        if sep:
            free, keep = ~x.support, ~sep
            missing = ask(
                sep, (x.plus | (y.plus & free)) & keep, (x.minus | (y.minus & free)) & keep
            )
            if missing:
                return AxiomWitness("se-violation", x, y, (missing & -missing).bit_length() - 1)
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
    return (0, 0) in L._members


def coloops(L: Com) -> int:
    """The mask of the indices at which every covector is zero.  Computed
    once per Com."""

    def compute() -> int:
        used = 0
        for v in L.covectors:
            used |= v.support
        return ((1 << L.n) - 1) & ~used

    return L._cached("coloops", compute)


@dataclass(frozen=True)
class Columns:
    """The covectors of a ``Com`` as per-element bit sets.

    Bit j of ``plus[i]`` (``minus[i]``) is set when covector j, in
    canonical order, is positive (negative) at i; ``every`` has one bit
    per covector.  A covector extends a pattern exactly when it lies in
    the columns of every element the pattern signs, so every extension
    test is one AND per signed element.
    """

    plus: tuple[int, ...]
    minus: tuple[int, ...]
    every: int

    def extending(self, plus: int, minus: int) -> int:
        """The covectors positive on the plus mask and negative on the
        minus mask, as a bit set."""
        bits = self.every
        while plus:
            low = plus & -plus
            bits &= self.plus[low.bit_length() - 1]
            plus ^= low
        while minus:
            low = minus & -minus
            bits &= self.minus[low.bit_length() - 1]
            minus ^= low
        return bits

    def vanishing(self, mask: int) -> int:
        """The covectors zero at every element of mask, as a bit set."""
        bits = self.every
        while mask:
            low = mask & -mask
            i = low.bit_length() - 1
            bits &= ~(self.plus[i] | self.minus[i])
            mask ^= low
        return bits


def covector_columns(L: Com) -> Columns:
    """The column index of L.  Computed once per Com."""

    def compute() -> Columns:
        # One n-digit binary word per covector, the last covector first:
        # element i of covector j is digit n-1-i of word j, so every n-th
        # digit from n-1-i on spells column i, highest covector first.
        n, rows = L.n, L.covectors[::-1]
        plus = "".join(format(v.plus, f"0{n}b") for v in rows)
        minus = "".join(format(v.minus, f"0{n}b") for v in rows)
        return Columns(
            tuple(int(plus[n - 1 - i :: n] or "0", 2) for i in range(n)),
            tuple(int(minus[n - 1 - i :: n] or "0", 2) for i in range(n)),
            (1 << len(rows)) - 1,
        )

    return L._cached("columns", compute)


def topes(L: Com) -> tuple[SignVector, ...]:
    """Covectors with full support, in canonical order.  Computed once
    per Com."""
    full = (1 << L.n) - 1
    return L._cached(
        "topes", lambda: tuple(v for v in L.covectors if v.support == full)
    )


def parse_json_object(
    text: str, size_key: str, list_key: str, error: type[ValueError]
) -> dict:
    """The JSON object in text, which must hold both keys, with the value
    at size_key a nonnegative integer no larger than the text's length;
    raises error otherwise."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise error("top level must be an object")
    if size_key not in data or list_key not in data:
        raise error(f'keys "{size_key}" and "{list_key}" are required')
    size = data[size_key]
    if not isinstance(size, int) or isinstance(size, bool) or size < 0:
        raise error(f'"{size_key}" must be a nonnegative integer')
    if size > len(text):
        raise error(f'"{size_key}" {size} exceeds input length {len(text)}')
    return data


def parse_com_json(text: str) -> Com:
    """Parse ``{"n": int, "covectors": ["+-0", ...]}``; strict on content."""
    data = parse_json_object(text, "n", "covectors", ComFormatError)
    n, words = data["n"], data["covectors"]
    if not isinstance(words, list) or not all(isinstance(w, str) for w in words):
        raise ComFormatError('"covectors" must be a list of sign words')
    return Com.from_words(n, words)


def com_to_json(L: Com) -> str:
    return json.dumps({"n": L.n, "covectors": L.words()}, indent=2)
