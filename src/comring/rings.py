"""The ring of integer functions on topes and its filtered presentations.

Functions from the topes of a conditional oriented matroid to Z form a
ring under pointwise operations.  The Heaviside function h_i^+ is the
indicator of the topes positive at i, h_i^- = 1 - h_i^+, and the degree
of a function is the least k for which it is a Z-combination of
products of at most k Heaviside functions.  Since h_i^- = 1 - h_i^+ and
the indicators are idempotent, the products h_S = prod_{i in S} h_i^+
over plain subsets S already span each filtration step F_k (S ranging
over |S| <= k), which is what the membership check below uses.

The evaluation model sends the formal generator e_i^{s} to u * h_i^{s},
with u a central polynomial variable recording filtration level; a
function paired with level k lives in the Rees ring as u^k * f.  For a
circuit X the product e_X = prod_{X+} e_i^+ * prod_{X-}(-e_i^-)
vanishes on every tope, and when -X is also a circuit the difference
e_X - e_{-X} is divisible by u with quotient f_X, again vanishing.

Verification is numeric: the NBC monomials are shown to be a Z-basis by
a unimodular determinant, the filtration spans are checked by integer
lattice membership, and the three presentations (plain, associated
graded, Rees) are emitted as explicit polynomial relation lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .circuits import circuits
from .core import Com, SignVector, topes
from .exactalg import IntLattice, IntMatrix, determinant, rational_rref
from .nbc import LinearOrder, nbc_sets


@dataclass(frozen=True)
class UPoly:
    """Integer polynomial in u, coefficients low to high, trimmed."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("trailing zero coefficient")

    @classmethod
    def of(cls, coeffs: list[int]) -> "UPoly":
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return cls(tuple(coeffs))

    @classmethod
    def const(cls, c: int) -> "UPoly":
        return cls.of([c])

    @classmethod
    def u_power(cls, k: int, c: int = 1) -> "UPoly":
        return cls.of([0] * k + [c])

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "UPoly") -> "UPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return UPoly.of(out)

    def __neg__(self) -> "UPoly":
        return UPoly(tuple(-v for v in self.coeffs))

    def __sub__(self, other: "UPoly") -> "UPoly":
        return self + (-other)

    def __mul__(self, other: "UPoly") -> "UPoly":
        if self.is_zero() or other.is_zero():
            return UPoly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return UPoly.of(out)

    def divexact_u(self) -> "UPoly":
        """Quotient by u; raises when the constant term is nonzero."""
        if self.is_zero():
            return self
        if self.coeffs[0] != 0:
            raise ValueError("polynomial is not divisible by u")
        return UPoly(self.coeffs[1:])

    def __call__(self, u: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * u + c
        return acc


ZERO_P = UPoly(())
ONE_P = UPoly((1,))


@dataclass(frozen=True)
class TopeFunction:
    """A value in Z[u] per tope, in canonical tope order."""

    topes: tuple[SignVector, ...]
    values: tuple[UPoly, ...]

    def __post_init__(self) -> None:
        if len(self.topes) != len(self.values):
            raise ValueError("one value per tope required")

    @classmethod
    def constant(cls, L: Com, c: int) -> "TopeFunction":
        t = topes(L)
        return cls(t, tuple(UPoly.const(c) for _ in t))

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.values)

    def _check(self, other: "TopeFunction") -> None:
        if self.topes != other.topes:
            raise ValueError("tope lists differ")

    def __add__(self, other: "TopeFunction") -> "TopeFunction":
        self._check(other)
        return TopeFunction(
            self.topes, tuple(a + b for a, b in zip(self.values, other.values))
        )

    def __sub__(self, other: "TopeFunction") -> "TopeFunction":
        self._check(other)
        return TopeFunction(
            self.topes, tuple(a - b for a, b in zip(self.values, other.values))
        )

    def __mul__(self, other: "TopeFunction") -> "TopeFunction":
        self._check(other)
        return TopeFunction(
            self.topes, tuple(a * b for a, b in zip(self.values, other.values))
        )

    def scale(self, p: UPoly) -> "TopeFunction":
        return TopeFunction(self.topes, tuple(p * v for v in self.values))

    def divexact_u(self) -> "TopeFunction":
        return TopeFunction(self.topes, tuple(v.divexact_u() for v in self.values))

    def at_u(self, u: int) -> tuple[int, ...]:
        return tuple(v(u) for v in self.values)


def heaviside(L: Com, i: int, s: int) -> TopeFunction:
    """Indicator of the topes with sign s at i, as a constant function."""
    if not 0 <= i < L.n:
        raise ValueError("index outside ground set")
    if s not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    t = topes(L)
    bit = 1 << i
    mask_attr = "plus" if s > 0 else "minus"
    return TopeFunction(
        t,
        tuple(ONE_P if getattr(v, mask_attr) & bit else ZERO_P for v in t),
    )


@dataclass(frozen=True)
class EMonomial:
    """Word in the generators e_i^{s}, times a power of u."""

    word: tuple[tuple[int, int], ...]
    u_exp: int = 0

    def __post_init__(self) -> None:
        if self.u_exp < 0:
            raise ValueError("negative u exponent")
        for _, s in self.word:
            if s not in (1, -1):
                raise ValueError("sign must be +1 or -1")


def rho_eval(L: Com, m: EMonomial) -> TopeFunction:
    """Evaluate a monomial under e_i^{s} -> u * h_i^{s}.

    On a tope T each factor contributes u when T has sign s at i and 0
    otherwise, so the value is u^(len(word) + u_exp) on the topes
    matching every factor and 0 elsewhere; repeated factors only raise
    the power of u, as indicator idempotence demands.
    """
    t = topes(L)
    total = len(m.word) + m.u_exp
    values = []
    for v in t:
        hit = all(
            (v.plus if s > 0 else v.minus) & (1 << i) for i, s in m.word
        )
        values.append(UPoly.u_power(total) if hit else ZERO_P)
    return TopeFunction(t, tuple(values))


def e_X_eval(L: Com, x: SignVector) -> TopeFunction:
    """Evaluate e_X = prod_{X+} e_i^+ * prod_{X-} (-e_i^-).

    On a tope T the value is (-1)^|X-| u^|supp X| when T agrees with x
    on the support of x, and 0 otherwise.
    """
    if x.n != L.n:
        raise ValueError("ground sets differ")
    t = topes(L)
    k = bin(x.support).count("1")
    sign = -1 if bin(x.minus).count("1") % 2 else 1
    values = tuple(
        UPoly.u_power(k, sign)
        if x.plus & ~v.plus == 0 and x.minus & ~v.minus == 0
        else ZERO_P
        for v in t
    )
    return TopeFunction(t, values)


def f_X_eval(L: Com, x: SignVector) -> TopeFunction:
    """Evaluate f_X = (e_X - e_{-X}) / u for a symmetric circuit pair."""
    C = circuits(L)
    if x not in C or not C.paired(x):
        raise ValueError("x and -x must both be circuits")
    return (e_X_eval(L, x) - e_X_eval(L, -x)).divexact_u()


def _h_S_vector(tope_list: tuple[SignVector, ...], S: frozenset[int]) -> list[int]:
    mask = 0
    for i in S:
        mask |= 1 << i
    return [1 if v.plus & mask == mask else 0 for v in tope_list]


def nbc_basis_matrix(L: Com, order: LinearOrder | None = None) -> IntMatrix:
    """0/1 matrix of the NBC monomials h_S evaluated on the topes.

    Rows follow the canonical NBC order (size, then lexicographic) and
    columns the canonical tope order.  Raises when |NBC| != |topes|,
    which cannot happen for a conditional oriented matroid.
    """
    fam = nbc_sets(L, order)
    t = topes(L)
    if len(fam.sets) != len(t):
        raise ValueError("NBC count differs from tope count")
    return IntMatrix.from_rows([_h_S_vector(t, S) for S in fam.sets])


@dataclass(frozen=True)
class FiltrationReport:
    counts: tuple[int, ...]
    nbc_det: int
    membership_ok: bool
    kernel_ok: bool

    @property
    def ok(self) -> bool:
        return self.membership_ok and self.kernel_ok and abs(self.nbc_det) == 1


def verify_presentation(L: Com, order: LinearOrder | None = None) -> FiltrationReport:
    """Numeric verification of the presentation on one covector set.

    Checks, in order: every circuit evaluation e_X and every pair
    evaluation f_X vanishes; the NBC evaluation matrix is unimodular;
    and each product h_S lies in the integer span of the NBC rows of
    size at most |S|.  Membership at level |S| implies membership at
    every higher level, since the row set only grows with the level, so
    each subset is tested once.

    e_X is +-u^|X| on the topes extending X and 0 elsewhere, and for
    nonzero X no tope extends both X and -X, so f_X vanishes exactly
    when e_X and e_{-X} do.  The kernel check therefore reduces to: no
    tope extends any circuit.
    """
    t = topes(L)
    kernel_ok = not any(
        x.plus & ~v.plus == 0 and x.minus & ~v.minus == 0
        for x in circuits(L).circuits
        for v in t
    )
    fam = nbc_sets(L, order)
    det = determinant(nbc_basis_matrix(L, order))
    by_size: dict[int, list[frozenset[int]]] = {}
    for S in fam.sets:
        by_size.setdefault(len(S), []).append(S)
    lattice = IntLattice(len(t))
    membership_ok = True
    for k in range(L.n + 1):
        for S in by_size.get(k, []):
            lattice.add(_h_S_vector(t, S))
        for combo in combinations(range(L.n), k):
            if not lattice.contains(_h_S_vector(t, frozenset(combo))):
                membership_ok = False
                break
        if not membership_ok:
            break
    return FiltrationReport(fam.counts, det, membership_ok, kernel_ok)


def hilbert_series(L: Com, order: LinearOrder | None = None) -> tuple[int, ...]:
    """NBC count per cardinality: the rank of each filtration step.

    For covector sets realized by an arrangement in an open region these
    are also the even Betti numbers of the associated complexified
    complement model; the odd ones vanish.
    """
    return nbc_sets(L, order).counts


def gr_multiply(
    L: Com,
    order: LinearOrder | None,
    S1: frozenset[int] | set[int],
    S2: frozenset[int] | set[int],
) -> dict[frozenset[int], int]:
    """Product of two NBC classes in the associated graded ring.

    h_S1 * h_S2 = h_{S1 union S2} by idempotence; the result is expanded
    over the NBC basis by an exact rational solve (the coefficients are
    integers since the basis is unimodular) and truncated to the
    component of degree |S1| + |S2|.
    """
    fam = nbc_sets(L, order)
    s1, s2 = frozenset(S1), frozenset(S2)
    sets = list(fam.sets)
    if s1 not in sets or s2 not in sets:
        raise ValueError("inputs must be NBC sets")
    t = topes(L)
    target = _h_S_vector(t, s1 | s2)
    rows = [_h_S_vector(t, S) for S in sets]
    coeffs = _solve_int_combination(rows, target)
    degree = len(s1) + len(s2)
    return {
        S: c for S, c in zip(sets, coeffs) if c and len(S) == degree
    }


def _solve_int_combination(rows: list[list[int]], target: list[int]) -> list[int]:
    """Coefficients c with sum c_i row_i = target; rows must be a basis."""
    m = len(rows)
    # Solve the transposed square system by rational elimination.
    aug = [[row[c] for row in rows] + [v] for c, v in enumerate(target)]
    solved = rational_rref(aug, m)
    if solved is None:
        raise ValueError("target is outside the row space")
    coeffs = [0] * m
    for col, row in zip(*solved):
        v = row[m]
        if v.denominator != 1:
            raise ValueError("combination is not integral")
        coeffs[col] = int(v)
    return coeffs


# Multivariate relation polynomials.  Exponent tuples run over the
# generator list of the presentation; coefficients are integers.


@dataclass(frozen=True)
class MPoly:
    """Sparse integer polynomial over a fixed variable list."""

    nvars: int
    terms: tuple[tuple[tuple[int, ...], int], ...]

    @classmethod
    def of(cls, nvars: int, mapping: dict[tuple[int, ...], int]) -> "MPoly":
        cleaned = {e: c for e, c in mapping.items() if c}
        ordered = sorted(cleaned.items(), key=lambda item: _grlex_key(item[0]), reverse=True)
        return cls(nvars, tuple(ordered))

    @classmethod
    def zero(cls, nvars: int) -> "MPoly":
        return cls.of(nvars, {})

    @classmethod
    def const(cls, nvars: int, c: int) -> "MPoly":
        return cls.of(nvars, {(0,) * nvars: c})

    @classmethod
    def var(cls, nvars: int, j: int, c: int = 1) -> "MPoly":
        e = [0] * nvars
        e[j] = 1
        return cls.of(nvars, {tuple(e): c})

    def mapping(self) -> dict[tuple[int, ...], int]:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "MPoly") -> "MPoly":
        out = self.mapping()
        for e, c in other.terms:
            out[e] = out.get(e, 0) + c
        return MPoly.of(self.nvars, out)

    def __neg__(self) -> "MPoly":
        return MPoly(self.nvars, tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other: "MPoly") -> "MPoly":
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return MPoly.of(self.nvars, out)

    def divexact(self, j: int) -> "MPoly":
        """Quotient by variable j; raises when any term lacks it."""
        out = {}
        for e, c in self.terms:
            if e[j] == 0:
                raise ValueError("polynomial is not divisible by the variable")
            out[e[:j] + (e[j] - 1,) + e[j + 1 :]] = c
        return MPoly.of(self.nvars, out)

    def substitute_const(self, j: int, value: int) -> "MPoly":
        """Set variable j to an integer and drop it from the ring."""
        out: dict[tuple[int, ...], int] = {}
        for e, c in self.terms:
            scaled = c * (value ** e[j])
            e2 = e[:j] + e[j + 1 :]
            if scaled:
                out[e2] = out.get(e2, 0) + scaled
        return MPoly.of(self.nvars - 1, out)

    def normalized_sign(self) -> "MPoly":
        """Flip the sign so the leading grlex coefficient is positive."""
        if self.terms and self.terms[0][1] < 0:
            return -self
        return self

    def render(self, names: list[str]) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            factors = []
            for j, k in enumerate(e):
                if k == 1:
                    factors.append(names[j])
                elif k > 1:
                    factors.append(f"{names[j]}^{k}")
            body = "*".join(factors)
            mag = abs(c)
            if not body:
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{mag}*{body}"
            parts.append(("- " if c < 0 else "+ ") + text)
        first = parts[0][2:] if parts[0].startswith("+ ") else "-" + parts[0][2:]
        return " ".join([first] + parts[1:])


def _grlex_key(e: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    return (sum(e), e)


@dataclass(frozen=True)
class Relation:
    tag: str
    poly: MPoly
    source: SignVector | None = None


@dataclass(frozen=True)
class Presentation:
    mode: str
    variables: tuple[str, ...]
    degrees: tuple[int, ...]
    relations: tuple[Relation, ...]
    metadata: dict[str, int] = field(default_factory=dict)

    def text_lines(self) -> list[str]:
        names = list(self.variables)
        lines = [f"mode: {self.mode}", "generators: " + ", ".join(names)]
        for rel in self.relations:
            label = rel.tag
            if rel.source is not None:
                label += f"[{rel.source.word()}]"
            lines.append(f"{label}: {rel.poly.render(names)} = 0")
        return lines


def presentation(
    L: Com,
    mode: str = "rees",
    *,
    reduced: bool = False,
    symmetric: bool = False,
) -> Presentation:
    """Generators and relations of the chosen ring.

    Modes: "rees" keeps the variable u, "vg" sets u = 1 (the plain
    function ring), "gr" sets u = 0 (the associated graded).  By default
    the negative generators are eliminated through e_i^- = u - e_i^+ and
    relations are written over the e_i^+ alone; ``symmetric`` keeps both
    generator families with the diagonal and sum relations.  ``reduced``
    drops the circuit relation e_X whenever -X is also a circuit, since
    it then follows from f_X and the sum relations.  Every generator has
    filtration level 1, hence cohomological degree 2.
    """
    if mode not in ("rees", "gr", "vg"):
        raise ValueError("mode must be rees, gr or vg")
    C = circuits(L)
    n = L.n
    circuit_list = C.unpaired() if reduced else list(C.circuits)
    pairs = C.symmetric_pairs()

    # The pair relation f_X is only a polynomial after the elimination
    # e_i^- = u - e_i^+, so it is always built in those coordinates.
    nv_elim = n + 1
    u_elim = MPoly.var(nv_elim, n)
    plus_elim = [MPoly.var(nv_elim, i) for i in range(n)]
    # -e_i^- = -(u - e_i^+) = e_i^+ - u
    minus_elim = [p - u_elim for p in plus_elim]

    def e_vec_elim(x: SignVector) -> MPoly:
        return _circuit_product(x, nv_elim, plus_elim, minus_elim)

    relations: list[Relation] = []
    if symmetric:
        nv = 2 * n + 1
        u = MPoly.var(nv, 2 * n)
        plus = [MPoly.var(nv, 2 * i) for i in range(n)]
        minus = [MPoly.var(nv, 2 * i + 1) for i in range(n)]
        for i in range(n):
            relations.append(Relation("diag", plus[i] * minus[i], None))
        for i in range(n):
            relations.append(Relation("sum", plus[i] + minus[i] - u, None))
        neg_minus = [-m for m in minus]
        for x in circuit_list:
            relations.append(Relation("circuit", _circuit_product(x, nv, plus, neg_minus), x))
        for x in pairs:
            f = (e_vec_elim(x) - e_vec_elim(-x)).divexact(n)
            relations.append(Relation("pair", _embed_eliminated(f, n), x))
        names = [f"e{i}{sgn}" for i in range(n) for sgn in "+-"]
    else:
        for p in plus_elim:
            relations.append(Relation("diag", p * (u_elim - p), None))
        for x in circuit_list:
            relations.append(Relation("circuit", e_vec_elim(x), x))
        for x in pairs:
            f = (e_vec_elim(x) - e_vec_elim(-x)).divexact(n)
            relations.append(Relation("pair", f, x))
        names = [f"e{i}+" for i in range(n)]
    names.append("u")

    if mode == "rees":
        final = [
            Relation(r.tag, r.poly.normalized_sign(), r.source)
            for r in relations
            if not r.poly.is_zero()
        ]
    else:
        value = 1 if mode == "vg" else 0
        final = []
        for r in relations:
            p = r.poly.substitute_const(len(names) - 1, value).normalized_sign()
            if not p.is_zero():
                final.append(Relation(r.tag, p, r.source))
        names = names[:-1]

    return Presentation(
        mode,
        tuple(names),
        tuple(2 for _ in names),
        tuple(final),
        {"generator_filtration_level": 1, "generator_cohomological_degree": 2},
    )


def _circuit_product(
    x: SignVector, nvars: int, pos: list[MPoly], neg: list[MPoly]
) -> MPoly:
    """The circuit product e_X: pos[i] for each i in X+ times neg[i] for
    each i in X-, in index order."""
    acc = MPoly.const(nvars, 1)
    for i in range(x.n):
        s = x.sign(i)
        if s > 0:
            acc = acc * pos[i]
        elif s < 0:
            acc = acc * neg[i]
    return acc


def _embed_eliminated(p: MPoly, n: int) -> MPoly:
    """Reindex a polynomial in (e_i^+, u) over (e_i^+, e_i^-, u).

    e_i^+ and u keep their meaning in the larger ring, so the embedding
    just spaces out the exponent tuples with zero e_i^- slots.
    """
    out = {}
    for e, c in p.terms:
        spaced = []
        for i in range(n):
            spaced.extend((e[i], 0))
        spaced.append(e[n])
        out[tuple(spaced)] = c
    return MPoly.of(2 * n + 1, out)
