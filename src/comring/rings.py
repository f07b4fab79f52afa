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

Verification is numeric, by integer lattices: the filtration spans are
checked by membership and the NBC monomials shown to be a Z-basis by
the determinant of one lattice, and the three presentations (plain,
associated graded, Rees) are emitted as explicit polynomial relation
lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations, islice
from operator import add, mul, sub
from typing import Callable, Iterable

from .circuits import circuits
from .core import Com, SignVector, check_index, coloops, elements, topes
from .exactalg import IntLattice, Matrix, hermite_normal_form
from .minors import extended_circuit
from .nbc import LinearOrder, nbc_sets


@dataclass(frozen=True)
class TopeFunction:
    """A value in Z[u] per tope, in canonical tope order.

    Each value is an ``MPoly`` in the single variable u.
    """

    topes: tuple[SignVector, ...]
    values: tuple[MPoly, ...]

    def __post_init__(self) -> None:
        if len(self.topes) != len(self.values):
            raise ValueError("one value per tope required")

    @classmethod
    def constant(cls, L: Com, c: int) -> "TopeFunction":
        t = topes(L)
        return cls(t, tuple(MPoly.const(1, c) for _ in t))

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.values)

    def _pointwise(
        self, op: Callable[[MPoly, MPoly], MPoly], other: "TopeFunction"
    ) -> "TopeFunction":
        if self.topes != other.topes:
            raise ValueError("tope lists differ")
        return TopeFunction(self.topes, tuple(map(op, self.values, other.values)))

    def __add__(self, other: "TopeFunction") -> "TopeFunction":
        return self._pointwise(add, other)

    def __sub__(self, other: "TopeFunction") -> "TopeFunction":
        return self._pointwise(sub, other)

    def __mul__(self, other: "TopeFunction") -> "TopeFunction":
        return self._pointwise(mul, other)

    def scale(self, p: MPoly) -> "TopeFunction":
        return TopeFunction(self.topes, tuple(p * v for v in self.values))

    def divexact_u(self) -> "TopeFunction":
        """Quotient by u; raises when some value has a nonzero constant term."""
        return TopeFunction(self.topes, tuple(v.divexact(0) for v in self.values))

    def at_u(self, u: int) -> tuple[int, ...]:
        return tuple(sum(c * u ** e[0] for e, c in v.terms) for v in self.values)


def _indicator(L: Com, plus: int, minus: int, value: MPoly) -> TopeFunction:
    """The function equal to value on the topes that extend (plus, minus),
    and 0 elsewhere."""
    t = topes(L)
    zero = MPoly.zero(1)
    return TopeFunction(t, tuple(zero if plus & ~v.plus or minus & ~v.minus else value for v in t))


def heaviside(L: Com, i: int, s: int) -> TopeFunction:
    """Indicator of the topes with sign s at i, as a constant function."""
    check_index(i, L.n)
    if type(s) is not int or s not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    bit = 1 << i
    return _indicator(L, bit if s > 0 else 0, bit if s < 0 else 0, MPoly.const(1, 1))


@dataclass(frozen=True)
class EMonomial:
    """Word in the generators e_i^{s}, times a power of u."""

    word: tuple[tuple[int, int], ...]
    u_exp: int = 0

    def __post_init__(self) -> None:
        if type(self.u_exp) is not int:
            raise ValueError("u exponent must be an int")
        if self.u_exp < 0:
            raise ValueError("negative u exponent")
        for i, s in self.word:
            if type(i) is not int:
                raise ValueError("index outside ground set")
            if type(s) is not int or s not in (1, -1):
                raise ValueError("sign must be +1 or -1")


def rho_eval(L: Com, m: EMonomial) -> TopeFunction:
    """Evaluate a monomial under e_i^{s} -> u * h_i^{s}.

    On a tope T each factor contributes u when T has sign s at i and 0
    otherwise, so the value is u^(len(word) + u_exp) on the topes
    matching every factor and 0 elsewhere; repeated factors only raise
    the power of u, as indicator idempotence demands.
    """
    plus = minus = 0
    for i, s in m.word:
        check_index(i, L.n)
        if s > 0:
            plus |= 1 << i
        else:
            minus |= 1 << i
    return _indicator(L, plus, minus, MPoly.of(1, {(len(m.word) + m.u_exp,): 1}))


def e_X_eval(L: Com, x: SignVector) -> TopeFunction:
    """Evaluate e_X = prod_{X+} e_i^+ * prod_{X-} (-e_i^-).

    On a tope T the value is (-1)^|X-| u^|supp X| when T agrees with x
    on the support of x, and 0 otherwise.
    """
    if x.n != L.n:
        raise ValueError("ground sets differ")
    k = bin(x.support).count("1")
    sign = -1 if bin(x.minus).count("1") % 2 else 1
    return _indicator(L, x.plus, x.minus, MPoly.of(1, {(k,): sign}))


def f_X_eval(L: Com, x: SignVector) -> TopeFunction:
    """Evaluate f_X = (e_X - e_{-X}) / u for a symmetric circuit pair."""
    C = circuits(L)
    if x not in C or not C.paired(x):
        raise ValueError("x and -x must both be circuits")
    return (e_X_eval(L, x) - e_X_eval(L, -x)).divexact_u()


def _h_S_vector(tope_list: tuple[SignVector, ...], S: int) -> list[int]:
    """h_S on the topes, for the subset S given as a bit mask."""
    return [1 if v.plus & S == S else 0 for v in tope_list]


def nbc_basis_matrix(L: Com, order: LinearOrder | None = None) -> Matrix:
    """0/1 matrix of the NBC monomials h_S evaluated on the topes.

    Rows follow the canonical NBC order (size, then lexicographic) and
    columns the canonical tope order.  Raises when |NBC| != |topes|,
    which cannot happen for a conditional oriented matroid.
    """
    fam = nbc_sets(L, order)
    t = topes(L)
    if len(fam.sets) != len(t):
        raise ValueError("NBC count differs from tope count")
    return tuple(tuple(_h_S_vector(t, S)) for S in fam.sets)


@dataclass(frozen=True)
class FiltrationReport:
    """The NBC determinant and the first failure of each presentation
    check: a circuit some tope extends, and a subset S (a bit mask) whose
    h_S lies outside the span of the NBC rows of size at most |S|."""

    nbc_det: int
    kernel_failed_at: SignVector | None = None
    filtration_failed_at: int | None = None

    @property
    def kernel_ok(self) -> bool:
        return self.kernel_failed_at is None

    @property
    def membership_ok(self) -> bool:
        return self.filtration_failed_at is None

    @property
    def ok(self) -> bool:
        return self.membership_ok and self.kernel_ok and abs(self.nbc_det) == 1


def verify_presentation(L: Com, order: LinearOrder | None = None) -> FiltrationReport:
    """Numeric verification of the presentation on one covector set.

    Checks, in order: every circuit evaluation e_X and every pair
    evaluation f_X vanishes; each product h_S lies in the integer span
    of the NBC rows of size at most |S|, which one lattice takes level by
    level; and the lattice of all NBC rows has determinant +-1 (the rows
    still go in after a failure).  Membership at level |S| implies it at
    every higher level, so each subset is tested once.  Once every row is
    in and the determinant is +-1 the lattice is all of Z^topes, so the
    test stops there.  Raises when |NBC| != |topes|, which cannot happen
    for a conditional oriented matroid.

    e_X is +-u^|X| on the topes extending X and 0 elsewhere, and for
    nonzero X no tope extends both X and -X, so f_X vanishes exactly
    when e_X and e_{-X} do.  The kernel check therefore reduces to: no
    tope extends any circuit.  Without a coloop the topes are the widest
    covectors, so that is ``extended_circuit``, the generator test that
    ``full_verify`` shares; with a coloop there is no tope, and it holds.
    """
    t = topes(L)
    kernel_failed_at = None if coloops(L) else extended_circuit(L)
    fam = nbc_sets(L, order)
    rows = iter(nbc_basis_matrix(L, fam.order))
    lattice = IntLattice(len(t))
    failed_at = None
    for k in range(L.n + 1):
        if k < len(fam.counts):
            for row in islice(rows, fam.counts[k]):
                lattice.add(row)
        elif failed_at is not None or abs(lattice.det()) == 1:
            break
        if failed_at is None:
            subsets = (sum(1 << i for i in c) for c in combinations(range(L.n), k))
            failed_at = next(
                (S for S in subsets if not lattice.contains(_h_S_vector(t, S))), None
            )
    return FiltrationReport(lattice.det(), kernel_failed_at, failed_at)


def hilbert_series(L: Com, order: LinearOrder | None = None) -> tuple[int, ...]:
    """NBC count per cardinality: the rank of each filtration step.

    For covector sets realized by an arrangement in an open region these
    are also the even Betti numbers of the associated complexified
    complement model; the odd ones vanish.
    """
    return nbc_sets(L, order).counts


def gr_multiply(L: Com, order: LinearOrder | None, S1: int, S2: int) -> dict[int, int]:
    """Product of two NBC classes in the associated graded ring.

    S1, S2 and the keys of the result are NBC sets as bit masks.
    h_S1 * h_S2 = h_{S1 union S2} by idempotence.  The NBC matrix M is
    unimodular, so its Hermite normal form is U * M = I and the target
    has the integer coefficients h_{S1 union S2} * U over the NBC basis;
    they are truncated to degree |S1| + |S2|.  Raises unless U * M = I.
    The pair (H, U) is computed once per Com and order.
    H = I iff its diagonal is 1: in row style HNF those 1s are the pivots, and clear their columns.
    """
    fam = nbc_sets(L, order)
    if S1 not in fam.sets or S2 not in fam.sets:
        raise ValueError("inputs must be NBC sets")
    t = topes(L)
    H, U = L._cached(
        ("nbc_hnf", fam.order.perm),
        lambda: hermite_normal_form(nbc_basis_matrix(L, fam.order)),
    )
    if any(H[i][i] != 1 for i in range(len(t))):
        raise ValueError("NBC matrix is not unimodular")
    target = _h_S_vector(t, S1 | S2)
    coeffs = [sum(map(mul, target, column)) for column in zip(*U)]
    degree = S1.bit_count() + S2.bit_count()
    return {S: c for S, c in zip(fam.sets, coeffs) if c and S.bit_count() == degree}


# Sparse integer polynomials.  Exponent tuples run over a fixed variable
# list: the generators of a presentation, or u alone for the values of a
# TopeFunction; coefficients are integers.


@dataclass(frozen=True)
class MPoly:
    """Sparse integer polynomial over a fixed variable list."""

    nvars: int
    terms: tuple[tuple[tuple[int, ...], int], ...]

    @classmethod
    def of(cls, nvars: int, mapping: dict[tuple[int, ...], int]) -> "MPoly":
        """The polynomial with these exponent tuples and coefficients; raises
        ValueError unless every number given is an int (a bool is none), none
        but a coefficient is negative, and each exponent is ``nvars`` long."""
        if type(nvars) is not int or nvars < 0:
            raise ValueError("variable count must be a nonnegative int")
        if {*map(len, mapping)} - {nvars}:
            raise ValueError("exponent length does not match variable count")
        if {*map(type, chain.from_iterable(mapping)), *map(type, mapping.values())} - {int}:
            raise ValueError("exponents and coefficients must be ints")
        if min(chain.from_iterable(mapping), default=0) < 0:
            raise ValueError("negative exponent")
        terms = [(e, c) for e, c in mapping.items() if c]
        # Graded lexicographic order, highest first.
        terms.sort(key=lambda item: (sum(item[0]), item[0]), reverse=True)
        return cls(nvars, tuple(terms))

    @classmethod
    def product(cls, nvars: int, factors: Iterable["MPoly"]) -> "MPoly":
        """The expanded product of the factors, 1 when there are none.

        This is the one expansion loop: the terms grow in one exponent
        dict, factor by factor, and are sorted once, by ``of``.  Raises
        ValueError when a factor has another number of variables."""
        terms = {(0,) * nvars: 1}
        for factor in factors:
            _same_variables(nvars, factor)
            grown: dict[tuple[int, ...], int] = {}
            for e1, c1 in terms.items():
                for e2, c2 in factor.terms:
                    e = tuple(map(add, e1, e2))
                    grown[e] = grown.get(e, 0) + c1 * c2
            terms = grown
        return cls.of(nvars, terms)

    @classmethod
    def zero(cls, nvars: int) -> "MPoly":
        return cls.of(nvars, {})

    @classmethod
    def const(cls, nvars: int, c: int) -> "MPoly":
        return cls.of(nvars, {(0,) * nvars: c})

    @classmethod
    def var(cls, nvars: int, j: int) -> "MPoly":
        check_index(j, nvars, "variable index out of range")
        e = [0] * nvars
        e[j] = 1
        return cls.of(nvars, {tuple(e): 1})

    def mapping(self) -> dict[tuple[int, ...], int]:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "MPoly") -> "MPoly":
        _same_variables(self.nvars, other)
        out = self.mapping()
        for e, c in other.terms:
            out[e] = out.get(e, 0) + c
        return MPoly.of(self.nvars, out)

    def __neg__(self) -> "MPoly":
        return MPoly(self.nvars, tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other: "MPoly") -> "MPoly":
        return MPoly.product(self.nvars, (self, other))

    def divexact(self, j: int) -> "MPoly":
        """Quotient by variable j; raises when any term lacks it."""
        check_index(j, self.nvars, "variable index out of range")
        out = {}
        for e, c in self.terms:
            if e[j] == 0:
                raise ValueError("polynomial is not divisible by the variable")
            out[e[:j] + (e[j] - 1,) + e[j + 1 :]] = c
        return MPoly.of(self.nvars, out)

    def substitute_const(self, j: int, value: int) -> "MPoly":
        """Set variable j to an integer and drop it from the ring."""
        check_index(j, self.nvars, "variable index out of range")
        if type(value) is not int:
            raise ValueError("value must be an int")
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
        if len(names) != self.nvars:
            raise ValueError("one name per variable")
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


def _same_variables(nvars: int, p: MPoly) -> None:
    if p.nvars != nvars:
        raise ValueError("polynomials have different variable counts")


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

    # e_i^+ sits at index 2i, beside e_i^- at 2i + 1, when symmetric and
    # at i otherwise; u is last.  The pair relation f_X is only a
    # polynomial after the elimination -e_i^- = e_i^+ - u, so it is
    # always built from the eliminated list.
    nv = 2 * n + 1 if symmetric else n + 1
    u = MPoly.var(nv, nv - 1)
    plus = [MPoly.var(nv, (2 if symmetric else 1) * i) for i in range(n)]
    eliminated = [p - u for p in plus]

    relations: list[Relation] = []
    if symmetric:
        minus = [MPoly.var(nv, 2 * i + 1) for i in range(n)]
        relations += [Relation("diag", p * m) for p, m in zip(plus, minus)]
        relations += [Relation("sum", p + m - u) for p, m in zip(plus, minus)]
        neg_minus = [-m for m in minus]
        names = [f"e{i}{sgn}" for i in range(n) for sgn in "+-"]
    else:
        relations += [Relation("diag", p * (u - p)) for p in plus]
        neg_minus = eliminated
        names = [f"e{i}+" for i in range(n)]

    def e_product(x: SignVector, neg: list[MPoly]) -> MPoly:
        """e_X: plus[i] for each i in X+ times neg[i] for each i in X-."""
        pos_factors = [plus[i] for i in elements(x.plus)]
        return MPoly.product(nv, pos_factors + [neg[i] for i in elements(x.minus)])

    for x in circuit_list:
        relations.append(Relation("circuit", e_product(x, neg_minus), x))
    for x in C.symmetric_pairs():
        e_x_diff = e_product(x, eliminated) - e_product(-x, eliminated)
        relations.append(Relation("pair", e_x_diff.divexact(nv - 1), x))
    names.append("u")

    final = []
    for r in relations:
        p = r.poly
        if mode != "rees":
            p = p.substitute_const(len(names) - 1, 1 if mode == "vg" else 0)
        if not p.is_zero():
            final.append(Relation(r.tag, p.normalized_sign(), r.source))
    if mode != "rees":
        names = names[:-1]

    return Presentation(
        mode,
        tuple(names),
        tuple(2 for _ in names),
        tuple(final),
        {"generator_filtration_level": 1, "generator_cohomological_degree": 2},
    )

