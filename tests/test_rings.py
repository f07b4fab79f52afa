from fractions import Fraction

import pytest

from comring.circuits import circuits
from comring.core import Com, SignVector, elements, topes
from comring.exactalg import IntLattice, determinant
from comring.nbc import LinearOrder, nbc_sets
from comring.realize import covectors
from comring.rings import (
    EMonomial,
    MPoly,
    TopeFunction,
    e_X_eval,
    f_X_eval,
    gr_multiply,
    heaviside,
    hilbert_series,
    nbc_basis_matrix,
    presentation,
    rho_eval,
    verify_presentation,
)
from comring.verify import corpus_arrangement, generate_random_arrangement

V = SignVector.from_word


ZERO = MPoly.zero(1)


def u_power(k: int, c: int = 1) -> MPoly:
    """c * u^k as a polynomial in the single variable u."""
    return MPoly.of(1, {(k,): c})


def test_u_polynomial_arithmetic():
    p = MPoly.const(1, 1) + u_power(1, 2)
    q = MPoly.var(1, 0)
    assert p * q == MPoly.of(1, {(1,): 1, (2,): 2})
    assert p + q == MPoly.of(1, {(0,): 1, (1,): 3})
    assert (p - p).is_zero()
    one = TopeFunction.constant(Com.from_words(1, ["+"]), 1)
    assert one.scale(p).at_u(3) == (7,)
    assert one.scale(u_power(2, 5)).at_u(2) == (20,)
    assert (q * q).divexact(0) == MPoly.of(1, {(1,): 1})
    with pytest.raises(ValueError):
        p.divexact(0)
    with pytest.raises(ValueError):
        one.scale(p).divexact_u()


def test_heaviside_golden(gen3):
    h = heaviside(gen3, 0, 1)
    t = topes(gen3)
    assert h.at_u(1) == tuple(1 if x.word()[0] == "+" else 0 for x in t)
    with pytest.raises(ValueError):
        heaviside(gen3, 0, 0)
    with pytest.raises(ValueError):
        heaviside(gen3, 7, 1)


def test_heaviside_allows_coloops():
    L = Com.from_words(2, ["0+", "00", "0-"])
    h = heaviside(L, 0, 1)
    assert h.is_zero()


def test_complementary_indicators_sum_to_one(gen3):
    for i in range(gen3.n):
        both = heaviside(gen3, i, 1) + heaviside(gen3, i, -1)
        assert both == TopeFunction.constant(gen3, 1)
        assert (heaviside(gen3, i, 1) * heaviside(gen3, i, -1)).is_zero()


def test_rho_eval(gen3):
    t = topes(gen3)
    m = rho_eval(gen3, EMonomial(((0, 1), (1, -1))))
    # u^2 on the topes in the open quadrant x>0, y<0
    expected = tuple(
        u_power(2) if x.word()[:2] == "+-" else ZERO for x in t
    )
    assert m.values == expected
    # repeated factor: indicator idempotence, degree still counts both
    sq = rho_eval(gen3, EMonomial(((0, 1), (0, 1))))
    assert sq.values == tuple(
        u_power(2) if x.word()[0] == "+" else ZERO for x in t
    )
    assert rho_eval(gen3, EMonomial((), u_exp=1)) == TopeFunction.constant(
        gen3, 1
    ).scale(u_power(1))


def test_generator_relations_hold_pointwise(gen3):
    # e_i^+ e_i^- = 0 and e_i^+ + e_i^- = u after evaluation
    e0p = rho_eval(gen3, EMonomial(((0, 1),)))
    e0m = rho_eval(gen3, EMonomial(((0, -1),)))
    assert (e0p * e0m).is_zero()
    u1 = TopeFunction.constant(gen3, 1).scale(u_power(1))
    assert e0p + e0m == u1


def test_circuit_evaluations_vanish(gen3, ex4):
    for L in (gen3, ex4):
        for x in circuits(L).circuits:
            assert e_X_eval(L, x).is_zero()


def test_non_circuit_evaluations_do_not_vanish(gen3):
    assert not e_X_eval(gen3, V("+00")).is_zero()
    assert not e_X_eval(gen3, V("++0")).is_zero()


def test_e_X_sign_and_degree(gen3):
    t = topes(gen3)
    val = e_X_eval(gen3, V("+-0"))
    expected = tuple(
        u_power(2, -1) if x.word()[:2] == "+-" else ZERO for x in t
    )
    assert val.values == expected


def test_pair_evaluation_vanishes(gen3, ex4):
    for L in (gen3, ex4):
        C = circuits(L)
        for x in C.symmetric_pairs():
            assert f_X_eval(L, x).is_zero()


def chain_product(x, nvars, pos, neg):
    """The circuit product as the left-to-right chain of MPoly products."""
    acc = MPoly.const(nvars, 1)
    for i, s in enumerate(x.signs()):
        if s:
            acc = acc * (pos[i] if s > 0 else neg[i])
    return acc


def test_circuit_product_matches_multiplication_chain():
    """``MPoly.product`` over the factor list of e_X equals the chain of
    ``*``, for every circuit of corpus seeds 0-120 and -X for each
    symmetric pair.  The factors are e_i^+ on X+ and, on X-, the lists
    that ``presentation`` uses: e_i - u in both generator layouts, and
    -e_i^- in the symmetric one."""
    for seed in range(121):
        C = circuits(covectors(corpus_arrangement(seed)))
        n = C.n
        xs = list(C.circuits) + [-x for x in C.symmetric_pairs()]
        for nv, step in ((n + 1, 1), (2 * n + 1, 2)):
            u = MPoly.var(nv, nv - 1)
            plus = [MPoly.var(nv, step * i) for i in range(n)]
            negs = [[p - u for p in plus]]
            if step == 2:
                negs.append([-MPoly.var(nv, 2 * i + 1) for i in range(n)])
            for neg in negs:
                for x in xs:
                    factors = [plus[i] for i in elements(x.plus)]
                    factors += [neg[i] for i in elements(x.minus)]
                    assert MPoly.product(nv, factors) == chain_product(x, nv, plus, neg)


def relations_on_tope(pres, tope):
    """Each relation of pres under e_i^s -> u * h_i^s, evaluated at the
    tope as a map from the power of u to its coefficient; vg mode sets
    u = 1, so everything lands on one key.  A term counts only when the
    tope has sign s at i for every e_i^s in it."""
    wanted = []
    for name in pres.variables:
        bit = 0 if name == "u" else 1 << int(name[1:-1])
        wanted.append((bit, 0) if name.endswith("+") else (0, bit))
    values = []
    for rel in pres.relations:
        value = {}
        for e, c in rel.poly.terms:
            plus = minus = 0
            for (p, m), k in zip(wanted, e):
                if k:
                    plus |= p
                    minus |= m
            if plus & ~tope.plus == 0 and minus & ~tope.minus == 0:
                power = sum(e) if pres.mode == "rees" else 0
                value[power] = value.get(power, 0) + c
        values.append(value)
    return values


def test_presentation_relations_vanish_on_topes():
    """Every relation that ``presentation`` emits, in rees and vg mode
    and under each choice of reduced and symmetric, is zero on every
    tope: corpus seeds 0-120 and seeds 0-1 of the four verify-workload
    shapes."""
    shapes = ((3, 8, 2, False), (4, 6, 2, False), (3, 8, 0, True), (2, 9, 2, False))
    arrangements = [corpus_arrangement(seed) for seed in range(121)]
    for d, n, k, central in shapes:
        arrangements += [generate_random_arrangement(s, d, n, k, central) for s in range(2)]
    checked = 0
    for arr in arrangements:
        L = covectors(arr)
        t = topes(L)
        for mode in ("rees", "vg"):
            for reduced in (False, True):
                for symmetric in (False, True):
                    pres = presentation(L, mode, reduced=reduced, symmetric=symmetric)
                    for T in t:
                        for rel, value in zip(pres.relations, relations_on_tope(pres, T)):
                            assert not any(value.values()), (L.words(), mode, rel, T.word())
                    checked += 1
    assert checked == 1032


def squarefree_terms(poly):
    """The terms of poly on squarefree monomials, keyed by support mask;
    the others vanish modulo the diag relations e_i^2."""
    out = {}
    for e, c in poly.terms:
        if max(e, default=0) <= 1:
            out[sum(1 << j for j, k in enumerate(e) if k)] = c
    return out


def first_incomplete_degree(L, relations):
    """The first degree k whose squarefree monomials the products m * r
    and the NBC monomials of size k fail to span over Z, or None.

    The relations are the non-diag relations of a gr presentation, each
    homogeneous.  Degree k of the presented ring is Z^(n choose k) on the
    squarefree monomials modulo those products, so when they and the NBC
    monomials span it, the NBC classes span the quotient; they map onto a
    Z-basis of F_k / F_(k-1), so the presentation is complete in degree
    k.  That is enough for the other modes: R / uR is the presented gr
    ring and the Rees algebra is u-torsion free, so a kernel element
    u * y has y in the kernel one degree lower, and induction from degree
    0 leaves none; setting u = 1 then gives the plain ring.
    """
    rels = []
    for r in relations:
        terms = squarefree_terms(r.poly)
        assert len({sum(e) for e, _ in r.poly.terms}) == 1, r
        rels.append((sum(r.poly.terms[0][0]), terms))
    nbc = nbc_sets(L).sets

    def level(k):
        return [m for m in range(1 << L.n) if m.bit_count() == k]

    for k in range(L.n + 1):
        column = {mask: j for j, mask in enumerate(level(k))}
        lattice = IntLattice(len(column))
        for d, terms in rels:
            for m in level(k - d):
                vec = [0] * len(column)
                for t, c in terms.items():
                    if not t & m:
                        vec[column[t | m]] += c
                lattice.add(vec)
        for s in nbc:
            if s.bit_count() == k:
                vec = [0] * len(column)
                vec[column[s]] = 1
                lattice.add(vec)
        pivots = [lattice.basis[p][j] for j, p in lattice.pivot_row.items()]
        if lattice.rank() != len(column) or set(pivots) != {1}:
            return k
    return None


def test_gr_presentation_generates_the_whole_kernel():
    """The paper's completeness claim, over Z: on every corpus seed the
    gr relations, full and reduced, generate the kernel in each degree."""
    for seed in range(121):
        L = covectors(corpus_arrangement(seed))
        for reduced in (False, True):
            rels = presentation(L, "gr", reduced=reduced).relations
            diag = [r for r in rels if r.tag == "diag"]
            assert [r.poly for r in diag] == [
                MPoly.var(L.n, i) * MPoly.var(L.n, i) for i in range(L.n)
            ]
            rest = [r for r in rels if r.tag != "diag"]
            assert first_incomplete_degree(L, rest) is None, (seed, reduced)


def test_dropping_a_gr_relation_leaves_the_kernel_incomplete():
    dropped = 0
    for seed in range(10):
        L = covectors(corpus_arrangement(seed))
        rest = [r for r in presentation(L, "gr", reduced=True).relations if r.tag != "diag"]
        for j in range(len(rest)):
            assert first_incomplete_degree(L, rest[:j] + rest[j + 1 :]) is not None, (seed, j)
            dropped += 1
    assert dropped == 39


def test_pair_evaluation_requires_pair(ex4):
    with pytest.raises(ValueError):
        f_X_eval(ex4, V("00+-"))
    with pytest.raises(ValueError):
        f_X_eval(ex4, V("+000"))


def test_nbc_matrix_golden():
    L = Com.from_words(1, ["-", "0", "+"])
    B = nbc_basis_matrix(L)
    assert B == ((1, 1), (0, 1))
    assert determinant(B) == 1


def test_nbc_matrix_unimodular(gen3, ex4):
    for L in (gen3, ex4):
        assert abs(determinant(nbc_basis_matrix(L))) == 1


def test_verify_presentation(gen3, ex4):
    for L in (gen3, ex4):
        rep = verify_presentation(L)
        assert rep.ok
        assert abs(rep.nbc_det) == 1
        assert rep.kernel_ok and rep.membership_ok


def test_verify_presentation_degenerate():
    for L in (
        Com(2, []),
        Com.from_words(1, ["0"]),
        Com.from_words(1, ["+"]),
        Com.from_words(0, [""]),
    ):
        assert verify_presentation(L).ok


def test_verify_presentation_stops_once_lattice_is_full(gen3, ex4, monkeypatch):
    """Once every NBC row is in and the matrix is unimodular, no larger
    subset is tested."""
    calls = 0
    contains = IntLattice.contains

    def counting(self, vec):
        nonlocal calls
        calls += 1
        return contains(self, vec)

    monkeypatch.setattr(IntLattice, "contains", counting)
    for L, expected in ((gen3, 7), (ex4, 11), (Com(16, []), 0)):
        calls = 0
        assert verify_presentation(L).ok
        assert calls == expected


# (d, n, region rows, central, seeds) of the benchmark's verify inputs.
VERIFY_SHAPES = (
    (3, 8, 2, False, 2),
    (4, 6, 2, False, 2),
    (3, 8, 0, True, 2),
    (2, 9, 2, False, 3),
)


def test_nbc_det_matches_bareiss_with_sign():
    signs = set()
    for d, n, k, central, seeds in VERIFY_SHAPES:
        for s in range(seeds):
            L = covectors(generate_random_arrangement(s, d, n, k, central=central))
            rep = verify_presentation(L)
            assert rep.ok
            assert rep.nbc_det == determinant(nbc_basis_matrix(L)), (d, n, k, s)
            signs.add(rep.nbc_det)
    assert signs == {1, -1}


def test_nbc_det_after_a_filtration_failure(gen3, monkeypatch):
    """After a failed membership test every NBC row still goes in, so
    nbc_det is the determinant of all of them."""
    monkeypatch.setattr(IntLattice, "contains", lambda lattice, v: False)
    rep = verify_presentation(gen3)
    assert rep.filtration_failed_at == 0
    assert rep.nbc_det == determinant(nbc_basis_matrix(gen3)) == -1


def test_verify_presentation_order_invariant(gen3):
    for perm in ((0, 1, 2), (2, 0, 1), (1, 0, 2)):
        assert verify_presentation(gen3, LinearOrder(perm)).ok


def test_hilbert_goldens(gen3, ex4):
    assert hilbert_series(gen3) == (1, 3, 2)
    assert hilbert_series(ex4) == (1, 4, 4)
    assert hilbert_series(Com.from_words(1, ["0"])) == ()
    assert hilbert_series(Com.from_words(0, [""])) == (1,)
    assert hilbert_series(Com.from_words(1, ["+"])) == (1,)


def test_gr_multiply_golden(gen3):
    o = LinearOrder.identity(3)
    prod = gr_multiply(gen3, o, 0b010, 0b100)
    assert {tuple(elements(k)): v for k, v in prod.items()} == {
        (0, 1): 1,
        (0, 2): -1,
    }


def test_gr_multiply_identity_and_annihilation(gen3):
    o = LinearOrder.identity(3)
    assert gr_multiply(gen3, o, 0, 0b100) == {0b100: 1}
    # e^2 = u e dies in the graded ring
    assert gr_multiply(gen3, o, 0b001, 0b001) == {}
    # overlapping sets drop filtration level as well
    assert gr_multiply(gen3, o, 0b011, 0b010) == {}


def test_gr_multiply_requires_nbc_inputs(gen3):
    with pytest.raises(ValueError):
        gr_multiply(gen3, LinearOrder.identity(3), 0b110, 0b001)


def test_gr_multiply_top_degree_truncates(gen3):
    o = LinearOrder.identity(3)
    # degree 4 exceeds the filtration length, nothing survives
    assert gr_multiply(gen3, o, 0b011, 0b101) == {}


def fraction_inverse(rows):
    """The inverse of a square matrix, by Gauss-Jordan over Fractions on
    [rows | I], with integral entries as ints."""
    m = len(rows)
    work = [
        [Fraction(v) for v in r] + [Fraction(int(i == j)) for j in range(m)]
        for i, r in enumerate(rows)
    ]
    for col in range(m):
        pivot = next(r for r in range(col, m) if work[r][col])
        work[col], work[pivot] = work[pivot], work[col]
        work[col] = [v / work[col][col] for v in work[col]]
        for r in range(m):
            if r != col and work[r][col]:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[col])]
    return [[int(v) if v.denominator == 1 else v for v in row[m:]] for row in work]


def h_vector(t, S):
    return [int(all(v.sign(i) > 0 for i in elements(S))) for v in t]


def test_gr_multiply_matches_fraction_solve_on_corpus():
    """Every ordered NBC pair of corpus seeds 0-39: the expansion of
    h_{S1 union S2} over the NBC basis is integral, sums back to the
    target, and gr_multiply is its part of degree |S1| + |S2|."""
    pairs = nonzero = 0
    for seed in range(40):
        L = covectors(corpus_arrangement(seed))
        t = topes(L)
        sets = nbc_sets(L, None).sets
        rows = [h_vector(t, S) for S in sets]
        inverse = fraction_inverse(rows)
        for s1 in sets:
            for s2 in sets:
                # c * rows = target, so c = target * inverse.
                target = h_vector(t, s1 | s2)
                coeffs = [
                    sum(v * inverse[i][j] for i, v in enumerate(target) if v)
                    for j in range(len(sets))
                ]
                assert all(Fraction(c).denominator == 1 for c in coeffs)
                assert [
                    sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(len(t))
                ] == target
                degree = len(elements(s1)) + len(elements(s2))
                expected = {
                    S: int(c)
                    for S, c in zip(sets, coeffs)
                    if c and len(elements(S)) == degree
                }
                got = gr_multiply(L, None, s1, s2)
                assert got == expected, (seed, s1, s2)
                pairs += 1
                nonzero += bool(got)
    assert pairs == 3253 and nonzero == 966


def test_presentation_metadata(gen3):
    pres = presentation(gen3)
    assert pres.metadata == {
        "generator_filtration_level": 1,
        "generator_cohomological_degree": 2,
    }
    assert pres.degrees == (2,) * len(pres.variables)


def test_presentation_planar_golden(gen3):
    assert presentation(gen3).text_lines() == [
        "mode: rees",
        "generators: e0+, e1+, e2+, u",
        "diag: e0+^2 - e0+*u = 0",
        "diag: e1+^2 - e1+*u = 0",
        "diag: e2+^2 - e2+*u = 0",
        "circuit[--+]: e0+*e1+*e2+ - e0+*e2+*u - e1+*e2+*u + e2+*u^2 = 0",
        "circuit[++-]: e0+*e1+*e2+ - e0+*e1+*u = 0",
        "pair[--+]: e0+*e1+ - e0+*e2+ - e1+*e2+ + e2+*u = 0",
    ]


def test_presentation_quadrilateral_golden(ex4):
    assert presentation(ex4).text_lines() == [
        "mode: rees",
        "generators: e0+, e1+, e2+, e3+, u",
        "diag: e0+^2 - e0+*u = 0",
        "diag: e1+^2 - e1+*u = 0",
        "diag: e2+^2 - e2+*u = 0",
        "diag: e3+^2 - e3+*u = 0",
        "circuit[-+-0]: e0+*e1+*e2+ - e0+*e1+*u - e1+*e2+*u + e1+*u^2 = 0",
        "circuit[-+0-]: e0+*e1+*e3+ - e0+*e1+*u - e1+*e3+*u + e1+*u^2 = 0",
        "circuit[00+-]: e2+*e3+ - e2+*u = 0",
        "circuit[+-+0]: e0+*e1+*e2+ - e0+*e2+*u = 0",
        "pair[-+-0]: e0+*e1+ - e0+*e2+ + e1+*e2+ - e1+*u = 0",
    ]


def test_presentation_symmetric(gen3):
    lines = presentation(gen3, symmetric=True).text_lines()
    assert "generators: e0+, e0-, e1+, e1-, e2+, e2-, u" in lines
    assert "diag: e0+*e0- = 0" in lines
    assert "sum: e0+ + e0- - u = 0" in lines
    assert "circuit[--+]: e0-*e1-*e2+ = 0" in lines
    assert "pair[--+]: e0+*e1+ - e0+*e2+ - e1+*e2+ + e2+*u = 0" in lines


def test_mode_specializations_match(gen3, ex4):
    for L in (gen3, ex4):
        rees = presentation(L)
        nu = len(rees.variables) - 1
        for mode, value in (("vg", 1), ("gr", 0)):
            other = presentation(L, mode)
            assert "u" not in other.variables
            specialized = [
                (r.tag, r.poly.substitute_const(nu, value).normalized_sign())
                for r in rees.relations
            ]
            specialized = [(t, p) for t, p in specialized if not p.is_zero()]
            assert specialized == [(r.tag, r.poly) for r in other.relations]


def test_reduced_droppings(gen3, ex4):
    # oriented matroid: every circuit is one of a pair, none survive
    tags = [r.tag for r in presentation(gen3, reduced=True).relations]
    assert "circuit" not in tags and "pair" in tags
    # unpaired circuits stay
    tags4 = [
        (r.tag, r.source.word() if r.source else None)
        for r in presentation(ex4, reduced=True).relations
    ]
    assert ("circuit", "00+-") in tags4
    assert ("circuit", "-+0-") in tags4
    assert ("circuit", "-+-0") not in tags4
    assert ("pair", "-+-0") in tags4


def test_presentation_single_element_cases():
    lines = presentation(Com.from_words(1, ["+"]), "vg").text_lines()
    assert lines == [
        "mode: vg",
        "generators: e0+",
        "diag: e0+^2 - e0+ = 0",
        "circuit[-]: e0+ - 1 = 0",
    ]
    lines = presentation(Com.from_words(1, ["0"])).text_lines()
    assert "circuit[-]: e0+ - u = 0" in lines
    assert "circuit[+]: e0+ = 0" in lines


def test_presentation_rejects_bad_mode(gen3):
    with pytest.raises(ValueError):
        presentation(gen3, "weird")


def test_mpoly_render():
    p = MPoly.of(2, {(1, 0): 2, (0, 2): -3, (0, 0): 1})
    assert p.render(["x", "y"]) == "-3*y^2 + 2*x + 1"
    assert MPoly.zero(2).render(["x", "y"]) == "0"
