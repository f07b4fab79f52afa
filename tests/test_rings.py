import pytest

from comring.circuits import circuits
from comring.core import Com, SignVector, topes
from comring.exactalg import determinant
from comring.nbc import LinearOrder
from comring.rings import (
    ONE_P,
    ZERO_P,
    EMonomial,
    MPoly,
    TopeFunction,
    UPoly,
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

V = SignVector.from_word


def test_upoly_arithmetic():
    p = UPoly.of([1, 2])
    q = UPoly.of([0, 1])
    assert (p * q).coeffs == (0, 1, 2)
    assert (p + q).coeffs == (1, 3)
    assert (p - p).is_zero()
    assert p(3) == 7
    assert UPoly.u_power(2, 5)(2) == 20
    assert (q * q).divexact_u().coeffs == (0, 1)
    with pytest.raises(ValueError):
        p.divexact_u()


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
        UPoly.u_power(2) if x.word()[:2] == "+-" else ZERO_P for x in t
    )
    assert m.values == expected
    # repeated factor: indicator idempotence, degree still counts both
    sq = rho_eval(gen3, EMonomial(((0, 1), (0, 1))))
    assert sq.values == tuple(
        UPoly.u_power(2) if x.word()[0] == "+" else ZERO_P for x in t
    )
    assert rho_eval(gen3, EMonomial((), u_exp=1)) == TopeFunction.constant(
        gen3, 1
    ).scale(UPoly.u_power(1))


def test_generator_relations_hold_pointwise(gen3):
    # e_i^+ e_i^- = 0 and e_i^+ + e_i^- = u after evaluation
    e0p = rho_eval(gen3, EMonomial(((0, 1),)))
    e0m = rho_eval(gen3, EMonomial(((0, -1),)))
    assert (e0p * e0m).is_zero()
    u1 = TopeFunction.constant(gen3, 1).scale(UPoly.u_power(1))
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
        UPoly.u_power(2, -1) if x.word()[:2] == "+-" else ZERO_P for x in t
    )
    assert val.values == expected


def test_pair_evaluation_vanishes(gen3, ex4):
    for L in (gen3, ex4):
        C = circuits(L)
        for x in C.symmetric_pairs():
            assert f_X_eval(L, x).is_zero()


def test_pair_evaluation_requires_pair(ex4):
    with pytest.raises(ValueError):
        f_X_eval(ex4, V("00+-"))
    with pytest.raises(ValueError):
        f_X_eval(ex4, V("+000"))


def test_nbc_matrix_golden():
    L = Com.from_words(1, ["-", "0", "+"])
    B = nbc_basis_matrix(L)
    assert B.row_lists() == [[1, 1], [0, 1]]
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
    prod = gr_multiply(gen3, o, {1}, {2})
    assert {tuple(sorted(k)): v for k, v in prod.items()} == {
        (0, 1): 1,
        (0, 2): -1,
    }


def test_gr_multiply_identity_and_annihilation(gen3):
    o = LinearOrder.identity(3)
    assert gr_multiply(gen3, o, set(), {2}) == {frozenset({2}): 1}
    # e^2 = u e dies in the graded ring
    assert gr_multiply(gen3, o, {0}, {0}) == {}
    # overlapping sets drop filtration level as well
    assert gr_multiply(gen3, o, {0, 1}, {1}) == {}


def test_gr_multiply_requires_nbc_inputs(gen3):
    with pytest.raises(ValueError):
        gr_multiply(gen3, LinearOrder.identity(3), {1, 2}, {0})


def test_gr_multiply_top_degree_truncates(gen3):
    o = LinearOrder.identity(3)
    # degree 4 exceeds the filtration length, nothing survives
    assert gr_multiply(gen3, o, {0, 1}, {0, 2}) == {}


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
