import pytest

from comring.circuits import circuits
from comring.core import Com, SignVector, is_com, topes
from comring.minors import (
    contract,
    delete,
    inject,
    is_wall,
    label_map,
    project,
    tope_trichotomy,
    verify_boolean_extension,
    verify_circuit_minor_laws,
    verify_disjoint_covector,
    verify_lift,
    verify_tope_recursion,
)


def test_project_inject():
    x = SignVector.from_word("+-0+")
    assert project(x, 1).word() == "+0+"
    assert inject(project(x, 1), 1).word() == "+00+"
    assert project(inject(SignVector.from_word("+-"), 0), 0).word() == "+-"


def test_label_map():
    assert label_map(4, 1) == {0: 0, 1: 2, 2: 3}
    assert label_map(1, 0) == {}


def test_contract_golden(gen3):
    M = contract(gen3, 0)
    assert M.words() == ["--", "00", "++"]
    assert is_com(M)


def test_delete_golden(gen3):
    M = delete(gen3, 2)
    assert len(M) == 9
    assert is_com(M)
    # two of the three lines through one point: all four quadrants remain
    assert set(M.words()) == {
        "--", "-0", "-+", "0-", "00", "0+", "+-", "+0", "++"
    }


def test_minors_preserve_axioms(gen3, ex4):
    for L in (gen3, ex4):
        for i in range(L.n):
            assert is_com(delete(L, i))
            assert is_com(contract(L, i))


def test_minor_commutation(ex4):
    L = ex4
    assert delete(delete(L, 3), 1) == delete(delete(L, 1), 2)
    assert contract(contract(L, 3), 1) == contract(contract(L, 1), 2)
    assert contract(delete(L, 3), 1) == delete(contract(L, 1), 2)


def test_is_wall(gen3):
    # first quadrant: bounded by the first two lines, the third only
    # meets its closure at the origin
    t = SignVector.from_word("+++")
    assert is_wall(gen3, t, 0)
    assert is_wall(gen3, t, 1)
    assert is_wall(gen3, t, 2) is False
    with pytest.raises(ValueError):
        is_wall(gen3, t, 5)
    with pytest.raises(ValueError):
        is_wall(gen3, SignVector.from_word("0++"), 1)


def test_trichotomy_golden(gen3):
    plus, minus, non_wall = tope_trichotomy(gen3, 0)
    assert {t.word() for t in plus} == {"+--", "+++"}
    assert {t.word() for t in minus} == {"---", "-++"}
    assert {t.word() for t in non_wall} == {"-+-", "+-+"}


def test_trichotomy_rejects_coloop():
    L = Com.from_words(2, ["0+", "00", "0-"])
    with pytest.raises(ValueError):
        tope_trichotomy(L, 0)


def test_tope_recursion_golden(gen3):
    r = verify_tope_recursion(gen3, 0)
    assert (r.n_topes, r.n_deletion_topes, r.n_contraction_topes) == (6, 4, 2)
    assert r.counts_ok and r.bijections_ok and r.ok


def test_tope_recursion_all_elements(gen3, ex4):
    for L in (gen3, ex4):
        for i in range(L.n):
            assert verify_tope_recursion(L, i).ok


def test_minor_tope_counts(gen3):
    rep = verify_tope_recursion(gen3, 1)
    assert rep.element == 1
    assert is_com(delete(gen3, 1)) and is_com(contract(gen3, 1))
    assert (rep.n_topes, rep.n_deletion_topes, rep.n_contraction_topes) == (6, 4, 2)


def test_circuit_minor_laws(gen3, ex4):
    for L in (gen3, ex4):
        for i in range(L.n):
            rep = verify_circuit_minor_laws(L, i)
            assert rep.ok, (i, rep)


def test_circuit_minor_laws_degenerate():
    assert verify_circuit_minor_laws(Com.from_words(1, ["+"]), 0).ok
    assert verify_circuit_minor_laws(Com.from_words(2, ["0+", "0-", "00"]), 0).ok
    assert verify_circuit_minor_laws(Com.from_words(2, ["0+", "0-", "00"]), 1).ok


def test_disjoint_covector(gen3, ex4):
    assert verify_disjoint_covector(gen3).ok
    assert verify_disjoint_covector(ex4).ok
    assert verify_disjoint_covector(Com(2, [])).ok


def test_lift(gen3, ex4):
    for L in (gen3, ex4):
        for i in range(L.n):
            assert verify_lift(L, i).ok


def test_boolean_extension(gen3, ex4):
    assert verify_boolean_extension(gen3, set())
    assert verify_boolean_extension(gen3, {0, 1})
    assert verify_boolean_extension(ex4, {0, 3})
    assert verify_boolean_extension(ex4, {1, 2})


def test_boolean_extension_rejects_deficient_sets(gen3, ex4):
    with pytest.raises(ValueError):
        verify_boolean_extension(gen3, {0, 1, 2})
    with pytest.raises(ValueError):
        verify_boolean_extension(ex4, {2, 3})


def test_deleting_all_elements_reaches_trivial(gen3):
    L = gen3
    while L.n:
        L = delete(L, 0)
        assert is_com(L)
    assert len(L) == 1


def test_contraction_can_create_coloop():
    # two copies of the same hyperplane: contracting one pins the other
    L = Com.from_words(2, ["--", "00", "++"])
    assert is_com(L)
    M = contract(L, 0)
    assert M.words() == ["0"]
    assert circuits(M).words() == ["-", "+"]


def test_empty_minors():
    E = Com(3, [])
    assert delete(E, 1) == Com(2, [])
    assert contract(E, 1) == Com(2, [])
    assert len(topes(E)) == 0
