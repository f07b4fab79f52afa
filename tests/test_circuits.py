from itertools import product

import pytest

from comring.circuits import (
    circuits,
    in_generator_set,
    om_circuits,
    orthogonal,
    realized_patterns,
)
from comring.core import Com, SignVector
from comring.realize import covectors, geometric_circuits


def brute_force_circuits(L):
    """Independent oracle: support-minimal sign vectors no covector extends.

    Enumerates all 3^n sign vectors with a plain agreement test, keeps
    the nonextendable ones, then filters to inclusion-minimal supports.
    The zero vector is extended by every covector, so it survives
    exactly when L is empty.
    """
    blocked = []
    for signs in product((-1, 0, 1), repeat=L.n):
        x = SignVector.from_signs(signs)
        extendable = any(
            all(v.sign(i) == x.sign(i) for i in x.support_set())
            for v in L.covectors
        )
        if not extendable:
            blocked.append(x)
    supports = [x.support_set() for x in blocked]
    return {
        x
        for x, s in zip(blocked, supports)
        if not any(t < s for t in supports)
    }


def test_oracle_agreement_planar(gen3):
    assert set(circuits(gen3).circuits) == brute_force_circuits(gen3)


def test_oracle_agreement_quadrilateral(ex4):
    assert set(circuits(ex4).circuits) == brute_force_circuits(ex4)


def test_oracle_agreement_degenerate():
    for L in (
        Com(2, []),
        Com.from_words(1, ["0"]),
        Com.from_words(1, ["+"]),
        Com.from_words(0, [""]),
        Com.from_words(2, ["0+", "0-", "00"]),
    ):
        assert set(circuits(L).circuits) == brute_force_circuits(L)


def test_oracle_agreement_seeded():
    from comring.verify import corpus_arrangement

    for seed in (1, 3, 7, 11):
        L = covectors(corpus_arrangement(seed))
        assert set(circuits(L).circuits) == brute_force_circuits(L)


def test_planar_fixture_golden(gen3):
    C = circuits(gen3)
    assert C.words() == ["--+", "++-"]
    assert [sorted(s) for s in C.minimal_deficient_supports] == [[0, 1, 2]]


def test_degenerate_goldens():
    assert circuits(Com(2, [])).words() == ["00"]
    assert circuits(Com.from_words(1, ["0"])).words() == ["-", "+"]
    assert circuits(Com.from_words(1, ["+"])).words() == ["-"]
    assert circuits(Com.from_words(0, [""])).words() == []


def test_symmetric_pairs_and_unpaired(ex4):
    C = circuits(ex4)
    assert [x.word() for x in C.symmetric_pairs()] == ["-+-0"]
    assert [x.word() for x in C.unpaired()] == ["-+0-", "00+-"]


def test_deficient_supports_upward_closed(gen3, ex4):
    for L in (gen3, ex4):
        C = circuits(L)
        full = frozenset(range(L.n))
        for s in C.minimal_deficient_supports:
            for extra in range(L.n):
                sup = frozenset(s) | {extra}
                assert len(realized_patterns(L, sup)) < 1 << len(sup)
        for sup in ({0}, full):
            deficient = len(realized_patterns(L, sup)) < 1 << len(sup)
            has_minimal_below = any(frozenset(s) <= sup for s in C.minimal_deficient_supports)
            assert deficient == has_minimal_below


def test_circuits_are_nonextendable(gen3, ex4):
    for L in (gen3, ex4):
        for x in circuits(L).circuits:
            assert in_generator_set(L, x)
        for v in L:
            if not v.is_zero():
                assert not in_generator_set(L, v)


def test_realized_patterns_golden(gen3):
    pats = realized_patterns(gen3, {0, 1, 2})
    assert len(pats) == 6
    assert (1, 1, -1) not in pats and (-1, -1, 1) not in pats
    assert realized_patterns(gen3, set()) == {()}
    assert realized_patterns(Com(2, []), set()) == frozenset()


def test_orthogonal():
    x = SignVector.from_word("+-0")
    assert orthogonal(x, SignVector.from_word("00+"))
    assert orthogonal(x, SignVector.from_word("++0"))
    assert not orthogonal(x, SignVector.from_word("+00"))
    assert orthogonal(x, SignVector.from_word("000"))


def test_om_circuits_matches_blocker_form(gen3):
    assert om_circuits(gen3).circuits == circuits(gen3).circuits


def test_om_circuits_full_cube_empty():
    L = Com.from_words(2, ["".join(w) for w in product("+-0", repeat=2)])
    assert om_circuits(L).words() == []
    assert circuits(L).words() == []


def test_om_circuits_rejects_non_om(ex4):
    with pytest.raises(ValueError):
        om_circuits(ex4)
    with pytest.raises(ValueError):
        om_circuits(Com.from_words(1, ["+", "-"]))


def test_geometric_circuits_cross_check(gen3_arrangement, ex4_arrangement):
    for arr in (gen3_arrangement, ex4_arrangement):
        L = covectors(arr)
        assert set(geometric_circuits(arr).circuits) == set(circuits(L).circuits)
