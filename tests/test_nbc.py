from itertools import combinations

import pytest

from comring.circuits import circuits
from comring.core import Com, SignVector, topes
from comring.nbc import (
    LinearOrder,
    broken_circuit,
    induced_order,
    nbc_sets,
    order_with_maximum,
    verify_nbc_recursion,
    verify_nbc_tope,
)


def brute_force_nbc(L, order):
    """Independent oracle: filter all subsets against the blocker list.

    A subset is excluded when it contains a circuit support or, for a
    symmetric circuit pair, the support minus its order-minimum.
    """
    C = circuits(L)
    members = {(c.plus, c.minus) for c in C.circuits}
    blockers = []
    for c in C.circuits:
        blockers.append(c.support_set())
        if (c.minus, c.plus) in members and not c.is_zero():
            blockers.append(c.support_set() - {order.minimum(c.support_set())})
    out = []
    for k in range(L.n + 1):
        for combo in combinations(range(L.n), k):
            s = frozenset(combo)
            if not any(b <= s for b in blockers):
                out.append(s)
    return set(out)


def test_linear_order():
    o = LinearOrder((2, 0, 1))
    assert o.rank(2) == 0 and o.rank(0) == 1 and o.rank(1) == 2
    assert o.minimum({0, 1}) == 0
    assert o.minimum({0, 1, 2}) == 2
    assert o.maximum_element() == 1
    assert LinearOrder.identity(3) == LinearOrder((0, 1, 2))
    with pytest.raises(ValueError):
        LinearOrder((0, 0, 1))


def test_broken_circuit():
    o = LinearOrder.identity(3)
    x = SignVector.from_word("++-")
    assert broken_circuit(x, o) == {1, 2}
    assert broken_circuit(x, LinearOrder((2, 0, 1))) == {0, 1}
    with pytest.raises(ValueError):
        broken_circuit(SignVector.from_word("000"), o)


def test_planar_fixture_golden(gen3):
    fam = nbc_sets(gen3)
    assert [sorted(s) for s in fam.sets] == [[], [0], [1], [2], [0, 1], [0, 2]]
    assert fam.counts == (1, 3, 2)


def test_quadrilateral_golden(ex4):
    fam = nbc_sets(ex4)
    assert [sorted(s) for s in fam.sets] == [
        [], [0], [1], [2], [3], [0, 1], [0, 2], [0, 3], [1, 3]
    ]
    assert fam.counts == (1, 4, 4)


def test_oracle_agreement(gen3, ex4):
    for L in (gen3, ex4):
        for perm in ((0, 1, 2), (2, 0, 1), (1, 2, 0)):
            order = LinearOrder(perm if L.n == 3 else perm + (3,))
            assert set(nbc_sets(L, order).sets) == brute_force_nbc(L, order)


def test_oracle_agreement_seeded():
    from comring.verify import corpus_arrangement
    from comring.realize import covectors

    for seed in (1, 5, 7):
        L = covectors(corpus_arrangement(seed))
        order = LinearOrder.identity(L.n)
        assert set(nbc_sets(L).sets) == brute_force_nbc(L, order)


def test_degenerate_families():
    assert nbc_sets(Com(2, [])).sets == ()
    assert nbc_sets(Com(2, [])).counts == ()
    assert nbc_sets(Com.from_words(1, ["0"])).sets == ()
    assert nbc_sets(Com.from_words(1, ["+"])).sets == (frozenset(),)
    assert nbc_sets(Com.from_words(0, [""])).sets == (frozenset(),)


def test_count_is_order_independent(gen3, ex4):
    from itertools import permutations

    for L in (gen3, ex4):
        seen = set()
        for perm in permutations(range(L.n)):
            seen.add(nbc_sets(L, LinearOrder(perm)).counts)
        assert len(seen) == 1


def test_family_downward_closed(gen3, ex4):
    for L in (gen3, ex4):
        fam = set(nbc_sets(L).sets)
        for s in fam:
            for x in s:
                assert s - {x} in fam


def test_nbc_tope_identity(gen3, ex4):
    for L in (gen3, ex4):
        rep = verify_nbc_tope(L)
        assert rep.ok
        assert rep.n_nbc == rep.n_topes == len(topes(L))


def test_induced_order():
    o = LinearOrder((2, 0, 3, 1))
    assert induced_order(o, 3) == LinearOrder((2, 0, 1))
    assert induced_order(o, 0) == LinearOrder((1, 2, 0))


def test_order_with_maximum():
    assert order_with_maximum(4, 1) == LinearOrder((0, 2, 3, 1))
    assert order_with_maximum(3, 2) == LinearOrder((0, 1, 2))


def test_recursion_golden(gen3):
    rep = verify_nbc_recursion(gen3)
    assert rep.ok
    assert rep.n_total == 6
    assert rep.n_total == rep.n_deletion + rep.n_contraction


def test_recursion_every_order_position(gen3, ex4):
    for L in (gen3, ex4):
        for i in range(L.n):
            rep = verify_nbc_recursion(L, order_with_maximum(L.n, i))
            assert rep.ok, (i, rep)


def test_recursion_rejects_coloop():
    L = Com.from_words(2, ["0+", "00", "0-"])
    with pytest.raises(ValueError):
        verify_nbc_recursion(L, order_with_maximum(2, 0))
