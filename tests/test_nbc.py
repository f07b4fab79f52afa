import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from comring.circuits import circuits
from comring.core import Com, SignVector, elements, topes
from comring.minors import contract, delete
from comring.nbc import (
    LinearOrder,
    _blocker_masks,
    broken_circuit,
    induced_order,
    nbc_sets,
    order_with_maximum,
    verify_nbc_recursion,
    verify_nbc_tope,
)
from test_circuits import sign_vector_sets


def brute_force_nbc(L, order):
    """Independent oracle: filter all subsets against the blocker list.

    A subset is excluded when it contains a circuit support or, for a
    symmetric circuit pair, the support minus its order-minimum, taken
    here by rank and not by ``LinearOrder.minimum``.
    """
    C = circuits(L)
    ranks = order.ranks()
    members = {(c.plus, c.minus) for c in C.circuits}
    blockers = []
    for c in C.circuits:
        support = frozenset(elements(c.support))
        blockers.append(support)
        if (c.minus, c.plus) in members and not c.is_zero():
            blockers.append(support - {min(support, key=ranks.__getitem__)})
    out = []
    for k in range(L.n + 1):
        for combo in combinations(range(L.n), k):
            s = frozenset(combo)
            if not any(b <= s for b in blockers):
                out.append(s)
    return set(out)


def as_sets(masks):
    """NBC sets given as bit masks, as a set of frozensets."""
    return {frozenset(elements(m)) for m in masks}


def test_linear_order():
    o = LinearOrder((2, 0, 1))
    assert o.ranks() == {2: 0, 0: 1, 1: 2}
    assert o.minimum(0b011) == 0
    assert o.minimum(0b111) == 2
    assert o.minimum(0b010) == 1
    assert o.maximum_element() == 1
    assert LinearOrder.identity(3) == LinearOrder((0, 1, 2))
    with pytest.raises(ValueError):
        LinearOrder((0, 0, 1))


def test_order_minimum_follows_ranks():
    for perm in permutations(range(4)):
        order = LinearOrder(perm)
        ranks = order.ranks()
        for mask in range(1, 16):
            assert order.minimum(mask) == min(elements(mask), key=ranks.__getitem__)
        for mask in (0, 0b10000, 0b10001, -1):
            with pytest.raises(ValueError):
                order.minimum(mask)


def test_broken_circuit():
    o = LinearOrder.identity(3)
    x = SignVector.from_word("++-")
    assert broken_circuit(x, o) == 0b110
    assert broken_circuit(x, LinearOrder((2, 0, 1))) == 0b011
    assert broken_circuit(SignVector.from_word("0+0"), o) == 0
    with pytest.raises(ValueError):
        broken_circuit(SignVector.from_word("000"), o)
    with pytest.raises(ValueError):
        broken_circuit(SignVector.from_word("0+0+"), o)


def test_planar_fixture_golden(gen3):
    fam = nbc_sets(gen3)
    assert [elements(s) for s in fam.sets] == [[], [0], [1], [2], [0, 1], [0, 2]]
    assert fam.counts == (1, 3, 2)


def test_quadrilateral_golden(ex4):
    fam = nbc_sets(ex4)
    assert [elements(s) for s in fam.sets] == [
        [], [0], [1], [2], [3], [0, 1], [0, 2], [0, 3], [1, 3]
    ]
    assert fam.counts == (1, 4, 4)


def test_oracle_agreement(gen3, ex4):
    for L in (gen3, ex4):
        for perm in ((0, 1, 2), (2, 0, 1), (1, 2, 0)):
            order = LinearOrder(perm if L.n == 3 else perm + (3,))
            assert as_sets(nbc_sets(L, order).sets) == brute_force_nbc(L, order)


def test_oracle_agreement_seeded():
    from comring.verify import corpus_arrangement
    from comring.realize import covectors

    for seed in (1, 5, 7):
        L = covectors(corpus_arrangement(seed))
        order = LinearOrder.identity(L.n)
        assert as_sets(nbc_sets(L).sets) == brute_force_nbc(L, order)


def test_oracle_agreement_corpus_random_orders():
    """Corpus seeds 0-39 and all their minors, each under three random
    orders: the walk that tests only the blockers topped by the element
    just added, with non-minimal blockers kept, gives the family the
    definition does, in canonical order."""
    from comring.verify import corpus_arrangement
    from comring.realize import covectors

    rng = random.Random(2024)
    checked = 0
    for seed in range(40):
        L = covectors(corpus_arrangement(seed))
        for M in [L] + [m(L, i) for i in range(L.n) for m in (delete, contract)]:
            for _ in range(3):
                perm = list(range(M.n))
                rng.shuffle(perm)
                order = LinearOrder(tuple(perm))
                fam = nbc_sets(M, order)
                expected = sorted(brute_force_nbc(M, order), key=lambda s: (len(s), sorted(s)))
                assert [elements(s) for s in fam.sets] == [sorted(s) for s in expected], (
                    seed, M.words(), perm
                )
                assert sum(fam.counts) == len(expected)
                checked += 1
    assert checked > 1000


def test_degenerate_families():
    assert nbc_sets(Com(2, [])).sets == ()
    assert nbc_sets(Com(2, [])).counts == ()
    assert nbc_sets(Com.from_words(1, ["0"])).sets == ()
    assert nbc_sets(Com.from_words(1, ["+"])).sets == (0,)
    assert nbc_sets(Com.from_words(0, [""])).sets == (0,)


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
            for x in elements(s):
                assert s & ~(1 << x) in fam


def test_nbc_tope_identity(gen3, ex4):
    for L in (gen3, ex4):
        assert verify_nbc_tope(L) is True
        assert len(nbc_sets(L)) == len(topes(L))


def test_induced_order():
    o = LinearOrder((2, 0, 3, 1))
    assert induced_order(o, 3) == LinearOrder((2, 0, 1))
    assert induced_order(o, 0) == LinearOrder((1, 2, 0))


def test_order_with_maximum():
    assert order_with_maximum(4, 1) == LinearOrder((0, 2, 3, 1))
    assert order_with_maximum(3, 2) == LinearOrder((0, 1, 2))


@pytest.mark.parametrize("i", [3, 5, -1])
def test_orders_reject_an_element_outside_the_ground_set(i):
    with pytest.raises(ValueError, match="index outside ground set"):
        induced_order(LinearOrder((0, 1, 2)), i)
    with pytest.raises(ValueError, match="index outside ground set"):
        order_with_maximum(3, i)


def test_recursion_golden(gen3):
    assert verify_nbc_recursion(gen3) is True
    sub = induced_order(LinearOrder.identity(3), 2)
    n_del = len(nbc_sets(delete(gen3, 2), sub))
    n_con = len(nbc_sets(contract(gen3, 2), sub))
    assert len(nbc_sets(gen3)) == 6 == n_del + n_con


def test_recursion_every_order_position(gen3, ex4):
    for L in (gen3, ex4):
        for i in range(L.n):
            order = order_with_maximum(L.n, i)
            assert verify_nbc_recursion(L, order), i
            sub = induced_order(order, i)
            n_del = len(nbc_sets(delete(L, i), sub))
            assert len(nbc_sets(L, order)) == n_del + len(nbc_sets(contract(L, i), sub))


def test_recursion_rejects_coloop():
    L = Com.from_words(2, ["0+", "00", "0-"])
    with pytest.raises(ValueError):
        verify_nbc_recursion(L, order_with_maximum(2, 0))


@st.composite
def sets_and_orders(draw):
    """Any sign-vector set with n <= 6, COM or not, often holding the zero
    vector, under a random order.  Often one element is zeroed in every
    covector; then the unit vectors there form a symmetric circuit pair
    on one element, whose broken circuit is empty."""
    L = draw(sign_vector_sets())
    if L.n and draw(st.booleans()):
        keep = ~(1 << draw(st.integers(0, L.n - 1)))
        L = Com(L.n, (SignVector(L.n, v.plus & keep, v.minus & keep) for v in L))
    return L, LinearOrder(tuple(draw(st.permutations(range(L.n)))))


@settings(max_examples=300, deadline=None)
@given(sets_and_orders())
def test_oracle_agreement_any_sign_vector_set(case):
    L, order = case
    fam = nbc_sets(L, order)
    expected = sorted(brute_force_nbc(L, order), key=lambda s: (len(s), sorted(s)))
    assert [elements(s) for s in fam.sets] == [sorted(s) for s in expected]
    sizes = [len(s) for s in expected]
    assert fam.counts == tuple(sizes.count(k) for k in range(max(sizes, default=-1) + 1))


@settings(max_examples=300, deadline=None)
@given(sets_and_orders())
def test_blocker_masks_match_broken_circuits(case):
    """The walk's blockers are the circuit supports and the broken circuit
    of each nonzero symmetric pair; each broken circuit drops the minimum
    under the order's ranks, taken here without ``LinearOrder.minimum``."""
    L, order = case
    C = circuits(L)
    pairs = C.symmetric_pairs()
    assert C.pair_supports == tuple(x.support for x in pairs)
    pairs = [x for x in pairs if x.support]
    for x in pairs:
        low = min(elements(x.support), key=order.ranks().__getitem__)
        assert broken_circuit(x, order) == x.support & ~(1 << low)
    expected = set(C.minimal_deficient_supports)
    expected.update(broken_circuit(x, order) for x in pairs)
    assert _blocker_masks(C, order) == expected
