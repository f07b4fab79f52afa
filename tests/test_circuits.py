from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from comring.circuits import (
    CircuitSet,
    circuits,
    in_generator_set,
    minimal_support_walk,
    om_circuits,
    orthogonal,
    realized_patterns,
    submasks,
)
from comring.core import Com, SignVector, elements
from comring.minors import contract, delete
from comring.realize import covectors, geometric_circuits
from comring.verify import corpus_arrangement


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
            all(v.sign(i) == x.sign(i) for i in elements(x.support))
            for v in L.covectors
        )
        if not extendable:
            blocked.append(x)
    supports = [frozenset(elements(x.support)) for x in blocked]
    return {
        x
        for x, s in zip(blocked, supports)
        if not any(t < s for t in supports)
    }


def brute_force_om_circuits(L):
    """Independent oracle: support-minimal nonzero vectors orthogonal to L.

    Enumerates all 3^n sign vectors.  Orthogonality is tested on sign
    tuples: the nonzero products x_i * y_i are either absent or of both
    signs.
    """
    rows = [v.signs() for v in L.covectors]
    vectors = [
        SignVector.from_signs(signs)
        for signs in product((-1, 0, 1), repeat=L.n)
        if any(signs)
        and all(len({a * b for a, b in zip(signs, y)} - {0}) != 1 for y in rows)
    ]
    supports = {frozenset(elements(x.support)) for x in vectors}
    minimal = {s for s in supports if not any(t < s for t in supports)}
    out = sorted(
        (x for x in vectors if frozenset(elements(x.support)) in minimal),
        key=SignVector.sort_key,
    )
    by_size = sorted(minimal, key=lambda s: (len(s), sorted(s)))
    masks = tuple(sum(1 << i for i in s) for s in by_size)
    return CircuitSet(L.n, tuple(out), masks)


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
    for seed in (1, 3, 7, 11):
        L = covectors(corpus_arrangement(seed))
        assert set(circuits(L).circuits) == brute_force_circuits(L)


def test_planar_fixture_golden(gen3):
    C = circuits(gen3)
    assert C.words() == ["--+", "++-"]
    assert [elements(s) for s in C.minimal_deficient_supports] == [[0, 1, 2]]


def test_degenerate_goldens():
    assert circuits(Com(2, [])).words() == ["00"]
    assert circuits(Com.from_words(1, ["0"])).words() == ["-", "+"]
    assert circuits(Com.from_words(1, ["+"])).words() == ["-"]
    assert circuits(Com.from_words(0, [""])).words() == []


def test_circuit_membership_compares_ground_sets(gen3):
    C = circuits(gen3)
    x = SignVector.from_word("++-")
    assert x in C and C.paired(x)
    longer = SignVector.from_word("++-0")
    assert longer not in C
    assert not C.paired(longer)
    assert not C.paired(SignVector.from_word("--+0"))


def test_symmetric_pairs_and_unpaired(ex4):
    C = circuits(ex4)
    assert [x.word() for x in C.symmetric_pairs()] == ["-+-0"]
    assert [x.word() for x in C.unpaired()] == ["-+0-", "00+-"]


def test_deficient_supports_upward_closed(gen3, ex4):
    for L in (gen3, ex4):
        C = circuits(L)
        full = (1 << L.n) - 1
        for s in C.minimal_deficient_supports:
            for extra in range(L.n):
                sup = s | 1 << extra
                assert len(realized_patterns(L, sup)) < 1 << sup.bit_count()
        for sup in (0b1, full):
            deficient = len(realized_patterns(L, sup)) < 1 << sup.bit_count()
            has_minimal_below = any(s & sup == s for s in C.minimal_deficient_supports)
            assert deficient == has_minimal_below


def test_circuits_are_nonextendable(gen3, ex4):
    for L in (gen3, ex4):
        for x in circuits(L).circuits:
            assert in_generator_set(L, x)
        for v in L:
            if not v.is_zero():
                assert not in_generator_set(L, v)


def test_realized_patterns_golden(gen3):
    pats = realized_patterns(gen3, 0b111)
    assert len(pats) == 6
    assert 0b011 not in pats and 0b100 not in pats
    assert realized_patterns(gen3, 0) == {0}
    assert realized_patterns(Com(2, []), 0) == frozenset()
    with pytest.raises(ValueError):
        realized_patterns(gen3, 0b1000)


def test_orthogonal():
    x = SignVector.from_word("+-0")
    assert orthogonal(x, SignVector.from_word("00+"))
    assert orthogonal(x, SignVector.from_word("++0"))
    assert not orthogonal(x, SignVector.from_word("+00"))
    assert orthogonal(x, SignVector.from_word("000"))


def test_om_circuits_matches_blocker_form(gen3):
    assert om_circuits(gen3).circuits == circuits(gen3).circuits


def test_om_circuits_match_orthogonality_oracle():
    """Every oriented matroid among corpus seeds 0-120 and their single
    element minors, plus the trivial ones, circuits and supports alike."""
    oms = [Com.from_words(0, [""]), Com.from_words(1, ["0"])]
    for seed in range(121):
        L = covectors(corpus_arrangement(seed))
        for M in [L] + [m(L, i) for i in range(L.n) for m in (delete, contract)]:
            if SignVector(M.n, 0, 0) in M:
                oms.append(M)
    assert len(oms) == 2 + 289
    for L in oms:
        assert om_circuits(L) == brute_force_om_circuits(L), L.words()


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


# Kernel against scan: the column-index answers against plain loops over
# the covector list, on arbitrary sign-vector sets (COMs or not).


@st.composite
def sign_vector_sets(draw):
    """Any set of sign vectors with n <= 6, often holding the zero vector."""
    n = draw(st.integers(0, 6))
    words = draw(st.lists(st.text("+-0", min_size=n, max_size=n), max_size=24))
    if draw(st.booleans()):
        words.append("0" * n)
    return Com.from_words(n, words)


@settings(max_examples=200, deadline=None)
@given(sign_vector_sets())
def test_symmetric_pairs_match_sort_key_rule(L):
    """The mask rule picks the member of each pair that sorts first."""
    C = circuits(L)
    expected = [c for c in C.circuits if C.paired(c) and c.sort_key() <= (-c).sort_key()]
    assert C.symmetric_pairs() == expected


def scan_extending(L, plus, minus):
    return [v for v in L.covectors if plus & ~v.plus == 0 and minus & ~v.minus == 0]


def reference_walk(n, family):
    """The support walk that skips every superset of a support found, by
    testing it against each found support in turn."""
    found, minimal, supports = [], [], []
    for k in range(n + 1):
        for combo in combinations(range(n), k):
            mask = sum(1 << i for i in combo)
            if any(mask & d == d for d in minimal):
                continue
            members = family(mask)
            if not members:
                continue
            minimal.append(mask)
            supports.append(mask)
            found.extend(SignVector(n, pat, mask ^ pat) for pat in members)
    found.sort(key=SignVector.sort_key)
    return CircuitSet(n, tuple(found), tuple(supports))


@settings(max_examples=200, deadline=None)
@given(sign_vector_sets())
def test_circuits_match_covector_scan(L):
    def unrealized(mask):
        return [p for p in submasks(mask) if not scan_extending(L, p, mask ^ p)]

    expected = reference_walk(L.n, unrealized)
    C = circuits(L)
    assert C.circuits == expected.circuits
    assert C.minimal_deficient_supports == expected.minimal_deficient_supports


@settings(max_examples=150, deadline=None)
@given(sign_vector_sets())
def test_extension_queries_match_covector_scan(L):
    for signs in product((-1, 0, 1), repeat=L.n):
        x = SignVector.from_signs(signs)
        assert in_generator_set(L, x) == (not scan_extending(L, x.plus, x.minus))
    for k in range(L.n + 1):
        for combo in combinations(range(L.n), k):
            mask = sum(1 << i for i in combo)
            expected = {
                v.plus & mask
                for v in L.covectors
                if v.support & mask == mask
            }
            assert realized_patterns(L, mask) == expected


@st.composite
def families(draw):
    """A ground set size and arbitrary members on a few supports, so the
    family is in general not upward closed."""
    n = draw(st.integers(0, 6))
    masks = st.integers(0, (1 << n) - 1)
    chosen = draw(st.dictionaries(masks, st.integers(0, (1 << 64) - 1), max_size=12))
    members = {
        mask: [p for k, p in enumerate(submasks(mask)) if (select >> k) & 1]
        for mask, select in chosen.items()
    }
    return n, members


@settings(max_examples=300, deadline=None)
@given(families())
def test_walk_matches_superset_skipping_walk(case):
    n, members = case

    def family(mask):
        return members.get(mask, [])

    walked = minimal_support_walk(n, family)
    expected = reference_walk(n, family)
    assert walked.circuits == expected.circuits
    assert walked.minimal_deficient_supports == expected.minimal_deficient_supports
