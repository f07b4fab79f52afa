import random
from itertools import product

import pytest

from comring.circuits import circuits, in_generator_set
from comring.core import Columns, Com, SignVector, coloops, covector_columns, is_com, topes
from comring.minors import (
    contract,
    delete,
    inject,
    label_map,
    project,
    tope_trichotomy,
    verify_boolean_extension,
    verify_circuit_minor_laws,
    verify_disjoint_covector,
    verify_lift,
    verify_tope_recursion,
)
from comring.realize import covectors
from comring.rings import EMonomial, heaviside, rho_eval
from comring.verify import generate_random_arrangement


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


def test_second_order_deletions_are_one_object(gen3, ex4):
    for L in (gen3, ex4):
        for i in range(L.n - 1):
            for j in range(i, L.n - 1):
                assert delete(delete(L, i), j) is delete(delete(L, j + 1), i)


def test_deletion_and_contraction_commute_to_one_object(gen3, ex4):
    for L in (gen3, ex4):
        for i in range(L.n):
            for j in range(L.n - 1):
                k = j if j < i else j + 1  # j in the labels of L
                assert contract(delete(L, i), j) is delete(
                    contract(L, k), i if i < k else i - 1
                )


def test_coloop_deletion_is_its_contraction():
    L = Com.from_words(3, ["000", "+00", "-00", "+0+", "-0-", "+0-"])
    assert coloops(L) == 0b010
    assert delete(L, 1) is contract(L, 1)
    assert delete(L, 0) is not contract(L, 0)


def test_equal_roots_share_no_minor(ex4):
    twin = Com(ex4.n, ex4.covectors)
    for minor in (delete, contract):
        for i in range(ex4.n):
            assert minor(twin, i) == minor(ex4, i)
            assert minor(twin, i) is not minor(ex4, i)
            assert delete(minor(twin, i), 0) is not delete(minor(ex4, i), 0)


def test_trichotomy_golden(gen3):
    plus, minus, non_wall = tope_trichotomy(gen3, 0)
    assert {t.word() for t in plus} == {"+--", "+++"}
    assert {t.word() for t in minus} == {"---", "-++"}
    assert {t.word() for t in non_wall} == {"-+-", "+-+"}


def test_trichotomy_rejects_coloop():
    L = Com.from_words(2, ["0+", "00", "0-"])
    with pytest.raises(ValueError):
        tope_trichotomy(L, 0)


def minor_tope_counts(L, i):
    return len(topes(L)), len(topes(delete(L, i))), len(topes(contract(L, i)))


def test_tope_recursion_golden(gen3):
    assert verify_tope_recursion(gen3, 0) is True
    assert minor_tope_counts(gen3, 0) == (6, 4, 2)


def test_tope_recursion_all_elements(gen3, ex4):
    for L in (gen3, ex4):
        for i in range(L.n):
            assert verify_tope_recursion(L, i), i
            n_t, n_del, n_con = minor_tope_counts(L, i)
            assert n_t == n_del + n_con, i


def random_sets(seed, count):
    """Seeded random covector sets with n <= 4, most of them not COMs."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 4)
        words = ["".join(w) for w in product("-0+", repeat=n)]
        yield Com.from_words(n, rng.sample(words, rng.randint(0, len(words))))


def brute_force_tope_recursion(L, i):
    """Oracle for the tope trichotomy and recursion at a non-coloop i, on
    sign words by a scan of the covectors: (walls positive at i, walls
    negative at i, non-walls, verdict)."""
    words = set(L.words())
    topes_L = [w for w in L.words() if "0" not in w]

    def drop(w):
        return w[:i] + w[i + 1 :]

    walls = [w for w in topes_L if w[:i] + "0" + w[i + 1 :] in words]
    plus = [w for w in walls if w[i] == "+"]
    minus = [w for w in walls if w[i] == "-"]
    non_wall = [w for w in topes_L if w not in walls]
    contraction_topes = {drop(w) for w in words if w[i] == "0" and "0" not in drop(w)}
    deletion_topes = {drop(w) for w in words if "0" not in drop(w)}
    verdict = True
    for part, expected in ((plus, contraction_topes), (minus + non_wall, deletion_topes)):
        image = [drop(w) for w in part]
        verdict = verdict and len(set(image)) == len(image) and set(image) == expected
    return plus, minus, non_wall, verdict


def test_tope_recursion_matches_oracle_on_random_sets():
    """The trichotomy and the tope recursion agree with a covector scan
    on sign words, and both verdicts occur."""
    verdicts = {True: 0, False: 0}
    for L in random_sets(7, 2000):
        for i in range(L.n):
            if coloops(L) >> i & 1:
                continue
            plus, minus, non_wall, verdict = brute_force_tope_recursion(L, i)
            split = tope_trichotomy(L, i)
            assert [[t.word() for t in part] for part in split] == [plus, minus, non_wall]
            assert verify_tope_recursion(L, i) == verdict, (L.words(), i)
            verdicts[verdict] += 1
    assert verdicts[True] and verdicts[False], verdicts


def test_minors_match_projected_covectors_on_random_sets():
    """Deletion and contraction equal the Com of the projected covectors,
    also where distinct covectors merge under deletion."""
    merged = 0
    for L in random_sets(11, 500):
        for i in range(L.n):
            dropped = [project(v, i) for v in L]
            assert delete(L, i) == Com(L.n - 1, dropped), (L.words(), i)
            kept = [project(v, i) for v in L if not v.sign(i)]
            assert contract(L, i) == Com(L.n - 1, kept), (L.words(), i)
            merged += len(delete(L, i)) < len(L)
    assert merged


@pytest.fixture(scope="module", params=[(0, 2, 9), (7, 3, 10)], ids=["d2-n9-s0", "d3-n10-s7"])
def wide(request):
    """Arrangements on more than 8 elements, where sort keys and the rows
    of the column index take two bytes: the (2, 9, 2) seed-0 input of
    the verify benchmark and the seed-7 (3, 10) row of the size ladder."""
    seed, d, n = request.param
    return covectors(generate_random_arrangement(seed, d, n, 2))


def test_minors_match_projected_words_past_eight_elements(wide):
    """Every deletion and contraction equals the Com of the covector
    words with letter i cut out, keeping only the words with 0 there
    for the contraction."""
    L = wide
    words = L.words()
    for i in range(L.n):
        cut = [w[:i] + w[i + 1 :] for w in words]
        assert delete(L, i) == Com.from_words(L.n - 1, cut), i
        kept = [c for c, w in zip(cut, words) if w[i] == "0"]
        assert contract(L, i) == Com.from_words(L.n - 1, kept), i


def test_column_index_matches_bitwise_reference_past_eight_elements(wide):
    """The column index of the input and of all its minors against one
    built a bit at a time from each covector's sign at each element."""

    def reference(M):
        def column(i, sign):
            return sum(1 << j for j, v in enumerate(M.covectors) if v.sign(i) == sign)

        return Columns(
            tuple(column(i, 1) for i in range(M.n)),
            tuple(column(i, -1) for i in range(M.n)),
            (1 << len(M)) - 1,
        )

    L = wide
    for M in [L] + [minor(L, i) for i in range(L.n) for minor in (delete, contract)]:
        assert covector_columns(M) == reference(M)
        assert covector_columns(M).zero == tuple(
            sum(1 << j for j, v in enumerate(M.covectors) if not v.sign(i)) for i in range(M.n)
        )


def test_minor_tope_counts(gen3):
    assert verify_tope_recursion(gen3, 1)
    assert is_com(delete(gen3, 1)) and is_com(contract(gen3, 1))
    assert minor_tope_counts(gen3, 1) == (6, 4, 2)


def test_circuit_minor_laws(gen3, ex4):
    for L in (gen3, ex4):
        for i in range(L.n):
            assert verify_circuit_minor_laws(L, i) is None, i


def test_circuit_minor_laws_degenerate():
    assert verify_circuit_minor_laws(Com.from_words(1, ["+"]), 0) is None
    assert verify_circuit_minor_laws(Com.from_words(2, ["0+", "0-", "00"]), 0) is None
    assert verify_circuit_minor_laws(Com.from_words(2, ["0+", "0-", "00"]), 1) is None


def brute_force_minor_laws(L, i):
    """Oracle for the circuit minor laws, the name of the first failing
    one or None: the contraction law by a full 3^n scan of blockers,
    projected, then cut down to minimal supports."""
    bit = 1 << i
    C = circuits(L)
    expected_del = {project(x, i) for x in C.circuits if not (x.support & bit)}
    if tuple(sorted(expected_del, key=SignVector.sort_key)) != circuits(
        delete(L, i)
    ).circuits:
        return "deletion"
    con = circuits(contract(L, i))
    if not coloops(L) >> i & 1:
        projected = {
            project(x, i)
            for x in map(SignVector.from_signs, product((1, 0, -1), repeat=L.n))
            if in_generator_set(L, x)
        }
        sups = {x.support for x in projected}
        minimal = {s for s in sups if not any(t != s and t & s == t for t in sups)}
        expected_con = sorted(
            (x for x in projected if x.support in minimal), key=SignVector.sort_key
        )
        if tuple(expected_con) != con.circuits:
            return "contraction"
    if not all(
        project(x, i) in con for x in C.circuits if x.support & bit and x.support != bit
    ):
        return "projection"
    return None


def test_circuit_minor_laws_match_oracle_on_random_sets():
    """Seeded random covector sets with n <= 4, most of them not COMs."""
    pairs = 0
    failures = {"deletion": 0, "contraction": 0, "projection": 0}
    for L in random_sets(20221, 1500):
        for i in range(L.n):
            failed = verify_circuit_minor_laws(L, i)
            assert failed == brute_force_minor_laws(L, i), (L.words(), i)
            pairs += 1
            if failed is not None:
                failures[failed] += 1
    assert 0 < failures["contraction"] < pairs, failures


@pytest.mark.parametrize("minor, law", [(delete, "deletion"), (contract, "projection")])
def test_circuit_minor_laws_catch_corrupt_minor_circuits(gen3, ex4, minor, law):
    """Emptying the member set of a minor's circuits fails exactly the law
    that reads it: the deletion law compares the deletion's members, the
    projection law looks circuits up in the contraction's, and the
    contraction law compares circuit tuples, which stay intact."""
    failed = 0
    for words in (gen3.words(), ex4.words()):
        # A fresh root per element, so no corrupt circuit set is shared.
        for i in range(len(words[0])):
            L = Com.from_words(len(words[0]), words)
            assert verify_circuit_minor_laws(L, i) is None
            L = Com.from_words(len(words[0]), words)
            object.__setattr__(circuits(minor(L, i)), "_members", frozenset())
            verdict = verify_circuit_minor_laws(L, i)
            assert verdict in (None, law), (words, i)
            failed += verdict == law
    assert failed


@pytest.mark.parametrize("past_end", [False, True])
def test_element_indices_outside_ground_set_rejected(gen3, past_end):
    i = gen3.n if past_end else -1
    for call in (
        lambda: tope_trichotomy(gen3, i),
        lambda: rho_eval(gen3, EMonomial(((i, 1),))),
        lambda: label_map(gen3.n, i),
        lambda: heaviside(gen3, i, 1),
        lambda: delete(gen3, i),
        lambda: contract(gen3, i),
    ):
        with pytest.raises(ValueError, match="index outside ground set"):
            call()


def test_disjoint_covector(gen3, ex4):
    assert verify_disjoint_covector(gen3) is None
    assert verify_disjoint_covector(ex4) is None
    assert verify_disjoint_covector(Com(2, [])) is None


def test_lift(gen3, ex4):
    for L in (gen3, ex4):
        for i in range(L.n):
            assert verify_lift(L, i) is None


def test_witnesses_on_random_sets():
    """On seeded random covector sets, most of them not COMs, the disjoint
    covector and lift checks return a failing symmetric circuit, or None."""
    disjoint_failures = lift_failures = 0
    for L in random_sets(5, 300):
        C = circuits(L)
        symmetric = [x for x in C.circuits if not x.is_zero() and C.paired(x)]
        expected = next(
            (x for x in symmetric if all(v.support & x.support for v in L.covectors)),
            None,
        )
        assert verify_disjoint_covector(L) == expected, L.words()
        disjoint_failures += expected is not None
        for i in range(L.n):
            x = verify_lift(L, i)
            if x is not None:
                con = circuits(contract(L, i))
                assert x in con and -x in con, (L.words(), i)
                assert all(project(c, i) != x for c in symmetric), (L.words(), i)
                lift_failures += 1
    assert disjoint_failures and lift_failures


def test_boolean_extension(gen3, ex4):
    assert verify_boolean_extension(gen3, 0)
    assert verify_boolean_extension(gen3, 0b0011)
    assert verify_boolean_extension(ex4, 0b1001)
    assert verify_boolean_extension(ex4, 0b0110)


def test_boolean_extension_rejects_deficient_sets(gen3, ex4):
    with pytest.raises(ValueError):
        verify_boolean_extension(gen3, 0b0111)
    with pytest.raises(ValueError):
        verify_boolean_extension(ex4, 0b1100)


def test_boolean_extension_rejects_indices_outside_ground_set():
    L = Com.from_words(2, ["++", "+-", "-+", "--", "0+", "0-", "+0", "-0", "00"])
    assert verify_boolean_extension(L, 0b11)
    for J in (0b100, 0b101, -1):
        with pytest.raises(ValueError, match="index outside ground set"):
            verify_boolean_extension(L, J)


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
