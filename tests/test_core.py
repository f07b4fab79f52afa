import itertools
import json
import random

import pytest
from hypothesis import given, strategies as st

from comring.core import (
    Com,
    ComFormatError,
    SignVector,
    check_face_symmetry,
    check_strong_elimination,
    coloops,
    com_to_json,
    compose,
    elements,
    is_com,
    is_oriented_matroid,
    parse_com_json,
    separator,
    topes,
)

sign_vectors = st.integers(1, 6).flatmap(
    lambda n: st.builds(
        SignVector.from_signs,
        st.lists(st.sampled_from((-1, 0, 1)), min_size=n, max_size=n),
    )
)


def paired_vectors(count):
    return st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.sampled_from((-1, 0, 1)), min_size=n, max_size=n),
            min_size=count,
            max_size=count,
        ).map(lambda rows: tuple(SignVector.from_signs(r) for r in rows))
    )


def test_word_round_trip():
    x = SignVector.from_word("+-0+")
    assert x.word() == "+-0+"
    assert x.signs() == (1, -1, 0, 1)
    assert x.support == 0b1011
    assert x.sign(2) == 0 and x.sign(0) == 1


def test_sort_key_orders_as_signs():
    # The key packs eight elements per mask byte, so the sizes straddle
    # the byte boundaries.
    for n in range(5):
        signs = itertools.product((-1, 0, 1), repeat=n)
        vectors = [SignVector.from_signs(t) for t in signs]
        assert sorted(vectors, key=SignVector.sort_key) == vectors
    rng = random.Random(128)
    for n in (0, 1, 7, 8, 9, 16, 17, 24):
        vectors = [
            SignVector.from_signs(rng.choice((-1, 0, 1)) for _ in range(n))
            for _ in range(500)
        ]
        by_key = sorted(vectors, key=SignVector.sort_key)
        assert by_key == sorted(vectors, key=SignVector.signs)
        # Distinct vectors get distinct keys.
        assert len({x.sort_key() for x in vectors}) == len(set(vectors))


def test_bad_words_rejected():
    with pytest.raises(ComFormatError):
        SignVector.from_word("+x-")
    with pytest.raises(ComFormatError):
        Com.from_words(2, ["+-0"])


def test_negation_involution():
    x = SignVector.from_word("+-0")
    assert (-x).word() == "-+0"
    assert -(-x) == x


def test_compose_golden():
    x = SignVector.from_word("+0-0")
    y = SignVector.from_word("-+++")
    assert compose(x, y).word() == "++-+"
    zero = SignVector.from_word("0000")
    assert compose(zero, y) == y
    assert compose(y, zero) == y


def test_separator_golden():
    x = SignVector.from_word("+-0+")
    y = SignVector.from_word("--++")
    assert separator(x, y) == 0b0001
    assert separator(x, x) == 0
    assert separator(x, -x) == 0b1011


@given(paired_vectors(2))
def test_compose_idempotent_and_absorbing(pair):
    x, y = pair
    xy = compose(x, y)
    assert compose(x, xy) == xy
    assert compose(xy, y) == xy
    assert compose(x, x) == x


@given(paired_vectors(3))
def test_compose_associative(triple):
    x, y, z = triple
    assert compose(compose(x, y), z) == compose(x, compose(y, z))


@given(paired_vectors(2))
def test_compose_agrees_off_separator(pair):
    x, y = pair
    xy = compose(x, y)
    for i in range(x.n):
        if x.sign(i) != 0:
            assert xy.sign(i) == x.sign(i)
        else:
            assert xy.sign(i) == y.sign(i)


def test_axioms_hold_on_planar_fixture(gen3):
    assert check_face_symmetry(gen3) is None
    assert check_strong_elimination(gen3) is None
    assert is_com(gen3)
    assert is_oriented_matroid(gen3)


def test_composition_closure_follows_from_axioms(gen3):
    for x in gen3:
        for y in gen3:
            assert compose(x, y) in gen3


def face_symmetric_sets():
    """The 1,500 random sets of ``tests/test_negative_corpus.py``, each
    closed under X o (-Y)."""
    rng = random.Random(20228)
    for _ in range(1500):
        n = rng.randint(1, 4)
        vecs = {SignVector.from_signs([rng.choice((-1, 0, 1)) for _ in range(n)])
                for _ in range(rng.randint(1, 6))}
        while True:
            new = {compose(x, -y) for x in vecs for y in vecs} - vecs
            if not new:
                break
            vecs |= new
        yield Com(n, vecs)


def test_equal_support_pairs_ask_every_elimination_question(gen3):
    """Face symmetry gives closure under composition, as
    X o (-(X o (-Y))) = X o Y; and the pair (X o Y, Y o X) has equal
    supports, the separator of (X, Y) and the same X o Y outside it.
    This is why strong elimination may be certified on equal-support
    pairs."""
    coms = 0
    for L in itertools.chain([gen3], face_symmetric_sets()):
        assert check_face_symmetry(L) is None
        for x in L:
            for y in L:
                xy, yx = compose(x, y), compose(y, x)
                assert compose(x, -compose(x, -y)) == xy
                assert xy in L and yx in L
                assert xy.support == yx.support
                assert separator(xy, yx) == separator(x, y)
                assert compose(xy, yx) == xy
        coms += is_com(L)
    assert coms == 1 + 677


def test_face_symmetry_witness():
    L = Com.from_words(2, ["00", "++"])
    w = check_face_symmetry(L)
    assert w is not None
    assert w.kind == "fs-violation"
    assert (w.x.word(), w.y.word()) == ("00", "++")


def test_strong_elimination_witness():
    L = Com.from_words(1, ["+", "-"])
    assert check_face_symmetry(L) is None
    w = check_strong_elimination(L)
    assert w is not None
    assert w.kind == "se-violation"
    assert (w.x.word(), w.y.word(), w.i) == ("-", "+", 0)
    assert not is_com(L)


def test_is_oriented_matroid_needs_zero(ex4):
    assert is_com(ex4)
    assert not is_oriented_matroid(ex4)
    with pytest.raises(ValueError):
        is_oriented_matroid(Com.from_words(1, ["+", "-"]))


def test_topes_require_full_support(gen3):
    t = topes(gen3)
    assert len(t) == 6
    assert all(x.support == 0b111 for x in t)
    assert topes(Com.from_words(1, ["0"])) == ()
    assert topes(Com.from_words(0, [""])) == (SignVector.from_word(""),)


def test_coloops():
    assert coloops(Com.from_words(1, ["0"])) == 0b1
    assert coloops(Com.from_words(2, ["0+", "0-", "00"])) == 0b01
    assert coloops(Com.from_words(2, [])) == 0b11


def test_coloops_planar_fixture(gen3):
    assert coloops(gen3) == 0


def test_empty_set_is_com():
    L = Com(3, [])
    assert is_com(L)
    assert len(L) == 0


def test_negative_ground_set_rejected():
    with pytest.raises(ValueError, match="ground set size must be nonnegative"):
        Com(-1, [])
    with pytest.raises(ValueError, match="ground set size must be nonnegative"):
        SignVector(-1, 0, 0)


def test_covector_on_wrong_ground_set_rejected():
    # "+0" and "+00" have equal masks, so the check may not rest on them
    for words in (["+0", "+00"], ["+00", "+0"], ["-+-", "++"]):
        with pytest.raises(ValueError, match="covector on wrong ground set"):
            Com(3, map(SignVector.from_word, words))


def test_membership_compares_ground_sets():
    L = Com.from_words(2, ["++", "--", "00"])
    assert SignVector.from_word("++") in L
    assert SignVector.from_word("++0") not in L
    assert SignVector.from_word("0") not in L
    assert SignVector.from_word("000") not in L


def test_elements():
    assert elements(0) == []
    assert elements(0b1011) == [0, 1, 3]
    assert elements(1 << 70) == [70]


def test_json_round_trip(gen3):
    again = parse_com_json(com_to_json(gen3))
    assert again == gen3


@given(
    st.integers(0, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.sampled_from("+-0"), min_size=n, max_size=n).map("".join),
            max_size=10,
        ).map(lambda ws: Com.from_words(n, ws))
    )
)
def test_json_round_trip_random(L):
    assert parse_com_json(com_to_json(L)) == L


def test_json_rejects_malformed():
    with pytest.raises(ComFormatError):
        parse_com_json("not json")
    with pytest.raises(ComFormatError):
        parse_com_json('{"covectors": []}')
    with pytest.raises(ComFormatError):
        parse_com_json('{"n": 2, "covectors": ["+"]}')
    with pytest.raises(ComFormatError):
        parse_com_json('{"n": 1, "covectors": ["x"]}')
    with pytest.raises(ComFormatError):
        parse_com_json('{"n": true, "covectors": []}')
    with pytest.raises(ComFormatError):
        parse_com_json('[1, 2]')


def test_json_shape(gen3):
    data = json.loads(com_to_json(gen3))
    assert set(data) == {"n", "covectors"}
    assert data["n"] == 3
    assert data["covectors"] == gen3.words()


def test_canonical_word_order():
    L = Com.from_words(1, ["+", "0", "-"])
    assert L.words() == ["-", "0", "+"]
    words = ["".join(w) for w in itertools.product("+0-", repeat=3)]
    random.Random(3).shuffle(words)
    rank = str.maketrans("-0+", "012")
    assert Com.from_words(3, words).words() == sorted(words, key=lambda w: w.translate(rank))
    repeated = words + random.Random(4).choices(words, k=40)
    random.Random(5).shuffle(repeated)
    L = Com.from_words(3, repeated)
    assert L.words() == sorted(words, key=lambda w: w.translate(rank))
    assert L == Com.from_words(3, words)
    assert L._members == {(v.plus, v.minus) for v in L.covectors}
