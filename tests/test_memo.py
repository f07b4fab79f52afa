"""Results computed once per Com instance, and the mask kernel check."""

import pytest

from comring.circuits import circuits, om_circuits
from comring.core import Com, is_oriented_matroid
from comring.minors import contract, delete
from comring.nbc import LinearOrder, nbc_sets
from comring.realize import covectors
from comring.rings import e_X_eval, f_X_eval, verify_presentation
from comring.verify import corpus_arrangement


def test_circuits_computed_once_per_instance(ex4):
    C = circuits(ex4)
    assert circuits(ex4) is C
    twin = Com(ex4.n, ex4.covectors)
    assert twin == ex4
    assert circuits(twin) is not C
    assert circuits(twin) == C


@pytest.mark.parametrize(
    "n, words", [(1, ["+", "-"]), (2, ["00", "++"]), (2, ["00", "+0", "-0", "++"])]
)
def test_non_com_raises_on_every_call(n, words):
    L = Com.from_words(n, words)
    for _ in range(3):
        with pytest.raises(ValueError):
            is_oriented_matroid(L)
        with pytest.raises(ValueError):
            om_circuits(L)


def test_nbc_sets_keyed_by_order(gen3):
    L = Com(gen3.n, gen3.covectors)
    natural = nbc_sets(L)
    rotated = nbc_sets(L, LinearOrder((2, 0, 1)))
    assert natural.order == LinearOrder.identity(3)
    assert rotated.order == LinearOrder((2, 0, 1))
    assert [sorted(s) for s in rotated.sets] == [[], [0], [1], [2], [0, 2], [1, 2]]
    assert natural.sets != rotated.sets
    assert nbc_sets(L, LinearOrder((0, 1, 2))) is natural
    assert nbc_sets(L, LinearOrder((2, 0, 1))) is rotated
    fresh = Com(gen3.n, gen3.covectors)
    assert nbc_sets(fresh, LinearOrder((2, 0, 1))) == rotated


def evaluated_kernel_ok(L: Com) -> bool:
    """The kernel check by evaluating every e_X and f_X on the topes."""
    C = circuits(L)
    return all(e_X_eval(L, x).is_zero() for x in C.circuits) and all(
        f_X_eval(L, x).is_zero() for x in C.symmetric_pairs()
    )


def test_mask_kernel_check_matches_evaluation(ex4, gen3):
    coms = [ex4, gen3] + [covectors(corpus_arrangement(seed)) for seed in range(10)]
    coms += [minor(L, 0) for L in coms for minor in (delete, contract)]
    for L in coms:
        assert verify_presentation(L).kernel_ok == evaluated_kernel_ok(L)
