"""Results computed once per Com instance, minors shared within one tree,
and the mask kernel check."""

import gc
import weakref

import pytest

from comring import core, rings, verify

from comring.circuits import circuits, om_circuits
from comring.core import (
    Com, coloops, covector_columns, elements, is_oriented_matroid, topes
)
from comring.minors import contract, delete
from comring.nbc import LinearOrder, nbc_sets
from comring.realize import covectors
from comring.rings import e_X_eval, f_X_eval, gr_multiply, verify_presentation
from comring.verify import corpus_arrangement, corpus_instance_report, full_verify


def test_circuits_computed_once_per_instance(ex4):
    C = circuits(ex4)
    assert circuits(ex4) is C
    twin = Com(ex4.n, ex4.covectors)
    assert twin == ex4
    assert circuits(twin) is not C
    assert circuits(twin) == C


def test_topes_and_coloops_computed_once_per_instance(gen3):
    with_topes = contract(gen3, 0)
    with_coloop = Com.from_words(3, ["000", "+00", "-00", "+0+", "-0-", "+0-"])
    for analysis, L in ((topes, with_topes), (coloops, with_coloop)):
        # A coloop mask is a small int, which is one object wherever it is
        # computed, so the memo itself shows where the result is kept.
        first = analysis(L)
        assert first
        assert L._memo[analysis.__name__] is first
        assert analysis(L) is first
        twin = Com(L.n, L.covectors)
        assert analysis.__name__ not in twin._memo
        assert analysis(twin) == first
    assert [t.word() for t in topes(with_topes)] == ["--", "++"]
    assert coloops(with_coloop) == 0b010
    assert topes(with_coloop) == ()
    assert coloops(with_topes) == 0


@pytest.mark.parametrize("minor", [delete, contract])
def test_minor_built_once_per_instance(ex4, minor):
    for i in range(ex4.n):
        M = minor(ex4, i)
        assert minor(ex4, i) is M
        twin_minor = minor(Com(ex4.n, ex4.covectors), i)
        assert twin_minor == M
        assert twin_minor is not M
    with pytest.raises(ValueError):
        minor(ex4, ex4.n)


@pytest.mark.parametrize("minor", [delete, contract])
def test_equal_bool_or_float_index_is_no_memo_key(ex4, minor):
    """("delete", 1.0) and ("delete", True) equal the memo key ("delete", 1),
    so the index is checked before the memo is read."""
    L = Com(ex4.n, ex4.covectors)
    minor(L, 1)
    for bad in (1.0, True):
        with pytest.raises(ValueError, match="index outside ground set"):
            minor(L, bad)


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
    assert [elements(s) for s in rotated.sets] == [[], [0], [1], [2], [0, 2], [1, 2]]
    assert natural.sets != rotated.sets
    assert nbc_sets(L, LinearOrder((0, 1, 2))) is natural
    assert nbc_sets(L, LinearOrder((2, 0, 1))) is rotated
    fresh = Com(gen3.n, gen3.covectors)
    assert nbc_sets(fresh, LinearOrder((2, 0, 1))) == rotated


def test_column_index_built_once_per_com(monkeypatch):
    built = []
    real_columns = core.Columns

    def counting_columns(*args):
        built.append(args)
        return real_columns(*args)

    monkeypatch.setattr(core, "Columns", counting_columns)
    L = covectors(corpus_arrangement(11))
    assert full_verify(L)[0]
    coms = [L] + list(L._memo["minor_tree"].values())
    indexed = [M for M in coms if "columns" in M._memo]
    assert len(indexed) > L.n
    assert len(built) == len(indexed)
    assert full_verify(L)[0]
    for M in indexed:
        cols = covector_columns(M)
        assert cols is M._memo["columns"]
        assert cols.every == (1 << len(M)) - 1
    assert len(built) == len(indexed)
    assert len({id(covector_columns(M)) for M in indexed}) == len(indexed)
    M = delete(L, 0)
    assert covector_columns(M) is not covector_columns(L)
    assert covector_columns(Com(M.n, M.covectors)) == covector_columns(M)
    assert len(built) == len(indexed) + 1


def test_generator_scan_runs_once_per_com(monkeypatch):
    """``circuits_ok`` and the presentation's kernel check share one scan
    of the widest covectors."""
    scanned = []
    real_cached = core.Com._cached

    def counting_cached(self, key, compute):
        def counted():
            scanned.append(self)
            return compute()

        return real_cached(self, key, counted if key == "extended_circuit" else compute)

    monkeypatch.setattr(core.Com, "_cached", counting_cached)
    L = covectors(corpus_arrangement(11))
    assert not coloops(L)
    ok, report = full_verify(L)
    assert ok and report["kernel_ok"] is True
    assert scanned == [L]


def test_face_symmetry_scanned_once_per_com(monkeypatch, gen3):
    """Strong elimination reads the face symmetry verdict it needs from
    the memo, and not through the public name, which the benchmark
    counts."""
    scanned = []
    real_scan = core._scan_face_symmetry

    def counting_scan(L):
        scanned.append(L)
        return real_scan(L)

    def public_name(L):
        raise AssertionError("strong elimination called check_face_symmetry")

    monkeypatch.setattr(core, "_scan_face_symmetry", counting_scan)
    for words, witness in ((["+", "-"], "se-violation"), (["00", "++"], "fs-violation")):
        L = Com.from_words(len(words[0]), words)
        assert core.axiom_witness(L).kind == witness
        with monkeypatch.context() as m:
            m.setattr(core, "check_face_symmetry", public_name)
            first = core.check_strong_elimination(L)
        assert first == core.check_strong_elimination(L)
        assert core.check_face_symmetry(L) is core.check_face_symmetry(L)
        assert scanned == [L]
        scanned.clear()
    L = Com(gen3.n, gen3.covectors)
    assert core.check_strong_elimination(L) is None
    assert core.is_com(L)
    assert scanned == [L]


def test_gr_multiply_hnf_computed_once_per_com_and_order(monkeypatch, gen3):
    calls = []
    real_hnf = rings.hermite_normal_form

    def counting_hnf(M):
        calls.append(M)
        return real_hnf(M)

    monkeypatch.setattr(rings, "hermite_normal_form", counting_hnf)
    L = Com(gen3.n, gen3.covectors)
    for perm in ((0, 1, 2), (2, 0, 1)):
        order = LinearOrder(perm)
        sets = nbc_sets(L, order).sets
        for s1 in sets:
            for s2 in sets:
                gr_multiply(L, order, s1, s2)
    assert gr_multiply(L, None, 0, 0) == {0: 1}
    assert len(calls) == 2
    gr_multiply(Com(gen3.n, gen3.covectors), LinearOrder((0, 1, 2)), 0b01, 0b10)
    assert len(calls) == 3


def test_gr_multiply_raises_on_every_call_when_not_unimodular(monkeypatch, gen3):
    """A memoized pair with H != I still fails the test on every call."""
    calls = []

    def doubled_hnf(M):
        calls.append(M)
        doubled = tuple(tuple(2 * (i == j) for j in range(len(M))) for i in range(len(M)))
        return doubled, M

    monkeypatch.setattr(rings, "hermite_normal_form", doubled_hnf)
    L = Com(gen3.n, gen3.covectors)
    for _ in range(3):
        with pytest.raises(ValueError, match="not unimodular"):
            gr_multiply(L, None, 0b01, 0b10)
    assert len(calls) == 1


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


def test_corpus_builds_and_verifies_each_distinct_minor_once(monkeypatch):
    built: list[tuple[int, tuple]] = []
    verified: list[tuple[int, tuple]] = []
    real_init, real_verify = core.Com.__init__, verify.full_verify

    def counting_init(self, n, vecs):
        real_init(self, n, vecs)
        built.append((self.n, self.covectors))

    def counting_verify(L):
        verified.append((L.n, L.covectors))
        return real_verify(L)

    monkeypatch.setattr(core.Com, "__init__", counting_init)
    monkeypatch.setattr(verify, "full_verify", counting_verify)
    for seed in range(12):
        built.clear()
        verified.clear()
        corpus_instance_report(seed)
        assert len(built) == len(set(built))
        L = covectors(corpus_arrangement(seed))
        minors = {
            (M.n, M.covectors)
            for i in range(L.n)
            for M in (delete(L, i), contract(L, i))
        }
        assert len(verified) == len(set(verified))
        assert set(verified) == minors | {(L.n, L.covectors)}


def test_verified_com_is_freed_without_the_cycle_collector():
    arr = corpus_arrangement(11)
    gc.collect()
    gc.disable()
    try:
        L = covectors(arr)
        assert full_verify(L)[0]
        delete(delete(L, 0), 0)  # a second-order minor puts the shared table in play
        ref = weakref.ref(L)
        del L
        assert ref() is None
        assert gc.collect() == 0
    finally:
        gc.enable()
