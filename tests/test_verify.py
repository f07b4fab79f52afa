"""Failed `full_verify` checks name their witness."""

import importlib
import json

import pytest

from comring import core, rings, verify
from comring.circuits import CircuitSet, circuits, om_circuits
from comring.cli import run
from comring.core import Com, SignVector, com_to_json, topes
from comring.minors import inject, verify_circuit_minor_laws
from comring.realize import covectors, geometric_circuits
from comring.verify import corpus_arrangement, full_verify


def keys_before(report, key):
    keys = list(report)
    return keys[keys.index(key) - 1]


def test_passing_report_names_no_failure(ex4):
    ok, report = full_verify(ex4)
    assert ok
    assert not [k for k in report if k.endswith("_failed_at")]


def fail_circuits(monkeypatch, L):
    # Two sign vectors on a support strictly holding the circuit support
    # {2, 3}: no covector extends them, so only the antichain test fails.
    C = circuits(L)
    extra = [SignVector.from_word(w) for w in ("+0+-", "-0+-")]
    bad = CircuitSet(
        L.n,
        tuple(sorted(C.circuits + tuple(extra), key=SignVector.sort_key)),
        C.minimal_deficient_supports + (0b1101,),
    )
    monkeypatch.setattr(verify, "circuits", lambda L: bad)
    return "-0+-"


def fail_tope_recursion(monkeypatch, L):
    monkeypatch.setattr(verify, "verify_tope_recursion", lambda L, i: i < 1)
    return 1


def fail_nbc_recursion(monkeypatch, L):
    real = verify.verify_nbc_recursion

    def failing_from_1(L, order):
        return order.perm[-1] < 1 and real(L, order)

    monkeypatch.setattr(verify, "verify_nbc_recursion", failing_from_1)
    return 1


def fail_disjoint_covector(monkeypatch, L):
    bad = circuits(L).circuits[1]
    monkeypatch.setattr(verify, "verify_disjoint_covector", lambda L: bad)
    return bad.word()


def fail_lift(monkeypatch, L):
    real = verify.verify_lift
    bad = circuits(L).circuits[0]

    def failing_from_2(L, i):
        return bad if i >= 2 else real(L, i)

    monkeypatch.setattr(verify, "verify_lift", failing_from_2)
    return 2


def fail_boolean_extension(monkeypatch, L):
    monkeypatch.setattr(
        verify, "verify_boolean_extension", lambda L, J: J.bit_count() != 1
    )
    return [0]


def fail_kernel(monkeypatch, L):
    # The kernel check reads the shared generator scan through rings'
    # binding, and circuits_ok through verify's.  Patching rings.circuits
    # would not reach a scan already memoized on the session's ex4.
    bad = topes(L)[0]
    monkeypatch.setattr(rings, "extended_circuit", lambda L: bad)
    return bad.word()


def fail_filtration(monkeypatch, L):
    calls = []

    def contains_only_first(lattice, v):
        calls.append(v)
        return len(calls) == 1

    monkeypatch.setattr(rings.IntLattice, "contains", contains_only_first)
    return [0]  # level 0 holds only h_{} and passes; level 1 fails at once


CASES = {
    "circuits": (fail_circuits, "circuits_failed_at", "circuits_ok"),
    "tope_recursion": (fail_tope_recursion, "tope_recursion_failed_at", "recursions_ok"),
    "nbc_recursion": (fail_nbc_recursion, "nbc_recursion_failed_at", "recursions_ok"),
    "disjoint_covector": (
        fail_disjoint_covector, "disjoint_covector_failed_at", "disjoint_covector_ok"
    ),
    "lift": (fail_lift, "lift_failed_at", "lifts_ok"),
    "boolean_extension": (
        fail_boolean_extension, "boolean_extension_failed_at", "boolean_extension_ok"
    ),
    "kernel": (fail_kernel, "kernel_failed_at", "kernel_ok"),
    "filtration": (fail_filtration, "filtration_failed_at", "filtration_ok"),
}


@pytest.mark.parametrize("inject, failed_key, ok_key", CASES.values(), ids=CASES)
def test_failed_check_names_its_witness(monkeypatch, ex4, inject, failed_key, ok_key):
    witness = inject(monkeypatch, ex4)
    ok, report = full_verify(ex4)
    assert not ok and report["ok"] is False
    assert report[ok_key] is False
    assert report[failed_key] == witness
    assert keys_before(report, ok_key) == failed_key
    assert [k for k in report if k.endswith("_failed_at")] == [failed_key]


def test_failed_lift_names_its_first_element(monkeypatch, tmp_path, ex4):
    fail_lift(monkeypatch, ex4)
    path = tmp_path / "ex4.json"
    path.write_text(com_to_json(ex4))
    status, out = run(["verify", str(path)])
    assert status == 1
    assert json.loads(out)["lift_failed_at"] == 2


def install_faulty_columns(monkeypatch, fault):
    """Replace the column index, as the circuit layer sees it, by
    fault(real index).  Every other check scans covectors or topes."""
    real = core.covector_columns
    layer = importlib.import_module("comring.circuits")
    monkeypatch.setattr(layer, "covector_columns", lambda L: fault(real(L)))


def forget_plus_at_0(cols):
    return core.Columns((0,) + cols.plus[1:], cols.minus, cols.every)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 5])
def test_faulty_column_index_fails_the_report(monkeypatch, seed):
    """A column index that forgets where element 0 is positive gives
    wrong circuits, and the report fails."""
    install_faulty_columns(monkeypatch, forget_plus_at_0)
    arr = corpus_arrangement(seed)
    ok, report = full_verify(covectors(arr))
    assert report["circuits"] != geometric_circuits(arr).words()
    assert not ok and report["ok"] is False
    assert report["nbc_tope_ok"] is False
    assert report["circuits_ok"] is False
    # No covector is positive at 0 in the faulty index, so +0...0 is a
    # circuit, the first in canonical order, and every tope extends it.
    assert report["circuits_failed_at"] == "+" + "0" * (report["n"] - 1)
    assert keys_before(report, "circuits_ok") == "circuits_failed_at"


def reorient_at_0(cols):
    """The column index of L with element 0 reoriented, itself an
    oriented matroid when L is one."""
    plus, minus = list(cols.plus), list(cols.minus)
    plus[0], minus[0] = minus[0], plus[0]
    return core.Columns(tuple(plus), tuple(minus), cols.every)


# The first sign vector, in canonical order, in exactly one of the two
# circuit families under each fault.
OM_WITNESSES = {
    (forget_plus_at_0, 0): "-++",
    (forget_plus_at_0, 5): "-+++",
    (forget_plus_at_0, 10): "--0-0",
    (reorient_at_0, 0): "---",
    (reorient_at_0, 5): "----",
    (reorient_at_0, 10): "--0-0",
}

# The first circuit, in canonical order, that a tope extends under each
# fault; forget_plus_at_0 on seeds 0 and 5 fails nbc_tope_ok first, so
# those reports carry no presentation keys.
KERNEL_WITNESSES = {
    (forget_plus_at_0, 10): "+0000",
    (reorient_at_0, 0): "---",
    (reorient_at_0, 5): "----",
    (reorient_at_0, 10): "-0-00",
}


@pytest.mark.parametrize("fault", [forget_plus_at_0, reorient_at_0])
@pytest.mark.parametrize("seed", [0, 5, 10])
def test_faulty_column_index_fails_the_om_cross_check(monkeypatch, seed, fault):
    """On a central corpus seed, an oriented matroid, a faulty column
    index changes the circuits but not the oriented matroid circuits,
    which are built from the covector list, so the cross check fails.
    Under the reorientation both families would agree if ``om_circuits``
    read the index."""
    install_faulty_columns(monkeypatch, fault)
    L = covectors(corpus_arrangement(seed))
    ok, report = full_verify(L)
    assert not ok
    assert report["om_cross_check_ok"] is False
    witness = report["om_cross_check_failed_at"]
    assert witness == OM_WITNESSES[fault, seed]
    only_one = {x.word() for x in set(om_circuits(L).circuits) ^ set(circuits(L).circuits)}
    assert witness in only_one
    assert keys_before(report, "om_cross_check_ok") == "om_cross_check_failed_at"
    kernel_witness = KERNEL_WITNESSES.get((fault, seed))
    if kernel_witness is None:
        assert report["nbc_tope_ok"] is False and "kernel_ok" not in report
    else:
        assert report["kernel_failed_at"] == kernel_witness
        assert keys_before(report, "kernel_ok") == "kernel_failed_at"
        assert report["kernel_ok"] is False and report["presentation_ok"] is False


# The first symmetric circuit, in canonical order, on whose support every
# covector is nonzero, under forget_plus_at_0.
DISJOINT_WITNESSES = {4: "-00", 7: "-00000", 22: "-0000"}


@pytest.mark.parametrize("seed", DISJOINT_WITNESSES)
def test_faulty_column_index_fails_the_disjoint_covector_check(monkeypatch, seed):
    """The disjoint covector check scans the covectors' supports, so a
    faulty index cannot certify the circuits it produced."""
    install_faulty_columns(monkeypatch, forget_plus_at_0)
    ok, report = full_verify(covectors(corpus_arrangement(seed)))
    assert not ok
    assert report["disjoint_covector_failed_at"] == DISJOINT_WITNESSES[seed]
    assert keys_before(report, "disjoint_covector_ok") == "disjoint_covector_failed_at"
    assert report["disjoint_covector_ok"] is False


def test_faulty_column_index_fails_the_contraction_law(monkeypatch):
    """The contraction law builds its blockers by a covector scan, so it
    disagrees with the circuits a faulty index gives the contraction."""
    install_faulty_columns(monkeypatch, forget_plus_at_0)
    L = covectors(corpus_arrangement(22))
    assert verify_circuit_minor_laws(L, 2) == "contraction"


def test_faulty_column_index_fails_the_report_with_a_coloop(monkeypatch, ex4):
    """ex4 with a coloop appended has no tope, and the same fault leaves
    every other key True: the generator test scans the covectors of
    widest support, not the topes, and fails."""
    L = Com(ex4.n + 1, [inject(v, ex4.n) for v in ex4])
    assert full_verify(L)[0] and not topes(L)
    install_faulty_columns(monkeypatch, forget_plus_at_0)
    # A fresh Com, so no result memoized before the fault is reused.
    ok, report = full_verify(Com(L.n, L.covectors))
    assert not ok and report["circuits_ok"] is False
    # No tope, so the kernel check holds without a scan.
    assert report["n_topes"] == 0 and report["kernel_ok"] is True


@pytest.mark.parametrize("seed", [1, 3, 4])
def test_column_index_hiding_circuits_fails_boolean_extension(monkeypatch, seed):
    """A column index in which every covector is both positive and
    negative at element 0 hides the circuits through 0, and the boolean
    extension check, which scans the covectors, sees a circuit-free set
    with an unrealized pattern."""
    install_faulty_columns(
        monkeypatch,
        lambda cols: core.Columns(
            (cols.every,) + cols.plus[1:], (cols.every,) + cols.minus[1:], cols.every
        ),
    )
    ok, report = full_verify(covectors(corpus_arrangement(seed)))
    assert not ok
    assert report["boolean_extension_ok"] is False
    assert 0 in report["boolean_extension_failed_at"]


def test_corpus_instance_lists_its_failing_minors(monkeypatch):
    """A check that fails on every minor of corpus seed 3 (n = 6) but not
    on the root fails the instance, names the failed key in its minor
    checks, and lists each failing minor once per slot."""
    real = verify.verify_lift

    def failing_below_6(L, i):
        C = circuits(L).circuits
        return C[0] if L.n < 6 and C else real(L, i)

    monkeypatch.setattr(verify, "verify_lift", failing_below_6)
    result = verify.corpus_instance_report(3)
    assert result["n"] == 6
    assert result["ok"] is False and result["report"]["ok"] is True
    assert result["minor_checks"] == {key: key != "lifts_ok" for key in verify._CHECK_KEYS}
    failing = result["failing_minors"]
    assert [(f["element"], f["kind"]) for f in failing] == [
        (i, kind) for i in range(6) for kind in ("delete", "contract")
    ]
    assert all(f["report"]["lift_failed_at"] == 0 for f in failing)
    assert json.loads(json.dumps(result)) == result

    status, out = run(["corpus", "--start-seed", "3", "--count", "1", "--format", "json"])
    assert status == 1
    assert [r["seed"] for r in json.loads(out)["failures"]] == [3]
