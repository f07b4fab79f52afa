"""Failed `full_verify` checks name their witness."""

import importlib
import json
from types import SimpleNamespace

import pytest

from comring import core, rings, verify
from comring.circuits import circuits
from comring.cli import run
from comring.core import Com, com_to_json, topes
from comring.minors import inject
from comring.realize import covectors, geometric_circuits
from comring.verify import corpus_arrangement, full_verify


def keys_before(report, key):
    keys = list(report)
    return keys[keys.index(key) - 1]


def test_passing_report_names_no_failure(ex4):
    ok, report = full_verify(ex4)
    assert ok
    assert not [k for k in report if k.endswith("_failed_at")]


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
    # every tope extends itself, so the first tope is the first witness
    monkeypatch.setattr(rings, "circuits", lambda L: SimpleNamespace(circuits=topes(L)))
    return topes(L)[0].word()


def fail_filtration(monkeypatch, L):
    calls = []

    def contains_only_first(lattice, v):
        calls.append(v)
        return len(calls) == 1

    monkeypatch.setattr(rings.IntLattice, "contains", contains_only_first)
    return [0]  # level 0 holds only h_{} and passes; level 1 fails at once


CASES = {
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
    """Replace the column index, as the circuit, minor and ring layers
    see it, by fault(real index)."""
    real = core.covector_columns
    for layer in ("circuits", "minors", "rings"):
        module = importlib.import_module(f"comring.{layer}")
        monkeypatch.setattr(module, "covector_columns", lambda L: fault(real(L)))


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
