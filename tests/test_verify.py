"""Failed `full_verify` checks name their witness."""

import json

from comring import verify
from comring.circuits import circuits
from comring.cli import RunConfig, run
from comring.core import com_to_json
from comring.minors import DisjointCovectorReport, LiftReport
from comring.verify import full_verify


def keys_before(report, key):
    keys = list(report)
    return keys[keys.index(key) - 1]


def test_passing_report_names_no_failure(ex4):
    ok, report = full_verify(ex4)
    assert ok
    assert not [k for k in report if k.endswith("_failed_at")]


def test_failed_disjoint_covector_names_its_circuit(monkeypatch, ex4):
    bad = circuits(ex4).circuits[1]
    monkeypatch.setattr(
        verify, "verify_disjoint_covector", lambda L: DisjointCovectorReport(1, False, bad)
    )
    ok, report = full_verify(ex4)
    assert not ok and report["ok"] is False
    assert report["disjoint_covector_ok"] is False
    assert report["disjoint_covector_failed_at"] == bad.word()
    assert keys_before(report, "disjoint_covector_ok") == "disjoint_covector_failed_at"


def test_failed_lift_names_its_first_element(monkeypatch, tmp_path, ex4):
    real = verify.verify_lift

    def failing_from_2(L, i):
        return LiftReport(i, 0, False) if i >= 2 else real(L, i)

    monkeypatch.setattr(verify, "verify_lift", failing_from_2)
    ok, report = full_verify(ex4)
    assert not ok and report["lifts_ok"] is False
    assert report["lift_failed_at"] == 2
    assert keys_before(report, "lifts_ok") == "lift_failed_at"

    path = tmp_path / "ex4.json"
    path.write_text(com_to_json(ex4))
    status, out = run(RunConfig("verify", input_path=str(path)))
    assert status == 1
    assert json.loads(out)["lift_failed_at"] == 2
