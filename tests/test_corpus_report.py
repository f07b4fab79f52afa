"""corpus_instance_report folds the reports of the minor slots into one
instance verdict."""

from dataclasses import replace

from comring import verify


def test_failed_om_cross_check_on_the_minors_fails_the_instance(monkeypatch):
    """An oriented-matroid cross check that fails on every minor of corpus
    seed 0 (central, n = 3) but not on the root turns ``om_ok`` and ``ok``
    false, keeps every ``minor_checks`` value true (the cross check is not
    one of them) and lists the minors that name its witness."""
    real = verify.om_circuits

    def dropping_first_below_3(L):
        C = real(L)
        return replace(C, circuits=C.circuits[1:]) if L.n < 3 else C

    monkeypatch.setattr(verify, "om_circuits", dropping_first_below_3)
    result = verify.corpus_instance_report(0)
    assert result["n"] == 3 and result["report"]["ok"] is True
    assert result["om_runs"] == 7
    assert result["om_ok"] is False and result["ok"] is False
    assert result["minor_checks"] == {key: True for key in verify._CHECK_KEYS}
    failing = result["failing_minors"]
    # the deletions have no circuits to drop, so only the contractions fail
    assert [(f["element"], f["kind"]) for f in failing] == [(i, "contract") for i in range(3)]
    for f in failing:
        report = f["report"]
        keys = list(report)
        assert report["om_cross_check_failed_at"] == report["circuits"][0]
        assert keys[keys.index("om_cross_check_ok") - 1] == "om_cross_check_failed_at"
        assert report["om_cross_check_ok"] is False
