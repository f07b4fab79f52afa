"""Self-test of the benchmark itself, at tiny sizes.

    python3 perfbench/selftest.py

Run from the repository root; it takes about a minute.  It checks that
every workload prints every metric named in BENCHMARK.json with its unit,
that two traced runs of one seed give identical counts, that a corrupted
op output is counted as a failed op, that the trace summariser rejects
spans that do not nest, and that without ``src/`` the benchmark exits
non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOADS = ("corpus", "realize", "verify")


def run_tiny(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def printed_result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    return result


def check_metrics_printed(spec: dict) -> None:
    from spans import COUNT_METRICS

    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            metrics = printed_result(run_tiny(workload, trace))["metrics"]
            assert set(metrics) == {m["name"] for m in spec[key]}, (workload, trace)
            for m in spec[key]:
                assert metrics[m["name"]]["unit"] == m["unit"], (workload, m["name"])
                assert isinstance(metrics[m["name"]]["value"], (int, float))
            if trace:
                again = printed_result(run_tiny(workload, 1))["metrics"]
                differ = [k for k in COUNT_METRICS if metrics[k] != again[k]]
                assert not differ, f"{workload}: counts differ between traced runs: {differ}"
        print(f"ok   {workload}: all metrics printed with units, traced counts repeat")


def _drop_covector(out):
    return out[1:]


def _move_witness(out):
    (x, p), rest = out[0], out[1:]
    return [(x, rest[0][1])] + rest


def _drop_circuit(out):
    ok, report, pres = out
    return ok, {**report, "circuits": report["circuits"][1:]}, pres


def _miscount(out):
    return {**out, "n_covectors": out["n_covectors"] + 1}


def check_gate_catches_corruption() -> None:
    import run

    sys.path.insert(0, str(ROOT / "src"))
    cases = (
        ("corpus", _miscount),
        ("realize", _drop_covector),
        ("realize", _move_witness),
        ("verify", _drop_circuit),
    )
    for workload, corrupt in cases:
        for trace in (False, True):
            result, details = run.run_workload(workload, 0, 1, trace, tiny=True, corrupt=corrupt)
            assert not result["correct"] and result["failed"] == 1, (workload, corrupt, result)
            assert details["failed_op_frac"] > 0
        print(f"ok   {workload}: {corrupt.__name__[1:]} is a failed op")


def check_summariser_rejects_bad_spans() -> None:
    from spans import summarise

    # One op from 0.5 to 6.0 s: a root span with two children in turn.
    good = {
        "names": ["outer", "inner"], "name_id": [0, 1, 1],
        "start": [1.0, 2.0, 4.0], "end": [5.0, 3.0, 4.5], "parent": [-1, 0, 0],
        "op_id": [0, 0, 0], "op_start": [0.5], "op_end": [6.0],
        "extra": {}, "circuits_distinct": 0,
    }
    assert summarise(good)["unattributed_s"] == 1.5
    bad = {
        "a child that ends after its parent": {**good, "end": [5.0, 3.0, 5.5]},
        "overlapping siblings": {**good, "start": [1.0, 2.0, 2.5]},
        "a root span that ends after its op": {**good, "end": [6.5, 3.0, 4.5]},
        "a child in another op than its parent": {
            **good, "op_id": [0, 0, 1], "op_start": [0.5, 6.0], "op_end": [6.0, 7.0]},
    }
    for what, data in bad.items():
        try:
            summarise(data)
        except ValueError:
            continue
        raise AssertionError(f"summarise accepted {what}")
    print("ok   the trace summariser rejects spans that do not nest")


def check_fails_without_sources() -> None:
    bare = ROOT / ".bench_results" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_tiny("corpus", 0, cwd=bare)
        assert proc.returncode != 0, proc.stdout
        assert '"metrics"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare)
    print("ok   without src/ the benchmark exits non-zero and prints no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_metrics_printed(spec)
    check_gate_catches_corruption()
    check_summariser_rejects_bad_spans()
    check_fails_without_sources()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
