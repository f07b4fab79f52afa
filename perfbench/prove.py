"""Run every workload over ten seeds and check that the figures are steady.

    python3 perfbench/prove.py [--traced] [--out FILE]

Run from the repository root.  Each run is a fresh ``perfbench/run.py``
process of ``run_seconds`` (BENCHMARK.json), one at a time.  For every
end-to-end metric the table shows the median over seeds, the quartiles,
and the spread (interquartile distance over the median) against the
bound in BENCHMARK.json, and the command exits 1 unless every spread of
every workload, ``setup_s`` included, is within its bound.  ``--traced`` also
makes two traced runs of the first seed per workload, checks that their
counts repeat exactly, and reports the tracing overhead.  ``--out``
writes everything, with the environment, to one results file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SCRATCH = ROOT / ".bench_results"

WORKLOADS = ("corpus", "realize", "verify")
SEEDS = [7919 * i for i in range(10)]


def bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int) -> dict:
    SCRATCH.mkdir(exist_ok=True)
    out = SCRATCH / f"{workload}-seed{seed}-trace{trace}.json"
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace),
           "--out", str(out)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    details = json.loads(out.read_text())
    if json.loads(proc.stdout.strip().splitlines()[-1]) != details["result"]:
        raise RuntimeError("printed result differs from the results file")
    return details


def spread(values: list[float]) -> dict[str, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    spec = bench_spec()
    metrics = spec["end_to_end"]
    report: dict = {"seconds": spec["run_seconds"], "seeds": SEEDS, "workloads": {}}
    steady = True
    for workload in WORKLOADS:
        runs = []
        for seed in SEEDS:
            details = run_once(workload, seed, 0)
            runs.append(details)
            values = details["result"]["metrics"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g} {v['unit']}" for k, v in values.items())
                + f", failed_op_frac {details['failed_op_frac']:.4g} frac"
                + f" (unscaled ops_per_s {details['raw_ops_per_s']:.4g})", flush=True)
        summary = {}
        for metric in metrics:
            name = metric["name"]
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            summary[name] = {"unit": metric["unit"], "bound": metric["bound"], **spread(values)}
        failed = sum(r["result"]["failed"] for r in runs)
        attempted = sum(r["result"]["attempted"] for r in runs)
        entry = {
            "summary": summary,
            "failed_op_frac": failed / attempted,
            "tail_pct": runs[0]["tail_pct"],
            "ops_per_run": [r["ops"] for r in runs],
            "tail_samples_beyond": [r["tail_samples_beyond"] for r in runs],
            "runs": [{k: v for k, v in r.items() if k != "latencies_ms"} for r in runs],
        }
        if workload == "corpus":
            # Op time of the acceptance corpus (seeds 0-99), unscaled and
            # scaled: per run from each seed's median over the run's passes,
            # then the median over runs.
            for column, label in ((1, "raw"), (2, "scaled")):
                totals = []
                for r in runs:
                    lat: dict[str, list[float]] = {}
                    for row in r["latencies_ms"]:
                        lat.setdefault(row[0], []).append(row[column])
                    totals.append(sum(statistics.median(lat[str(s)]) for s in range(100)) / 1e3)
                entry[f"acceptance_corpus_{label}_op_s"] = statistics.median(totals)
                print(f"  acceptance corpus (seeds 0-99) {label} op time: "
                      f"{statistics.median(totals):.3f} s")
        print(f"\n{workload}: failed_op_frac {entry['failed_op_frac']:.4g} frac over "
              f"{attempted} ops; op_tail_ms is p{entry['tail_pct']}, "
              f"ops per run {min(entry['ops_per_run'])}-{max(entry['ops_per_run'])}")
        for name, s in summary.items():
            ok = s["spread"] <= s["bound"]
            steady = steady and ok
            print(f"  {name:12s} median {s['median']:12.5g} {s['unit']:5s} "
                  f"q1 {s['q1']:10.5g} q3 {s['q3']:10.5g} spread {s['spread']:.4f} "
                  f"(bound {s['bound']}) {'ok' if ok else 'WIDE'}")
        if args.traced:
            first, second = (run_once(workload, SEEDS[0], 1) for _ in range(2))
            from spans import COUNT_METRICS

            a, b = (r["result"]["metrics"] for r in (first, second))
            differ = [k for k in COUNT_METRICS if a[k]["value"] != b[k]["value"]]
            entry["traced"] = {
                "seed": SEEDS[0],
                "counts_repeat": not differ,
                "metrics": [a, b],
                "overhead_frac": [a["trace.overhead_frac"]["value"],
                                  b["trace.overhead_frac"]["value"]],
            }
            steady = steady and not differ
            print(f"  traced: counts repeat {'yes' if not differ else 'NO: ' + ', '.join(differ)}; "
                  f"overhead {a['trace.overhead_frac']['value']:.3f}, "
                  f"{b['trace.overhead_frac']['value']:.3f}")
        report["workloads"][workload] = entry
        print(flush=True)
    report["environment"] = {k: v for k, v in runs[0]["environment"].items() if k != "seed"}
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
