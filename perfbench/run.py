"""Run one benchmark workload against the comring sources and print metrics.

    python3 perfbench/run.py --workload corpus|realize|verify
        [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--tiny]

Run from the repository root; the package is imported from ``src/``.  One
process and one thread drive the public API as a closed loop with one
client.  Untraced (``--trace 0``) the run submits whole passes over the
workload's inputs until ``--seconds`` of op time have passed and reports
the end-to-end metrics.  Traced (``--trace 1``) it runs one pass
untraced, then the same pass with spans around every layer, and reports
the per-layer metrics; spans are written to ``.bench_trace/``.  Times are
scaled to a reference CPU speed (see ``clock.py``); ``--seconds``
defaults to ``run_seconds`` in BENCHMARK.json.  The garbage collector
runs inside ops, as it would for a user.  Every op's output is checked
outside the timed region.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
``--out`` also writes a results file with the environment and every op's
raw and scaled latency; ``--tiny`` shrinks each workload for the self-test.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import clock

PROCESS_START = perf_counter()
ROOT = Path.cwd()

# Past this much wall time a run stops mid-pass, so that it always ends
# well inside the three minutes a run may take.
HARD_LIMIT_S = 150.0

# Kernel samples taken on each side of a set-up repetition.
SETUP_SAMPLES = 5

# An untraced run sets up at least SETUP_MIN_REPS times and until
# SETUP_MIN_S of set-up time have passed, and reports the median: over
# ten runs, the median of five 0.08 s set-ups spread by 9-10 %, that of
# about twenty by 3-6 %.
SETUP_MIN_REPS = 3
SETUP_MIN_S = 1.5

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class Run:
    """Ops of one run: attempts, failures, the kernel samples taken
    before, inside and after every attempt, and the wall time of each op
    that passed its check with the index of its samples.  ``inside`` says
    whether the kernel is also sampled inside ops (see ``clock.py``)."""

    def __init__(self, inside: bool = True) -> None:
        self.inside = inside
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.samples: list[list[float]] = []
        self.passed: list[tuple[str, int, float]] = []

    def record(self, wl, m, inst, call: Callable[[], Any], corrupt=None) -> None:
        before = clock.sample()
        self.attempted += 1
        error = None
        with clock.Sampling(self.inside) as timing:
            try:
                out = call()
            except Exception as exc:  # an op that raises is a failed op
                error = f"raised {exc!r}"
        self.samples.append([before, *timing.samples, clock.sample()])
        if error is not None:
            self.failures.append((inst.key, error))
            return
        if corrupt is not None and self.attempted == 1:
            out = corrupt(out)
        try:
            reason = wl.check(m, inst, out)
        except Exception as exc:  # so is an output the gate cannot read
            reason = f"check raised {exc!r}"
        if reason is None:
            self.passed.append((inst.key, len(self.samples) - 1, timing.seconds))
        else:
            self.failures.append((inst.key, reason))

    def scaled(self) -> list[float]:
        """Scaled latencies of the passed ops, in seconds."""
        return clock.scale_each([(i, wall) for _, i, wall in self.passed], self.samples)


def set_up(wl, min_reps: int, min_seconds: float):
    """Import, build inputs and warm up at least ``min_reps`` times and
    until ``min_seconds`` have passed; median scaled seconds."""
    from workloads import import_comring

    times: list[float] = []
    spent = 0.0
    while len(times) < min_reps or spent < min_seconds:
        before = [clock.sample() for _ in range(SETUP_SAMPLES)]
        with clock.Sampling() as timing:
            m = import_comring()
            wl.setup(m)
        after = [clock.sample() for _ in range(SETUP_SAMPLES)]
        times.append(clock.scale(timing.seconds, before + timing.samples + after))
        spent += timing.seconds
        # Free the set-up before this one, so that peak RSS does not grow
        # with the number of set-ups.
        gc.collect()
    wl.prepare_checks(m)
    gc.collect()
    gc.freeze()
    return m, statistics.median(times)


def tail(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def rate(latencies: list[float]) -> float:
    return len(latencies) / sum(latencies) if latencies else 0.0


def measure(wl, m, seed: int, seconds: float, corrupt=None) -> Run:
    """Whole passes of ops until ``seconds`` of scaled op time have passed.

    Stopping on scaled time keeps the number of passes, and so the sample
    counts behind each percentile, the same while the CPU speed drifts.
    """
    run = Run()
    for block in wl.blocks(seed):
        for inst in block:
            arg = wl.fresh_input(m, inst)
            run.record(wl, m, inst, lambda: wl.op(m, arg), corrupt)
            if perf_counter() - PROCESS_START > HARD_LIMIT_S:
                return run
        if sum(run.scaled()) >= seconds:
            return run
    return run


def end_to_end(wl, run: Run, setup_s: float) -> tuple[dict[str, float], dict[str, Any]]:
    lat = run.scaled()
    pct = wl.spec["tail_pct"]
    tail_s, beyond = tail(lat, pct) if lat else (0.0, 0)
    metrics = {
        "ops_per_s": rate(lat),
        "op_p50_ms": statistics.median(lat) * 1e3 if lat else 0.0,
        "op_tail_ms": tail_s * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = [wall for _, _, wall in run.passed]
    info = {
        "failed_op_frac": len(run.failures) / max(run.attempted, 1),
        "tail_pct": pct,
        "tail_samples_beyond": beyond,
        "ops": len(lat),
        "raw_ops_per_s": rate(raw),
        "raw_op_p50_ms": statistics.median(raw) * 1e3 if raw else 0.0,
        "kernel_mean_ms": statistics.fmean(s for op in run.samples for s in op) * 1e3,
    }
    return metrics, info


def traced(wl, m, seed: int, corrupt=None) -> tuple[dict[str, float], Run, Any]:
    """One pass in which every input runs both untraced and traced.

    The two runs of an input go back to back, so they see the same CPU
    speed, and which goes first alternates, since a repeated input runs
    faster the second time; their ratio is the tracing overhead.  The
    kernel is sampled only around ops here, so that no sampling time
    lands inside a span.
    """
    from spans import Tracer, summarise

    plain, spanned = Run(inside=False), Run(inside=False)
    tracer = Tracer()
    tracer.install(m)
    try:
        for k, inst in enumerate(next(wl.blocks(seed))):
            for traced_now in ((False, True) if k % 2 == 0 else (True, False)):
                arg = wl.fresh_input(m, inst)
                if traced_now:
                    spanned.record(wl, m, inst, lambda: tracer.run_op(lambda: wl.op(m, arg)))
                else:
                    plain.record(wl, m, inst, lambda: wl.op(m, arg), corrupt)
    finally:
        tracer.uninstall()
    metrics = summarise(tracer.spans())
    untraced_rate, traced_rate = rate(plain.scaled()), rate(spanned.scaled())
    metrics["trace.untraced_ops_per_s"] = untraced_rate
    metrics["trace.traced_ops_per_s"] = traced_rate
    metrics["trace.overhead_frac"] = untraced_rate / traced_rate - 1 if traced_rate else 0.0
    plain.attempted += spanned.attempted
    plain.failures += spanned.failures
    return metrics, plain, tracer


def environment(seed: int) -> dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": commit,
        "seed": seed,
    }


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
    corrupt=None,
) -> tuple[dict[str, Any], dict[str, Any]]:
    """The result object and the details behind it for one run."""
    import workloads
    from spans import LAYER_METRICS

    wl = workloads.make(workload, tiny)
    if trace:
        m, _ = set_up(wl, 1, 0.0)
        metrics, run, tracer = traced(wl, m, seed, corrupt)
        units = dict(LAYER_METRICS)
        trace_dir = ROOT / ".bench_trace"
        trace_dir.mkdir(exist_ok=True)
        tracer.write(trace_dir / f"{workload}-seed{seed}.spans.json.gz")
        info = {"failed_op_frac": len(run.failures) / max(run.attempted, 1)}
    else:
        m, setup_s = set_up(wl, SETUP_MIN_REPS, SETUP_MIN_S)
        run = measure(wl, m, seed, seconds, corrupt)
        metrics, info = end_to_end(wl, run, setup_s)
        units = END_TO_END_UNITS
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    details = {
        "workload": workload,
        "trace": int(trace),
        "seconds": seconds,
        "tiny": tiny,
        "environment": environment(seed),
        **info,
        "failures": run.failures,
        "latencies_ms": [
            [key, wall * 1e3, scaled * 1e3]
            for (key, _, wall), scaled in zip(run.passed, run.scaled())
        ],
    }
    return result, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("corpus", "realize", "verify"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write a results file here")
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "comring" / "__init__.py").is_file():
        print("error: run from a checkout that holds src/comring", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    result, details = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.tiny
    )
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['attempted']} ops attempted, {result['failed']} failed")
    for key, reason in details["failures"][:5]:
        print(f"  failed {key}: {reason}")
    for name, m in result["metrics"].items():
        print(f"  {name:45s} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_op_frac':45s} {details['failed_op_frac']:>14.6g} frac")
    if not args.trace:
        print(f"  op_tail_ms is p{details['tail_pct']} of {details['ops']} ops, "
              f"{details['tail_samples_beyond']} beyond it")
        print(f"  unscaled: ops_per_s {details['raw_ops_per_s']:.6g} 1/s, op_p50_ms "
              f"{details['raw_op_p50_ms']:.6g} ms; kernel mean "
              f"{details['kernel_mean_ms']:.4g} ms, reference "
              f"{clock.REFERENCE_S * 1e3:g} ms")
    if args.out:
        Path(args.out).write_text(json.dumps({"result": result, **details}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
