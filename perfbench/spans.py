"""Spans around the public functions of every comring layer.

The tracer wraps functions from the benchmark's side: each name is
rebound in every ``comring`` module that holds it, because
``from .x import y`` copies the binding, and methods are rebound on their
class.  A span is (name, start, end, parent, op id), kept in flat arrays
while the run lasts, with the start and end of every op.  ``summarise``
checks that the spans nest and turns them into the per-layer metrics
listed in BENCHMARK.json.

Per-sign-vector helpers (``compose``, ``SignVector`` construction) are
left alone: they run millions of times per corpus and a wrapper would
cost more than the work it measures.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from array import array
from collections import Counter
from time import perf_counter
from types import SimpleNamespace
from typing import Any, Callable

# (layer, attribute path) of every wrapped function; its spans are named
# "layer.attribute", except Com.__init__, whose spans are "core.Com".
TRACED = (
    ("realize", "feasible_point"),
    ("realize", "covectors_with_witnesses"),
    ("core", "check_face_symmetry"),
    ("core", "check_strong_elimination"),
    ("core", "is_com"),
    ("core", "topes"),
    ("core", "Com.__init__"),
    ("circuits", "circuits"),
    ("circuits", "om_circuits"),
    ("circuits", "in_generator_set"),
    ("circuits", "realized_patterns"),
    ("minors", "delete"),
    ("minors", "contract"),
    ("minors", "verify_tope_recursion"),
    ("minors", "verify_lift"),
    ("minors", "verify_disjoint_covector"),
    ("nbc", "nbc_sets"),
    ("nbc", "verify_nbc_recursion"),
    ("exactalg", "determinant"),
    ("exactalg", "IntLattice.add"),
    ("exactalg", "IntLattice.contains"),
    ("rings", "verify_presentation"),
    ("rings", "e_X_eval"),
    ("rings", "presentation"),
    ("cli", "full_verify"),
    ("cli", "corpus_instance_report"),
)

# Per-layer metrics: (metric, unit).  Order is the order of BENCHMARK.json.
LAYER_METRICS = (
    ("realize.feasible_point.calls", "count"),
    ("realize.feasible_point.self_s", "s"),
    ("realize.feasible_point.infeasible_frac", "frac"),
    ("realize.feasible_point.rows_mean", "rows"),
    ("realize.covectors_with_witnesses.self_s", "s"),
    ("core.check_face_symmetry.calls", "count"),
    ("core.check_face_symmetry.self_s", "s"),
    ("core.check_strong_elimination.calls", "count"),
    ("core.check_strong_elimination.self_s", "s"),
    ("core.pairs_scanned", "count"),
    ("core.is_com.calls", "count"),
    ("core.Com.constructed", "count"),
    ("core.Com.init_self_s", "s"),
    ("core.topes.calls", "count"),
    ("circuits.circuits.calls", "count"),
    ("circuits.circuits.self_s", "s"),
    ("circuits.circuits.distinct_frac", "frac"),
    ("circuits.om_circuits.calls", "count"),
    ("circuits.om_circuits.self_s", "s"),
    ("circuits.in_generator_set.calls", "count"),
    ("circuits.in_generator_set.self_s", "s"),
    ("circuits.realized_patterns.calls", "count"),
    ("circuits.realized_patterns.self_s", "s"),
    ("minors.delete.calls", "count"),
    ("minors.delete.self_s", "s"),
    ("minors.contract.calls", "count"),
    ("minors.contract.self_s", "s"),
    ("minors.verify_tope_recursion.self_s", "s"),
    ("minors.verify_lift.self_s", "s"),
    ("minors.verify_disjoint_covector.self_s", "s"),
    ("nbc.nbc_sets.calls", "count"),
    ("nbc.nbc_sets.self_s", "s"),
    ("nbc.nbc_sets.sets_out", "count"),
    ("nbc.verify_nbc_recursion.calls", "count"),
    ("nbc.verify_nbc_recursion.self_s", "s"),
    ("exactalg.determinant.calls", "count"),
    ("exactalg.determinant.self_s", "s"),
    ("exactalg.IntLattice.add.calls", "count"),
    ("exactalg.IntLattice.add.self_s", "s"),
    ("exactalg.IntLattice.contains.calls", "count"),
    ("exactalg.IntLattice.contains.self_s", "s"),
    ("rings.verify_presentation.self_s", "s"),
    ("rings.e_X_eval.calls", "count"),
    ("rings.presentation.self_s", "s"),
    ("cli.full_verify.calls", "count"),
    ("cli.full_verify.self_s", "s"),
    ("cli.corpus_instance_report.self_s", "s"),
    ("unattributed_s", "s"),
    ("trace.ops", "count"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.traced_ops_per_s", "1/s"),
    ("trace.overhead_frac", "frac"),
)

# Metrics that must repeat exactly between two traced runs of one seed.
COUNT_METRICS = tuple(
    name for name, unit in LAYER_METRICS
    if unit in ("count", "rows") or (unit == "frac" and not name.startswith("trace."))
)


def _span_name(layer: str, attr: str) -> str:
    return "core.Com" if attr == "Com.__init__" else f"{layer}.{attr}"


class Tracer:
    """Records spans while installed; ``op`` tags spans with the current op."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op_id = array("i")
        self.stack = [-1]
        self.op = -1
        self.active = False
        self.op_start: list[float] = []
        self.op_end: list[float] = []
        self.extra: Counter = Counter()
        self.circuit_args: set[int] = set()
        self._restore: list[tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, note: Callable | None) -> Callable:
        nid = len(self.names)
        self.names.append(name)
        name_id, start, end = self.name_id, self.start, self.end
        parent, op_id, stack = self.parent, self.op_id, self.stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op_id.append(self.op)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if note is not None:
                note(args, result)
            return result

        return functools.wraps(fn)(traced)

    def _notes(self) -> dict[str, Callable]:
        extra = self.extra
        seen = self.circuit_args

        def feasible(args, result):
            extra["feasible_point.rows"] += len(args[0]) + len(args[1])
            if result is None:
                extra["feasible_point.infeasible"] += 1

        def face_symmetry(args, result):
            extra["pairs_scanned"] += len(args[0]) ** 2

        def strong_elimination(args, result):
            size = len(args[0])
            extra["pairs_scanned"] += size * (size + 1) // 2

        def circuits(args, result):
            seen.add(hash(args[0]))

        def nbc_sets(args, result):
            extra["nbc_sets.sets_out"] += len(result.sets)

        return {
            "realize.feasible_point": feasible,
            "core.check_face_symmetry": face_symmetry,
            "core.check_strong_elimination": strong_elimination,
            "circuits.circuits": circuits,
            "nbc.nbc_sets": nbc_sets,
        }

    def install(self, m: SimpleNamespace) -> None:
        """Rebind every traced function in every loaded comring module."""
        notes = self._notes()
        modules = [mod for key, mod in sys.modules.items()
                   if key == "comring" or key.startswith("comring.")]
        for layer, attr in TRACED:
            name = _span_name(layer, attr)
            owner = getattr(m, layer)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[meth]
                self._restore.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(name, fn, notes.get(name)))
                continue
            fn = getattr(owner, attr)
            wrapped = self._wrap(name, fn, notes.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._restore.append((mod, key, fn))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._restore):
            setattr(owner, key, fn)
        self._restore.clear()

    def run_op(self, call: Callable[[], Any]) -> Any:
        """Run one op with tracing on, recording when it starts and ends."""
        self.op = len(self.op_start)
        self.active = True
        self.op_start.append(perf_counter())
        try:
            return call()
        finally:
            self.op_end.append(perf_counter())
            self.active = False

    # -- output ----------------------------------------------------------

    def spans(self) -> dict[str, Any]:
        return {
            "names": self.names,
            "name_id": self.name_id.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "op_id": self.op_id.tolist(),
            "op_start": self.op_start,
            "op_end": self.op_end,
            "extra": dict(self.extra),
            "circuits_distinct": len(self.circuit_args),
        }

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(self.spans(), fh)


def check_nesting(data: dict[str, Any]) -> None:
    """Raise ValueError unless the spans nest.

    Every span must lie inside its parent, or inside its op's window if
    it is a root, and must start no earlier than its previous sibling
    ends.  So no self time and no op's unattributed time can be negative,
    and the self times plus ``unattributed_s`` add up to the op wall time.
    """
    start, end, parent, op_id = data["start"], data["end"], data["parent"], data["op_id"]
    op_start, op_end = data["op_start"], data["op_end"]
    # Where the next child of a span, or the next root span of an op, may start.
    free_span = list(start)
    free_op = list(op_start)
    for idx, p in enumerate(parent):
        op = op_id[idx]
        if p >= 0:
            lo, hi, free = free_span[p], end[p], free_span
            if op_id[p] != op:
                raise ValueError(f"span {idx} is in op {op}, its parent {p} in op {op_id[p]}")
        else:
            lo, hi, free = free_op[op], op_end[op], free_op
        if not lo <= start[idx] <= end[idx] <= hi:
            where = f"parent {p}" if p >= 0 else f"op {op}"
            raise ValueError(
                f"span {idx} [{start[idx]}, {end[idx]}] does not fit in {where} "
                f"after its previous sibling: [{lo}, {hi}]"
            )
        free[p if p >= 0 else op] = end[idx]


def summarise(data: dict[str, Any]) -> dict[str, float]:
    """Per-layer metrics from one run's spans, once ``check_nesting`` passes.

    A span's self time is its duration minus the durations of its direct
    children; ``unattributed_s`` is op wall time outside every root span.
    """
    check_nesting(data)
    names = data["names"]
    nid, start, end, parent = data["name_id"], data["start"], data["end"], data["parent"]
    dur = [e - s for s, e in zip(start, end)]
    child = [0.0] * len(dur)
    root_total = 0.0
    for idx, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[idx]
        else:
            root_total += dur[idx]
    calls: Counter = Counter()
    self_s: Counter = Counter()
    for idx, k in enumerate(nid):
        calls[names[k]] += 1
        self_s[names[k]] += dur[idx] - child[idx]
    wall = sum(e - s for s, e in zip(data["op_start"], data["op_end"]))
    unattributed = wall - root_total
    extra = data["extra"]

    def frac(num: float, den: float) -> float:
        return num / den if den else 0.0

    fp_calls = calls["realize.feasible_point"]
    out: dict[str, float] = {}
    for metric, _ in LAYER_METRICS:
        base, _, field = metric.rpartition(".")
        if field == "calls":
            out[metric] = calls[base]
        elif field == "self_s":
            out[metric] = self_s[base]
    out.update({
        "realize.feasible_point.infeasible_frac": frac(extra.get("feasible_point.infeasible", 0), fp_calls),
        "realize.feasible_point.rows_mean": frac(extra.get("feasible_point.rows", 0), fp_calls),
        "core.pairs_scanned": extra.get("pairs_scanned", 0),
        "core.Com.constructed": calls["core.Com"],
        "core.Com.init_self_s": self_s["core.Com"],
        "circuits.circuits.distinct_frac": frac(data["circuits_distinct"], calls["circuits.circuits"]),
        "nbc.nbc_sets.sets_out": extra.get("nbc_sets.sets_out", 0),
        "unattributed_s": unattributed,
        "trace.ops": len(data["op_start"]),
    })
    return out
