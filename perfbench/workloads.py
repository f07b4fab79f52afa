"""The three benchmark workloads: inputs, the timed op, and the output gate.

Each workload is a closed loop with one client: the next op is submitted
only when the previous one has returned.  Every op gets a freshly built
input object, so state cached on an input cannot leak from one op into
the next, and every op's output is checked outside the timed region.

Each workload submits a fixed list of inputs in whole passes, each pass
in an order shuffled from the workload seed.  Op cost varies tenfold
between arrangements of one shape, and 60-seed windows of the corpus
differ by about 20 % in total cost, while a run holds a few dozen to a
few hundred ops; drawing new inputs per seed would make the run-to-run
spread wider than any useful bound.  With every input repeated once per
pass, a run's sorted latencies fall into one block per input, so each
list has an odd length and each tail percentile lands mid-block: a
percentile on the boundary of two inputs whose costs differ would flip
between them from run to run.  Shapes, list sizes and tail percentiles
live in ``spec.json`` beside this file.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any

SPEC = json.loads((Path(__file__).resolve().parent / "spec.json").read_text())
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Warm-up inputs lie outside every workload's input list.  Corpus seed
# 10**6 is a tiny central instance (d = 2, n = 3).
WARMUP_SEED = 10**6

COMRING_MODULES = (
    "core", "circuits", "minors", "nbc", "realize", "exactalg", "rings", "cli",
)


def import_comring() -> SimpleNamespace:
    """Import the package from scratch and return its modules by layer name.

    Earlier imports are dropped first, so the caller pays the full import
    cost on every call; ``setup_s`` includes it.
    """
    for name in [m for m in sys.modules if m == "comring" or m.startswith("comring.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return SimpleNamespace(
        **{m: importlib.import_module(f"comring.{m}") for m in COMRING_MODULES}
    )


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Instance:
    """One input of the workload: a key naming it, and what builds it."""

    key: str
    payload: Any


class Workload:
    """Inputs, op and gate of one workload.

    ``setup`` builds ``instances`` and warms up; ``blocks`` yields whole
    passes over them; ``op`` is the timed call; ``check`` returns None or
    the reason the output is wrong.
    """

    name: str

    def __init__(self, spec: dict[str, Any], tiny: bool):
        self.spec = spec
        self.tiny = tiny
        self.instances: list[Instance] = []
        self.reference = json.loads(REFERENCE_PATH.read_text()).get(self.name, {})

    def setup(self, m: SimpleNamespace) -> None:
        raise NotImplementedError

    def blocks(self, seed: int):
        rng = random.Random(seed)
        while True:
            order = list(self.instances)
            rng.shuffle(order)
            yield order

    def prepare_checks(self, m: SimpleNamespace) -> None:
        """Compute what the gate compares against; runs outside setup_s."""

    def fresh_input(self, m: SimpleNamespace, inst: Instance) -> Any:
        return inst.payload

    def op(self, m: SimpleNamespace, arg: Any) -> Any:
        raise NotImplementedError

    def canonical(self, m: SimpleNamespace, inst: Instance, out: Any) -> str:
        raise NotImplementedError

    def check(self, m: SimpleNamespace, inst: Instance, out: Any) -> str | None:
        ref = self.reference.get(inst.key)
        if ref is not None and digest(self.canonical(m, inst, out)) != ref:
            return "output digest differs from the reference"
        return None

    def arrangements(self, m: SimpleNamespace) -> list[tuple[str, Any]]:
        """Arrangement seeds 0.. of every shape in the spec, with their keys."""
        out = []
        for shape in self.spec["shapes"]:
            d, n, k, central = shape["d"], shape["n"], shape["k"], shape["central"]
            for s in range(1 if self.tiny else shape["seeds"]):
                arr = m.cli.generate_random_arrangement(s, d, n, k, central=central)
                out.append((f"d{d}-n{n}-k{k}-{'c' if central else 'a'}-s{s}", arr))
        return out


class CorpusWorkload(Workload):
    """One op is ``cli.corpus_instance_report(s)`` for corpus seeds 0.. ."""

    name = "corpus"

    def setup(self, m: SimpleNamespace) -> None:
        count = self.spec["tiny_seeds"] if self.tiny else self.spec["seeds"]
        self.instances = [Instance(str(s), s) for s in range(count)]
        m.cli.corpus_instance_report(WARMUP_SEED)

    def op(self, m: SimpleNamespace, arg: int) -> dict:
        return m.cli.corpus_instance_report(arg)

    def canonical(self, m, inst, out) -> str:
        return json.dumps(out, sort_keys=True)

    def check(self, m, inst, out) -> str | None:
        if not out.get("ok"):
            return "corpus instance report is not ok"
        return super().check(m, inst, out)


class RealizeWorkload(Workload):
    """One op is ``realize.covectors_with_witnesses(arr)``."""

    name = "realize"

    def setup(self, m: SimpleNamespace) -> None:
        self.instances = [
            Instance(key, (arr, m.realize.arrangement_to_json(arr)))
            for key, arr in self.arrangements(m)
        ]
        warm = m.cli.generate_random_arrangement(WARMUP_SEED, 2, 4, 1)
        m.realize.covectors_with_witnesses(warm)

    def fresh_input(self, m, inst):
        return m.realize.parse_arrangement_json(inst.payload[1])

    def op(self, m, arr):
        return m.realize.covectors_with_witnesses(arr)

    def canonical(self, m, inst, out) -> str:
        arr = inst.payload[0]
        return "\n".join(m.core.Com(arr.n, (x for x, _ in out)).words())

    def check(self, m, inst, out) -> str | None:
        arr = inst.payload[0]
        words = [x.word() for x, _ in out]
        if len(set(words)) != len(words):
            return "duplicate covectors"
        for x, p in out:
            if m.realize.sign_vector_at_point(arr, p) != x:
                return f"witness point does not realize {x.word()}"
        return super().check(m, inst, out)


class VerifyWorkload(Workload):
    """One op is ``cli.full_verify(L)`` then ``rings.presentation(L, "rees",
    reduced=True)`` on a covector set realized during setup."""

    name = "verify"

    def setup(self, m: SimpleNamespace) -> None:
        self.instances = []
        for key, arr in self.arrangements(m):
            L = m.realize.covectors(arr)
            self.instances.append(Instance(key, (arr, L.n, L.words())))
        warm = m.realize.covectors(m.cli.generate_random_arrangement(WARMUP_SEED, 2, 4, 1))
        m.cli.full_verify(warm)
        m.rings.presentation(warm, "rees", reduced=True)

    def prepare_checks(self, m: SimpleNamespace) -> None:
        """Circuits of every input from the geometric, independent route."""
        self.geometric = {
            inst.key: m.realize.geometric_circuits(inst.payload[0]).words()
            for inst in self.instances
        }

    def fresh_input(self, m, inst):
        _, n, words = inst.payload
        return m.core.Com.from_words(n, words)

    def op(self, m, L):
        ok, report = m.cli.full_verify(L)
        return ok, report, m.rings.presentation(L, "rees", reduced=True)

    def canonical(self, m, inst, out) -> str:
        _, report, pres = out
        return json.dumps(report, sort_keys=True) + "\n" + "\n".join(pres.text_lines())

    def check(self, m, inst, out) -> str | None:
        ok, report, _ = out
        if not ok or not report.get("ok"):
            return "full_verify report is not ok"
        if report.get("circuits") != self.geometric[inst.key]:
            return "circuits differ from geometric_circuits"
        return super().check(m, inst, out)


WORKLOADS = {w.name: w for w in (CorpusWorkload, RealizeWorkload, VerifyWorkload)}


def make(name: str, tiny: bool = False) -> Workload:
    return WORKLOADS[name](SPEC["workloads"][name], tiny)
