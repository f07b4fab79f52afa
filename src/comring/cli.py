"""Command line front end.

Subcommands wire files to library operations; ``verify`` prints the
report of ``verify.full_verify`` for one covector set, and ``corpus``
runs the verification corpus of ``verify.corpus_instance_report`` over
a range of seeds.  Exit codes: 0 success, 1 verification failure, 2
input or usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .circuits import circuits
from .core import Com, ComFormatError, axiom_witness, com_to_json, parse_com_json, topes
from .minors import contract, delete, label_map
from .nbc import LinearOrder, nbc_sets
from .realize import Arrangement, ArrangementFormatError, covectors, parse_arrangement_json
from .rings import hilbert_series, presentation
from .verify import witness_json

# perfbench/ calls these three through this module, so they stay bound here.
from .verify import corpus_instance_report, full_verify, generate_random_arrangement  # noqa: F401


@dataclass
class RunConfig:
    """Parsed invocation; one field per flag that any subcommand uses."""

    subcommand: str
    input_path: str | None = None
    order: tuple[int, ...] | None = None
    delete_element: int | None = None
    contract_element: int | None = None
    mode: str = "rees"
    reduced: bool = False
    symmetric: bool = False
    count: int = 100
    start_seed: int = 0
    jobs: int = 1
    output_format: str = "json"


def _load_com(path: str) -> Com:
    with open(path, encoding="utf-8") as fh:
        return parse_com_json(fh.read())


def _load_arrangement(path: str) -> Arrangement:
    with open(path, encoding="utf-8") as fh:
        return parse_arrangement_json(fh.read())


def _emit(data: dict[str, object], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(data, indent=2)
    lines = []
    for key, value in data.items():
        lines.append(f"{key}: {json.dumps(value)}")
    return "\n".join(lines)


def run(config: RunConfig) -> tuple[int, str]:
    """Execute one subcommand; returns (exit status, output text)."""
    try:
        return _dispatch(config)
    except (ComFormatError, ArrangementFormatError, OSError, ValueError) as exc:
        return 2, f"error: {exc}"


def _dispatch(config: RunConfig) -> tuple[int, str]:
    cmd = config.subcommand
    fmt = config.output_format

    if cmd == "check":
        L = _load_com(config.input_path)
        w = axiom_witness(L)
        if w is None:
            return 0, _emit({"ok": True, "n": L.n, "covectors": len(L)}, fmt)
        return 1, _emit({"ok": False, "witness": witness_json(w)}, fmt)

    if cmd == "topes":
        L = _load_com(config.input_path)
        return 0, _emit({"n": L.n, "topes": [t.word() for t in topes(L)]}, fmt)

    if cmd == "circuits":
        L = _load_com(config.input_path)
        C = circuits(L)
        return 0, _emit(
            {
                "n": L.n,
                "circuits": C.words(),
                "minimal_deficient_supports": [
                    sorted(s) for s in C.minimal_deficient_supports
                ],
            },
            fmt,
        )

    if cmd == "nbc":
        L = _load_com(config.input_path)
        order = LinearOrder(config.order) if config.order else None
        fam = nbc_sets(L, order)
        return 0, _emit(
            {"sets": [sorted(s) for s in fam.sets], "counts": list(fam.counts)}, fmt
        )

    if cmd == "minors":
        L = _load_com(config.input_path)
        if (config.delete_element is None) == (config.contract_element is None):
            return 2, "error: exactly one of --delete/--contract is required"
        if config.delete_element is not None:
            i, M = config.delete_element, delete(L, config.delete_element)
        else:
            i, M = config.contract_element, contract(L, config.contract_element)
        return 0, _emit(
            {
                "n": M.n,
                "covectors": M.words(),
                "label_map": {str(k): v for k, v in sorted(label_map(L.n, i).items())},
            },
            fmt,
        )

    if cmd == "realize":
        arr = _load_arrangement(config.input_path)
        return 0, com_to_json(covectors(arr))

    if cmd == "hilbert":
        L = _load_com(config.input_path)
        order = LinearOrder(config.order) if config.order else None
        coeffs = hilbert_series(L, order)
        return 0, _emit(
            {
                "coefficients": list(coeffs),
                "interpretation": "coefficient k is the rank of filtration step k; "
                "for realized instances, the 2k-th Betti number of the "
                "complexified complement model",
            },
            fmt,
        )

    if cmd == "presentation":
        L = _load_com(config.input_path)
        pres = presentation(
            L, config.mode, reduced=config.reduced, symmetric=config.symmetric
        )
        if fmt == "text":
            return 0, "\n".join(pres.text_lines())
        if fmt == "script":
            return 0, _presentation_script(pres)
        return 0, json.dumps(
            {
                "mode": pres.mode,
                "variables": list(pres.variables),
                "degrees": list(pres.degrees),
                "metadata": pres.metadata,
                "relations": [
                    {
                        "tag": r.tag,
                        "source": r.source.word() if r.source else None,
                        "terms": [[c, list(e)] for e, c in r.poly.terms],
                        "text": r.poly.render(list(pres.variables)),
                    }
                    for r in pres.relations
                ],
            },
            indent=2,
        )

    if cmd == "verify":
        L = _load_com(config.input_path)
        ok, report = full_verify(L)
        return (0 if ok else 1), _emit(report, fmt)

    if cmd == "corpus":
        seeds = range(config.start_seed, config.start_seed + config.count)
        # The pool starts all its workers at once; more than there are
        # CPUs or seeds would only sit idle.
        jobs = min(config.jobs, os.cpu_count() or 1, config.count)
        if jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(corpus_instance_report, seeds))
        else:
            results = [corpus_instance_report(s) for s in seeds]
        ok = all(r["ok"] for r in results)
        summary: dict[str, object] = {
            "instances": len(results),
            "ok": ok,
            "failures": [r for r in results if not r["ok"]],
        }
        if fmt == "json":
            summary["results"] = results
        return (0 if ok else 1), _emit(summary, fmt)

    return 2, f"error: unknown subcommand {cmd!r}"


def _presentation_script(pres) -> str:
    """A generic computer algebra session constructing the quotient ring."""
    names = [v.replace("+", "p").replace("-", "m") for v in pres.variables]
    lines = [
        "# Generic computer algebra script; paste into a system with",
        "# polynomial quotient rings over the integers.",
        f"R = PolynomialRing(ZZ, {names!r})",
        f"{', '.join(names)} = R.gens()",
        "relations = [",
    ]
    rendered = [r.poly.render(names) for r in pres.relations]
    lines += [f"    {text}," for text in rendered]
    lines += ["]", "Q = R.quotient(R.ideal(relations))"]
    return "\n".join(lines)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="comring",
        description="Exact computations for conditional oriented matroids",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name: str, with_input: bool = True, fmt_default: str = "json"):
        p = sub.add_parser(name)
        if with_input:
            p.add_argument("input", help="input file path")
        p.add_argument(
            "--format",
            choices=("json", "text", "script") if name == "presentation" else ("json", "text"),
            default=fmt_default,
        )
        return p

    add("check")
    add("topes")
    add("circuits")
    p = add("nbc")
    p.add_argument("--order", help="permutation like 2,0,1")
    p = add("minors")
    p.add_argument("--delete", type=int, dest="delete_element")
    p.add_argument("--contract", type=int, dest="contract_element")
    add("realize")
    p = add("hilbert")
    p.add_argument("--order", help="permutation like 2,0,1")
    p = add("presentation", fmt_default="text")
    p.add_argument("--mode", choices=("rees", "gr", "vg"), default="rees")
    p.add_argument("--reduced", action="store_true")
    p.add_argument("--symmetric", action="store_true")
    add("verify")
    p = add("corpus", with_input=False)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--start-seed", type=int, default=0, dest="start_seed")
    p.add_argument("--jobs", type=int, default=1)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    order = None
    if getattr(args, "order", None):
        try:
            order = tuple(int(v) for v in args.order.split(","))
        except ValueError:
            raise ComFormatError(f"bad order {args.order!r}")
    return RunConfig(
        subcommand=args.subcommand,
        input_path=getattr(args, "input", None),
        order=order,
        delete_element=getattr(args, "delete_element", None),
        contract_element=getattr(args, "contract_element", None),
        mode=getattr(args, "mode", "rees"),
        reduced=getattr(args, "reduced", False),
        symmetric=getattr(args, "symmetric", False),
        count=getattr(args, "count", 100),
        start_seed=getattr(args, "start_seed", 0),
        jobs=getattr(args, "jobs", 1),
        output_format=getattr(args, "format", "json"),
    )


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
    except ComFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    status, output = run(config)
    print(output)
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
