"""Command line front end.

Subcommands wire files to library operations; ``verify`` prints the
report of ``verify.full_verify`` for one covector set, and ``corpus``
runs the verification corpus of ``verify.corpus_instance_report`` over
a range of seeds.  Every other subcommand reads its input file once:
``realize`` parses it as an arrangement and writes the covector set as
JSON, the rest parse it as a covector set, and an ``--order`` is checked
against that ground set once, before the library is called.  Exit codes:
0 success, 1 verification failure, 2 input or usage error, 3 internal
error.  Input errors are a command line argparse rejects, a file that
cannot be read, decoded as UTF-8 or parsed, and a ``minors`` element or
``--order`` that does not fit the input's ground set.  Any other
exception is a fault of this package: it exits 3 naming the subcommand,
with the traceback on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor

from .circuits import circuits
from .core import ComFormatError, axiom_witness, com_to_json, elements, parse_com_json, topes
from .minors import contract, delete, label_map
from .nbc import LinearOrder, nbc_sets
from .realize import ArrangementFormatError, covectors, parse_arrangement_json
from .rings import hilbert_series, presentation
from .verify import witness_json

# perfbench/ calls these three through this module, so they stay bound here.
from .verify import corpus_instance_report, full_verify, generate_random_arrangement  # noqa: F401


def _emit(data: dict[str, object], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(data, indent=2)
    lines = []
    for key, value in data.items():
        lines.append(f"{key}: {json.dumps(value)}")
    return "\n".join(lines)


def run(argv: list[str] | None = None) -> tuple[int, str]:
    """Parse argv and execute one subcommand; returns (exit status,
    output text).  Bad usage exits 2 through argparse; bad input content
    returns status 2 with an error line, and an internal fault status 3."""
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ComFormatError, ArrangementFormatError, OSError, UnicodeDecodeError) as exc:
        return 2, f"error: {exc}"
    except Exception as exc:
        traceback.print_exc()
        return 3, f"internal error in {args.subcommand}: {type(exc).__name__}: {exc}"


def _dispatch(args: argparse.Namespace) -> tuple[int, str]:
    cmd = args.subcommand
    if cmd == "corpus":
        return _corpus(args)
    with open(args.input, encoding="utf-8") as fh:
        text = fh.read()
    if cmd == "realize":
        return 0, com_to_json(covectors(parse_arrangement_json(text)))
    L = parse_com_json(text)
    order = getattr(args, "order", None)
    if order is not None and order.n != L.n:
        return 2, f"error: --order has {order.n} elements, the ground set has {L.n}"
    fmt = args.format

    if cmd == "check":
        w = axiom_witness(L)
        if w is None:
            return 0, _emit({"ok": True, "n": L.n, "covectors": len(L)}, fmt)
        return 1, _emit({"ok": False, "witness": witness_json(w)}, fmt)

    if cmd == "topes":
        return 0, _emit({"n": L.n, "topes": [t.word() for t in topes(L)]}, fmt)

    if cmd == "circuits":
        C = circuits(L)
        return 0, _emit(
            {
                "n": L.n,
                "circuits": C.words(),
                "minimal_deficient_supports": [
                    elements(s) for s in C.minimal_deficient_supports
                ],
            },
            fmt,
        )

    if cmd == "nbc":
        fam = nbc_sets(L, order)
        return 0, _emit(
            {"sets": [elements(s) for s in fam.sets], "counts": list(fam.counts)}, fmt
        )

    if cmd == "minors":
        deleting = args.delete_element is not None
        i = args.delete_element if deleting else args.contract_element
        if not 0 <= i < L.n:
            return 2, f"error: element {i} is not in the ground set of size {L.n}"
        M = delete(L, i) if deleting else contract(L, i)
        return 0, _emit(
            {
                "n": M.n,
                "covectors": M.words(),
                "label_map": {str(k): v for k, v in sorted(label_map(L.n, i).items())},
            },
            fmt,
        )

    if cmd == "hilbert":
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
        pres = presentation(
            L, args.mode, reduced=args.reduced, symmetric=args.symmetric
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

    # verify, the one subcommand left that the parser admits.
    ok, report = full_verify(L)
    return (0 if ok else 1), _emit(report, fmt)


def _corpus(args: argparse.Namespace) -> tuple[int, str]:
    seeds = range(args.start_seed, args.start_seed + args.count)
    # The pool starts all its workers at once; more than there are
    # CPUs or seeds would only sit idle.
    jobs = min(args.jobs, os.cpu_count() or 1, args.count)
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
    if args.format == "json":
        summary["results"] = results
    return (0 if ok else 1), _emit(summary, args.format)


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


def _order(text: str) -> LinearOrder:
    """An --order value: a permutation of the ground set like 2,0,1."""
    try:
        return LinearOrder(tuple(int(v) for v in text.split(",")))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad order {text!r}") from None


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive integer")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="comring",
        description="Exact computations for conditional oriented matroids",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name: str, formats: tuple[str, ...] = ("json", "text"), default: str = "json"):
        p = sub.add_parser(name)
        if name != "corpus":
            p.add_argument("input", help="input file path")
        if formats:
            p.add_argument("--format", choices=formats, default=default)
        return p

    add("check")
    add("topes")
    add("circuits")
    p = add("nbc")
    p.add_argument("--order", type=_order, help="permutation like 2,0,1")
    one = add("minors").add_mutually_exclusive_group(required=True)
    one.add_argument("--delete", type=int, dest="delete_element")
    one.add_argument("--contract", type=int, dest="contract_element")
    # realize always writes the JSON covector set that the others read.
    add("realize", formats=())
    p = add("hilbert")
    p.add_argument("--order", type=_order, help="permutation like 2,0,1")
    p = add("presentation", ("json", "text", "script"), "text")
    p.add_argument("--mode", choices=("rees", "gr", "vg"), default="rees")
    p.add_argument("--reduced", action="store_true")
    p.add_argument("--symmetric", action="store_true")
    add("verify")
    p = add("corpus")
    p.add_argument("--count", type=_positive_int, default=100)
    p.add_argument("--start-seed", type=int, default=0, dest="start_seed")
    p.add_argument("--jobs", type=_positive_int, default=1)
    return parser


def main(argv: list[str] | None = None) -> int:
    status, output = run(argv)
    print(output)
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
