"""The per-instance verification suite and the seeded verification corpus.

``full_verify`` runs every instance-level theorem check on one covector
set and aggregates the results into a JSON-ready report; the corpus
runs it over a stream of seeded random arrangements and all of their
single element minors.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .circuits import circuits, om_circuits
from .core import (
    AxiomWitness, Com, SignVector, axiom_witness, coloops, elements, is_oriented_matroid, topes
)
from .minors import (
    contract,
    delete,
    extended_circuit,
    verify_boolean_extension,
    verify_disjoint_covector,
    verify_lift,
    verify_tope_recursion,
)
from .nbc import nbc_sets, order_with_maximum, verify_nbc_recursion, verify_nbc_tope
from .realize import Arrangement, Hyperplane, OpenRegion, covectors, region_point
from .rings import verify_presentation

# Report keys of the checks that every instance must pass; a report
# carries the later ones only when the input is a COM.
_CHECK_KEYS = (
    "is_com",
    "circuits_ok",
    "nbc_tope_ok",
    "recursions_ok",
    "disjoint_covector_ok",
    "lifts_ok",
    "boolean_extension_ok",
    "presentation_ok",
)


def witness_json(w: AxiomWitness) -> dict[str, object]:
    """An axiom witness as a JSON object; "i" only for strong elimination."""
    out: dict[str, object] = {"kind": w.kind, "x": w.x.word(), "y": w.y.word()}
    if w.i is not None:
        out["i"] = w.i
    return out


def full_verify(L: Com) -> tuple[bool, dict[str, object]]:
    """Every instance-level check, aggregated into a report.

    Covers the axioms, circuit structure, the NBC/tope count identity,
    both minor recursions at every non-coloop element, the disjoint
    covector and lift properties, boolean extension on all small
    circuit-free subsets, the oriented-matroid circuit cross check when
    the zero covector is present, and the evaluation checks behind the
    ring presentation, whose kernel check shares the generator test of
    ``circuits_ok``, ``extended_circuit``.

    Each check finds its first witness once, and its verdict follows from
    it: ``record`` writes ``<key>_failed_at`` only when there is a witness,
    then the verdict, so a False key always follows the witness it names.
    """
    report: dict[str, object] = {"n": L.n, "covectors": len(L)}

    def record(key: str, failed_at: object, ok_key: str = "") -> None:
        """The witness (a sign vector as its word), if any, then the verdict."""
        if failed_at is not None:
            if isinstance(failed_at, SignVector):
                failed_at = failed_at.word()
            report[f"{key}_failed_at"] = failed_at
        report[ok_key or f"{key}_ok"] = failed_at is None

    w = axiom_witness(L)
    if w is not None:
        report["witness"] = witness_json(w)
        report["is_com"] = False
        return False, report
    report["is_com"] = True

    C = circuits(L)
    report["circuits"] = C.words()
    supports = C.minimal_deficient_supports
    holding = {b for b in supports for a in supports if a & b == a != b}
    ext = extended_circuit(L)
    record("circuits", next((x for x in C.circuits if x.support in holding or x == ext), None))

    report["n_topes"] = len(topes(L))
    report["nbc_counts"] = list(nbc_sets(L).counts)
    report["nbc_tope_ok"] = verify_nbc_tope(L)

    recursions_ok = True
    for i in range(L.n):
        if coloops(L) >> i & 1:
            continue
        if not verify_tope_recursion(L, i):
            recursions_ok = False
            report["tope_recursion_failed_at"] = i
            break
        if not verify_nbc_recursion(L, order_with_maximum(L.n, i)):
            recursions_ok = False
            report["nbc_recursion_failed_at"] = i
            break
    report["recursions_ok"] = recursions_ok

    record("disjoint_covector", verify_disjoint_covector(L))
    lift_failed_at = next((i for i in range(L.n) if verify_lift(L, i) is not None), None)
    record("lift", lift_failed_at, ok_key="lifts_ok")
    small = [0] + [1 << i for i in range(L.n)]
    small += [1 << i | 1 << j for i in range(L.n) for j in range(i + 1, L.n)]
    record("boolean_extension", next((
        elements(J) for J in small
        if not any(s & J == s for s in supports) and not verify_boolean_extension(L, J)
    ), None))

    if is_oriented_matroid(L):
        om = om_circuits(L).circuits
        diff = () if om == C.circuits else set(om) ^ set(C.circuits)
        record("om_cross_check", min(diff, key=SignVector.sort_key, default=None))

    presentation_ok = False
    if report["nbc_tope_ok"]:
        pres = verify_presentation(L)
        report["nbc_det"] = pres.nbc_det
        record("kernel", pres.kernel_failed_at)
        S = pres.filtration_failed_at
        record("filtration", None if S is None else elements(S))
        presentation_ok = pres.ok
    report["presentation_ok"] = presentation_ok

    ok = all(report[key] for key in _CHECK_KEYS) and report.get("om_cross_check_ok", True)
    report["ok"] = ok
    return ok, report


def generate_random_arrangement(
    seed: int, d: int = 2, n: int = 5, k_ineqs: int = 2, central: bool = False
) -> Arrangement:
    """Deterministic random arrangement with a nonempty open region.

    Coefficients are integers in [-5, 5] with zero normal vectors
    redrawn; with ``central`` every hyperplane passes through the
    origin, which guarantees an oriented matroid when the region is the
    whole space.  The region inequalities are redrawn wholesale until
    they are strictly feasible.  Raises ValueError when d < 1, since no
    normal vector is then nonzero.
    """
    if d < 1:
        raise ValueError("dimension must be at least 1")
    rng = random.Random(seed)

    def vec() -> tuple[Fraction, ...]:
        while True:
            v = tuple(Fraction(rng.randint(-5, 5)) for _ in range(d))
            if any(v):
                return v

    hyps = tuple(
        Hyperplane(vec(), Fraction(0) if central else Fraction(rng.randint(-5, 5)))
        for _ in range(n)
    )
    while True:
        rows = tuple(
            (vec(), Fraction(rng.randint(-5, 5))) for _ in range(k_ineqs)
        )
        arr = Arrangement(d, hyps, OpenRegion(rows))
        if region_point(arr) is not None:
            return arr


def corpus_arrangement(seed: int) -> Arrangement:
    """Fixed seed-to-instance policy for the verification corpus.

    Dimensions alternate between 2 and 3, ground sets between 3 and 6
    hyperplanes (at most 5 in dimension 3), regions carry up to 4
    strict inequalities, and every fifth seed is central with a full
    region so oriented matroids appear in the stream.
    """
    central = seed % 5 == 0
    d = 3 if seed % 3 == 2 else 2
    n = 3 + seed % 4
    if d == 3:
        n = min(n, 5)
    k = 0 if central else seed % 5
    return generate_random_arrangement(seed, d, n, k, central=central)


def corpus_instance_report(seed: int) -> dict[str, object]:
    """Verify one seeded arrangement and all its single element minors.

    Equal minors are one object (see ``minors``), so each distinct minor
    is verified once and its report fills every slot it occupies.  The
    loop only collects ``(element, kind, ok, report)`` per slot; the
    instance verdict, ``minor_checks``, the oriented-matroid tally and
    ``failing_minors`` all follow from that list and the root report.
    """
    arr = corpus_arrangement(seed)
    L = covectors(arr)
    root_ok, report = full_verify(L)
    verified: dict[int, tuple[bool, dict[str, object]]] = {}
    slots = []
    for i in range(L.n):
        for kind, M in (("delete", delete(L, i)), ("contract", contract(L, i))):
            if id(M) not in verified:
                verified[id(M)] = full_verify(M)
            slots.append((i, kind, *verified[id(M)]))
    subs = [sub for *_, sub in slots]
    om = [r["om_cross_check_ok"] for r in (report, *subs) if "om_cross_check_ok" in r]
    out: dict[str, object] = {
        "seed": seed,
        "dim": arr.dim,
        "n": L.n,
        "ok": root_ok and all(sub_ok for _, _, sub_ok, _ in slots),
        "n_covectors": len(L),
        "n_topes": report.get("n_topes"),
        "report": report,
        "minor_checks": {key: all(sub.get(key, True) for sub in subs) for key in _CHECK_KEYS},
        "om_runs": len(om),
        "om_ok": all(om),
    }
    failing = [
        {"element": i, "kind": kind, "report": sub}
        for i, kind, sub_ok, sub in slots
        if not sub_ok
    ]
    if failing:
        out["failing_minors"] = failing
    return out
