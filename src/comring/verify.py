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
    ring presentation.
    """
    report: dict[str, object] = {"n": L.n, "covectors": len(L)}
    w = axiom_witness(L)
    if w is not None:
        report["witness"] = witness_json(w)
        report["is_com"] = False
        return False, report
    report["is_com"] = True

    C = circuits(L)
    report["circuits"] = C.words()
    supports = C.minimal_deficient_supports
    antichain = all(a & b != a for a in supports for b in supports if a != b)
    # The composition of all covectors is a covector whose support is
    # every element but the coloops; call the covectors of that support
    # widest (the topes, unless there are coloops).  A covector Y extends X
    # exactly when the widest covector Y o T does, for any widest T.  So
    # the generator test scans the widest covectors, not the column index
    # that the circuits come from.
    cl = coloops(L)
    support = ((1 << L.n) - 1) & ~cl
    widest = [(v.plus, v.minus) for v in L.covectors if v.support == support]
    circuits_ok = antichain and all(
        all(x.plus & ~p or x.minus & ~m for p, m in widest) for x in C.circuits
    )
    if not circuits_ok:
        report["circuits_failed_at"] = next(
            x.word()
            for x in C.circuits
            if any(s & x.support == s != x.support for s in supports)
            or not all(x.plus & ~p or x.minus & ~m for p, m in widest)
        )
    report["circuits_ok"] = circuits_ok

    report["n_topes"] = len(topes(L))
    report["nbc_counts"] = list(nbc_sets(L).counts)
    report["nbc_tope_ok"] = verify_nbc_tope(L)

    recursions_ok = True
    for i in range(L.n):
        if cl >> i & 1:
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

    disjoint_failed_at = verify_disjoint_covector(L)
    if disjoint_failed_at is not None:
        report["disjoint_covector_failed_at"] = disjoint_failed_at.word()
    report["disjoint_covector_ok"] = disjoint_failed_at is None
    lift_failed_at = next((i for i in range(L.n) if verify_lift(L, i) is not None), None)
    if lift_failed_at is not None:
        report["lift_failed_at"] = lift_failed_at
    report["lifts_ok"] = lift_failed_at is None

    boolean_ok = True
    small = [0] + [1 << i for i in range(L.n)]
    small += [1 << i | 1 << j for i in range(L.n) for j in range(i + 1, L.n)]
    for J in small:
        if any(s & J == s for s in supports):
            continue
        if not verify_boolean_extension(L, J):
            boolean_ok = False
            report["boolean_extension_failed_at"] = elements(J)
            break
    report["boolean_extension_ok"] = boolean_ok

    if is_oriented_matroid(L):
        om = om_circuits(L).circuits
        if om != C.circuits:
            report["om_cross_check_failed_at"] = min(
                set(om) ^ set(C.circuits), key=SignVector.sort_key
            ).word()
        report["om_cross_check_ok"] = om == C.circuits

    presentation_ok = False
    if report["nbc_tope_ok"]:
        pres = verify_presentation(L)
        report["nbc_det"] = pres.nbc_det
        if pres.kernel_failed_at is not None:
            report["kernel_failed_at"] = pres.kernel_failed_at.word()
        report["kernel_ok"] = pres.kernel_ok
        if pres.filtration_failed_at is not None:
            report["filtration_failed_at"] = elements(pres.filtration_failed_at)
        report["filtration_ok"] = pres.membership_ok
        presentation_ok = pres.ok
    report["presentation_ok"] = presentation_ok

    ok = all(report[key] for key in _CHECK_KEYS)
    ok = ok and report.get("om_cross_check_ok", True)
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
    is verified once and its report fills every slot it occupies.
    """
    arr = corpus_arrangement(seed)
    L = covectors(arr)
    ok, report = full_verify(L)
    minor_checks = {key: True for key in _CHECK_KEYS}
    om_runs = 1 if "om_cross_check_ok" in report else 0
    om_ok = report.get("om_cross_check_ok", True)
    failing = []
    verified: dict[int, tuple[bool, dict[str, object]]] = {}
    for i in range(L.n):
        for kind, M in (("delete", delete(L, i)), ("contract", contract(L, i))):
            if id(M) not in verified:
                verified[id(M)] = full_verify(M)
            sub_ok, sub = verified[id(M)]
            ok = ok and sub_ok
            for key in _CHECK_KEYS:
                minor_checks[key] = minor_checks[key] and sub.get(key, True)
            if "om_cross_check_ok" in sub:
                om_runs += 1
                om_ok = om_ok and sub["om_cross_check_ok"]
            if not sub_ok:
                failing.append({"element": i, "kind": kind, "report": sub})
    out: dict[str, object] = {
        "seed": seed,
        "dim": arr.dim,
        "n": L.n,
        "ok": ok,
        "n_covectors": len(L),
        "n_topes": report.get("n_topes"),
        "report": report,
        "minor_checks": minor_checks,
        "om_runs": om_runs,
        "om_ok": om_ok,
    }
    if failing:
        out["failing_minors"] = failing
    return out
