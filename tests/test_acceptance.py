"""Acceptance criteria, one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.

Criterion 1 checks the worked quadrilateral example of the source paper
against the shipped fixture.  The paper's circuit list,
``DOCUMENTED_CIRCUITS``, is internally inconsistent: no covector set on
four elements satisfying the composition axiom has those circuits, which
``test_documented_circuit_list_is_unrealizable`` proves by exhaustive
search.  Its fourth relation, (e0 - u) e2 e3, is not e_X of its own
circuit (-,+,0,+) either.  Criterion 1 therefore asserts
``CORRECTED_CIRCUITS``, the documented list with (-,+,0,+) replaced by
(-,+,0,-), and the relation e_X = (e0 - u) e1 (e3 - u) of that circuit.
The search rejects only (-,+,0,+) among the eight sign patterns on
support {0,1,3}, so it does not make (-,+,0,-) the unique repair; it is
the list ``fixtures/ex4.json`` realizes, as ``circuits``, the brute-force
oracle of ``test_circuits`` and ``geometric_circuits`` in
``test_realize`` all agree.
"""

import json
import time
from itertools import product

from comring.circuits import circuits
from comring.cli import run
from comring.core import Com, SignVector, compose, is_com, topes
from comring.exactalg import determinant
from comring.nbc import nbc_sets
from comring.rings import MPoly, hilbert_series, nbc_basis_matrix, presentation

V = SignVector.from_word


def _report(k: int, name: str, ok: bool) -> bool:
    print(f"criterion {k} ({name}): {'PASS' if ok else 'FAIL'}")
    return ok


def _poly_key(poly):
    return frozenset(poly.normalized_sign().terms)


def _expand(nvars, *factors):
    """Product of linear factors given as {var index: coeff} dicts."""
    acc = MPoly.const(nvars, 1)
    for f in factors:
        acc = acc * MPoly.of(nvars, {tuple(int(j == v) for j in range(nvars)): c for v, c in f.items()})
    return acc


def _mismatch(what, got, want):
    """Name what ``want`` has and ``got`` lacks, and the reverse.

    Both map a comparison key to the string shown for it.
    """
    out = []
    for label, keys, side in (
        ("missing", want.keys() - got.keys(), want),
        ("extra", got.keys() - want.keys(), got),
    ):
        if keys:
            out.append(f"{label} {what}: " + ", ".join(sorted(side[k] for k in keys)))
    return out


# The quadrilateral's Rees generators, 0-based: e0+ .. e3+ are variables
# 0..3 and u is variable 4.
QUAD_NVARS = 5
QUAD_U = 4

# The paper's circuit list and the product it gives for the last circuit.
DOCUMENTED_CIRCUITS = frozenset({"+-+0", "-+-0", "00+-", "-+0+"})
DOCUMENTED_FOURTH_RELATION = _expand(QUAD_NVARS, {0: 1, QUAD_U: -1}, {2: 1}, {3: 1})

# The same with (-,+,0,+) replaced by (-,+,0,-), and that circuit's e_X,
# (e0 - u) e1 (e3 - u).
CORRECTED_CIRCUITS = (DOCUMENTED_CIRCUITS - {"-+0+"}) | {"-+0-"}
CORRECTED_FOURTH_RELATION = _expand(
    QUAD_NVARS, {0: 1, QUAD_U: -1}, {1: 1}, {3: 1, QUAD_U: -1}
)


def _e_X(word):
    """e_X = prod_{X+} e_i^+ * prod_{X-} (e_i^+ - u), as in ``comring.rings``."""
    return _expand(
        QUAD_NVARS,
        *(
            {i: 1} if s == "+" else {i: 1, QUAD_U: -1}
            for i, s in enumerate(word)
            if s != "0"
        ),
    )


def test_criterion_1_documented_quadrilateral(ex4):
    t0 = time.perf_counter()
    C = circuits(ex4)
    pres = presentation(ex4, "rees", reduced=True)
    elapsed = time.perf_counter() - t0

    problems = _mismatch(
        "circuits", {w: w for w in C.words()}, {w: w for w in CORRECTED_CIRCUITS}
    )

    # expected relations: e_i(u - e_i); the pair expansion
    # e0 e1 - e0 e2 + e1 e2 - u e1; e2 (e3 - u); (e0 - u) e1 (e3 - u)
    nv = QUAD_NVARS
    u = {QUAD_U: 1}
    e = [{i: 1} for i in range(4)]
    expected = [
        _expand(nv, e[i]) * (_expand(nv, u) - _expand(nv, e[i])) for i in range(4)
    ]
    expected.append(
        _expand(nv, e[0], e[1])
        - _expand(nv, e[0], e[2])
        + _expand(nv, e[1], e[2])
        - _expand(nv, u, e[1])
    )
    expected.append(_expand(nv, e[2]) * (_expand(nv, e[3]) - _expand(nv, u)))
    expected.append(CORRECTED_FOURTH_RELATION)
    names = list(pres.variables)

    def keyed(polys):
        return {_poly_key(p): p.normalized_sign().render(names) for p in polys}

    problems += _mismatch(
        "relations", keyed(r.poly for r in pres.relations), keyed(expected)
    )
    if elapsed >= 1.0:
        problems.append(f"elapsed {elapsed:.3f} s, budget 1.0 s")

    ok = _report(1, "documented quadrilateral example", not problems)
    assert ok, "; ".join(problems)


def test_documented_circuit_list_is_unrealizable():
    """No covector set with the documented circuits satisfies composition.

    If one existed, minimality of the deficient supports {0,1,2} and
    {0,1,3} would force covectors V, U, B realizing the patterns (-,+)
    on {0,1}, (+,+) on {1,2} and (-,+) on {0,3}.  Covectors never extend
    a circuit and are closed under composition, yet every candidate
    triple composes to a vector extending a documented circuit.  The
    same search accepts the corrected list, which is what the shipped
    fixture realizes; it would also accept the six other sign patterns
    on {0,1,3}, so it shows only that (-,+,0,+) is wrong.  The
    documented fourth relation (e0 - u) e2 e3 is not e_X of (-,+,0,+)
    either, while the corrected (e0 - u) e1 (e3 - u) is e_X of (-,+,0,-).
    """

    def extends_some(v, cs):
        return any(
            c.plus & ~v.plus == 0 and c.minus & ~v.minus == 0 for c in cs
        )

    def candidates(cs, pattern):
        out = []
        for signs in product((-1, 0, 1), repeat=4):
            v = SignVector.from_signs(signs)
            if any(v.sign(i) != s for i, s in pattern.items()):
                continue
            if not extends_some(v, cs):
                out.append(v)
        return out

    def refuted(words):
        cs = [V(w) for w in words]
        vs = candidates(cs, {0: -1, 1: 1})
        us = candidates(cs, {1: 1, 2: 1})
        bs = candidates(cs, {0: -1, 3: 1})
        if not (vs and us and bs):
            return True
        return all(
            extends_some(compose(compose(x, y), z), cs)
            for x in vs
            for y in us
            for z in bs
        )

    assert refuted(DOCUMENTED_CIRCUITS)
    assert not refuted(CORRECTED_CIRCUITS)
    assert (
        _poly_key(_e_X("-+0+")) != _poly_key(DOCUMENTED_FOURTH_RELATION)
        and _poly_key(_e_X("-+0-")) == _poly_key(CORRECTED_FOURTH_RELATION)
    )


def test_criterion_2_corpus_theorem_suite(corpus_results):
    elapsed, results = corpus_results
    ok = len(results) >= 100 and elapsed < 300
    for r in results:
        checks, minors = r["report"], r["minor_checks"]
        for scope in (checks, minors):
            ok = ok and scope["is_com"] and scope["nbc_tope_ok"] and scope["recursions_ok"]
    assert _report(2, "corpus counting recursions", ok)


def test_criterion_3_corpus_presentation(corpus_results):
    _, results = corpus_results
    ok = len(results) >= 100
    for r in results:
        checks = r["report"]
        ok = (
            ok
            and checks["presentation_ok"]
            and checks["kernel_ok"]
            and checks["filtration_ok"]
            and abs(checks["nbc_det"]) == 1
            and r["minor_checks"]["presentation_ok"]
        )
    assert _report(3, "corpus presentation verification", ok)


def test_criterion_4_om_cross_check(corpus_results):
    _, results = corpus_results
    runs = sum(r["om_runs"] for r in results)
    ok = runs > 0 and all(r["om_ok"] for r in results)
    assert _report(4, "oriented matroid circuit cross check", ok)


def test_criterion_5_planar_goldens(gen3):
    fam = nbc_sets(gen3)
    ok = (
        len(gen3) == 13
        and len(topes(gen3)) == 6
        and set(circuits(gen3).words()) == {"++-", "--+"}
        and fam.counts == (1, 3, 2)
        and hilbert_series(gen3) == (1, 3, 2)
        and abs(determinant(nbc_basis_matrix(gen3))) == 1
    )
    assert _report(5, "planar fixture golden values", ok)


def test_criterion_6_negative_controls(tmp_path):
    se_path = tmp_path / "se.json"
    se_path.write_text('{"n": 1, "covectors": ["+", "-"]}')
    status_se, out_se = run(["check", str(se_path)])
    w_se = json.loads(out_se).get("witness", {})
    fs_path = tmp_path / "fs.json"
    fs_path.write_text('{"n": 2, "covectors": ["00", "++"]}')
    status_fs, out_fs = run(["check", str(fs_path)])
    w_fs = json.loads(out_fs).get("witness", {})
    ok = (
        status_se == 1
        and w_se.get("kind") == "se-violation"
        and w_se.get("i") == 0
        and status_fs == 1
        and w_fs.get("kind") == "fs-violation"
    )
    assert _report(6, "negative controls", ok)


def test_criterion_7_degenerate_cases():
    empty = Com(2, [])
    zero_only = Com.from_words(1, ["0"])
    ok = (
        is_com(empty)
        and circuits(empty).words() == ["00"]
        and len(nbc_sets(empty)) == 0
        and len(topes(empty)) == 0
        and is_com(zero_only)
        and circuits(zero_only).words() == ["-", "+"]
        and len(nbc_sets(zero_only)) == 0
        and len(topes(zero_only)) == 0
    )
    assert _report(7, "degenerate cases", ok)


def test_criterion_8_boolean_extension(corpus_results):
    _, results = corpus_results
    ok = len(results) >= 100 and all(
        r["report"]["boolean_extension_ok"] and r["minor_checks"]["boolean_extension_ok"]
        for r in results
    )
    assert _report(8, "boolean extension on the corpus", ok)
