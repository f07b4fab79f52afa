"""Byte-identity of the command outputs that reports are compared on.

The digests are sha256 of the exact output text of ``run``, of the JSON
dump of the full corpus reports, of every presentation variant's text
and relation terms, and of the covector words, in walk order, of a wider
set of realized arrangements.  Any change to a reported value, to key order
or to formatting changes a digest, so refactors of the library must
leave these unchanged.
"""

import hashlib
import json
from itertools import product
from pathlib import Path

import pytest

from comring.cli import run
from comring.core import com_to_json
from comring.realize import covectors, covectors_with_witnesses, sign_vector_at_point
from comring.rings import presentation
from comring.verify import corpus_arrangement, full_verify, generate_random_arrangement

GOLDEN = {
    "verify ex4": "9e1093c64a8d68528b187376a7bbbb702ac430c64245e8da573d193c17b85a59",
    "verify gen3": "b04f730d822e78948e33a585acffe3185c49c16fefd65485aea70a7493e2671c",
    "presentation ex4": "b2036137175f957ba427c3eb8def359fa144c594f29b721c6b3a234e3449544f",
    "corpus 12": "ec3819fa5e0034785964e3ef7458d5573ad4820f53748eca52e5dd69b8f33d35",
    "realize ex4": "2c85ffa019e56c88d2d644a958606078514ecccb6444f6de33023f9e0132eec9",
    "realize gen3": "3c1fa62ce1fca634ce96ce3594fcf7e635e15ee651f6ef5b0c84913bdd8655f8",
    "corpus results 100": "5f8ebc6114393ba0d5bd1cfe2c296ab6c24b50371d154be7dff5e8031bec0902",
    "presentation variants": "d6298761d0d1fb7ddc54aaf6a6caad6e49af688fa671ae672cb5e86c3ae04ca8",
    "covector words": "57d248fe0cbe7b0b0f8cdf88ea1f5329a759ab6d870606accb647918289aa6a8",
    "verify d3-n8-k2-s0": "c967a160645ed25969fded2dac1dfbe46f1e1862873be81c2145cded2ca53558",
    "verify d3-n8-central-s0": "a83ae20fc8985253606a400df61d28de658b660898e2ac73adfc79a62294f28e",
    "verify d2-n9-k2-s0": "39e7c2ff0be9f1eb8e396b69165c74dc79c19eda490af645929d6af84b3a6fcb",
}

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def check_golden(key: str, status: int, out: str) -> None:
    assert status == 0, out
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == GOLDEN[key], f"{key} output changed:\n{out[:2000]}"


def com_file(tmp_path, request, name: str) -> str:
    path = tmp_path / f"{name}_com.json"
    path.write_text(com_to_json(request.getfixturevalue(name)))
    return str(path)


@pytest.mark.parametrize("name", ["ex4", "gen3"])
def test_realize_golden(name):
    path = str(FIXTURES / f"{name}.json")
    check_golden(f"realize {name}", *run(["realize", path]))


@pytest.mark.parametrize("name", ["ex4", "gen3"])
def test_verify_golden(tmp_path, request, name):
    path = com_file(tmp_path, request, name)
    check_golden(f"verify {name}", *run(["verify", path]))


def test_presentation_golden(tmp_path, request):
    path = com_file(tmp_path, request, "ex4")
    argv = ["presentation", path, "--mode", "rees", "--reduced", "--format", "json"]
    check_golden("presentation ex4", *run(argv))


def test_corpus_golden():
    check_golden("corpus 12", *run(["corpus", "--count", "12"]))


def test_full_corpus_results_golden(corpus_results):
    """Every report of corpus seeds 0-99, from the session fixture the
    acceptance tests share, so the corpus runs once per session."""
    _, results = corpus_results
    check_golden("corpus results 100", 0, json.dumps(results, indent=2))


def test_presentation_variants_golden(ex4, gen3):
    """All 12 mode x reduced x symmetric presentations of both fixtures."""
    dump = [
        {
            "variant": [name, mode, reduced, symmetric],
            "text": pres.text_lines(),
            "terms": [[[c, list(e)] for e, c in r.poly.terms] for r in pres.relations],
        }
        for name, L in (("ex4", ex4), ("gen3", gen3))
        for mode, reduced, symmetric in product(("rees", "gr", "vg"), (False, True), (False, True))
        for pres in [presentation(L, mode, reduced=reduced, symmetric=symmetric)]
    ]
    check_golden("presentation variants", 0, json.dumps(dump, indent=2))


# (d, n, region rows, central, seeds) of the benchmark's realize and
# verify workload arrangements; the verify set repeats seeds 0-1 of the
# first three shapes.
WORKLOAD_SHAPES = (
    (3, 8, 2, False, 5),
    (4, 6, 2, False, 5),
    (3, 8, 0, True, 5),
    (2, 9, 2, False, 3),
)


def test_covector_words_golden():
    """Covector words in walk order of corpus seeds 0-120 and the workload
    arrangements; every witness point re-checks."""
    arrangements = [(f"corpus {s}", corpus_arrangement(s)) for s in range(121)]
    for d, n, k, central, seeds in WORKLOAD_SHAPES:
        for s in range(seeds):
            arr = generate_random_arrangement(s, d, n, k, central=central)
            arrangements.append((f"d{d} n{n} k{k} central {central} seed {s}", arr))
    lines = []
    for key, arr in arrangements:
        pairs = covectors_with_witnesses(arr)
        for x, p in pairs:
            assert sign_vector_at_point(arr, p) == x, (key, x.word(), p)
        lines.append(f"{key}: {' '.join(x.word() for x, _ in pairs)}")
    check_golden("covector words", 0, "\n".join(lines))


@pytest.mark.parametrize(
    "key, shape",
    [
        ("verify d3-n8-k2-s0", (3, 8, 2, False)),
        ("verify d3-n8-central-s0", (3, 8, 0, True)),
        ("verify d2-n9-k2-s0", (2, 9, 2, False)),
    ],
)
def test_verify_workload_golden(key, shape):
    """The ``full_verify`` report and the reduced Rees presentation text of
    three verify workload inputs, the (2, 9, 2) one with n > 8, so the
    minors, the column index and the support walk of larger ground sets
    keep their output."""
    d, n, k, central = shape
    L = covectors(generate_random_arrangement(0, d, n, k, central=central))
    ok, report = full_verify(L)
    assert ok
    pres = presentation(L, "rees", reduced=True)
    check_golden(key, 0, json.dumps(report, indent=2) + "\n" + "\n".join(pres.text_lines()))
