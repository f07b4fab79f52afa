"""Byte-identity of the command outputs that reports are compared on.

The digests are sha256 of the exact output text of ``run``.  Any change
to a reported value, to key order or to formatting changes a digest, so
refactors of the library must leave these unchanged.
"""

import hashlib

import pytest

from comring.cli import RunConfig, run
from comring.core import com_to_json

GOLDEN = {
    "verify ex4": "9e1093c64a8d68528b187376a7bbbb702ac430c64245e8da573d193c17b85a59",
    "verify gen3": "b04f730d822e78948e33a585acffe3185c49c16fefd65485aea70a7493e2671c",
    "presentation ex4": "b2036137175f957ba427c3eb8def359fa144c594f29b721c6b3a234e3449544f",
    "corpus 12": "ec3819fa5e0034785964e3ef7458d5573ad4820f53748eca52e5dd69b8f33d35",
}


def check_golden(key: str, status: int, out: str) -> None:
    assert status == 0, out
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == GOLDEN[key], f"{key} output changed:\n{out[:2000]}"


def com_file(tmp_path, request, name: str) -> str:
    path = tmp_path / f"{name}_com.json"
    path.write_text(com_to_json(request.getfixturevalue(name)))
    return str(path)


@pytest.mark.parametrize("name", ["ex4", "gen3"])
def test_verify_golden(tmp_path, request, name):
    path = com_file(tmp_path, request, name)
    check_golden(f"verify {name}", *run(RunConfig("verify", input_path=path)))


def test_presentation_golden(tmp_path, request):
    path = com_file(tmp_path, request, "ex4")
    config = RunConfig(
        "presentation", input_path=path, mode="rees", reduced=True, output_format="json"
    )
    check_golden("presentation ex4", *run(config))


def test_corpus_golden():
    check_golden("corpus 12", *run(RunConfig("corpus", count=12)))
