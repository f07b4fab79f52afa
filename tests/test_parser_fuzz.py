"""Arbitrary JSON under the known keys of both input formats.

Whatever the values, a parser raises only its format error, and the CLI
turns that error into exit status 2 with a one-line message.
"""

import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from comring.cli import run
from comring.core import ComFormatError, parse_com_json
from comring.realize import ArrangementFormatError, parse_arrangement_json

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def mostly(valid):
    """Values of the documented shape three times in four, else any JSON."""
    return st.integers(0, 3).flatmap(lambda k: valid if k else json_values)


rationals = mostly(st.integers(-9, 9) | st.text(alphabet="0123456789-/e.+ ", max_size=6))


def vectors():
    return mostly(st.lists(rationals, min_size=1, max_size=3))


arrangement_docs = mostly(
    st.fixed_dictionaries(
        {
            "dim": mostly(st.integers(-1, 3)),
            "hyperplanes": mostly(
                st.lists(
                    mostly(st.fixed_dictionaries({"a": vectors(), "b": rationals})),
                    max_size=3,
                )
            ),
        },
        optional={
            "region": mostly(
                st.lists(
                    mostly(
                        st.fixed_dictionaries(
                            {"c": vectors(), "d": rationals},
                            optional={"rel": mostly(st.sampled_from([">", "<"]))},
                        )
                    ),
                    max_size=3,
                )
            )
        },
    )
)

com_docs = mostly(
    st.fixed_dictionaries(
        {
            "n": mostly(st.integers(-1, 4)),
            "covectors": mostly(
                st.lists(mostly(st.text(alphabet="+-0x", max_size=4)), max_size=4)
            ),
        }
    )
)


def check_rejected_by_cli(text: str, subcommand: str) -> None:
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        status, out = run([subcommand, path])
    finally:
        os.unlink(path)
    assert status == 2, out
    assert out.startswith("error: ") and "Traceback" not in out


@settings(max_examples=300, deadline=None)
@given(arrangement_docs)
def test_arrangement_parser_raises_only_its_format_error(doc):
    text = json.dumps(doc)
    try:
        parse_arrangement_json(text)
    except ArrangementFormatError:
        check_rejected_by_cli(text, "realize")


@settings(max_examples=300, deadline=None)
@given(com_docs)
def test_com_parser_raises_only_its_format_error(doc):
    text = json.dumps(doc)
    try:
        parse_com_json(text)
    except ComFormatError:
        check_rejected_by_cli(text, "check")


@pytest.mark.parametrize(
    "template, parse, error, subcommand",
    [
        (
            '{"dim": %d, "hyperplanes": []}',
            parse_arrangement_json,
            ArrangementFormatError,
            "realize",
        ),
        ('{"n": %d, "covectors": []}', parse_com_json, ComFormatError, "check"),
    ],
)
def test_size_beyond_the_input_length_rejected(template, parse, error, subcommand):
    """Every vector or word lists dim or n entries, so only a vector-free
    input can name a larger size than its own text; it is rejected."""
    bound = len(template % 99)  # the text length for any two-digit size
    parse(template % bound)
    for size in (bound + 1, 10**6):
        text = template % size
        with pytest.raises(error, match=f"{size} exceeds input length {len(text)}$"):
            parse(text)
        check_rejected_by_cli(text, subcommand)
