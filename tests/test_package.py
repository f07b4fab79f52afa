"""The public names of the package."""

import comring
import comring.minors
import comring.rings


def test_every_exported_name_resolves():
    for name in comring.__all__:
        assert hasattr(comring, name), name
    assert len(set(comring.__all__)) == len(comring.__all__)


def test_retired_names_are_gone():
    for name in ("UPoly", "ZERO_P", "ONE_P", "minor_report", "MinorReport"):
        assert name not in comring.__all__
        assert not hasattr(comring, name)
        assert not hasattr(comring.rings, name)
        assert not hasattr(comring.minors, name)
