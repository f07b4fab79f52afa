"""The public names of the package."""

import ast
import importlib
from pathlib import Path

import comring


def test_every_exported_name_resolves():
    for name in comring.__all__:
        assert hasattr(comring, name), name
    assert len(set(comring.__all__)) == len(comring.__all__)


def test_retired_names_are_gone():
    retired = (
        "UPoly", "ZERO_P", "ONE_P", "minor_report", "MinorReport",
        "TopeRecursionReport", "NbcRecursionReport", "NbcTopeReport",
        "DisjointCovectorReport", "LiftReport", "RunConfig", "CircuitMinorReport",
        "minimal_masks", "_shift_down", "_mask_bits", "_circuit_product",
        "_drop_minimum",
    )
    # ``comring.circuits`` is the function the package re-exports, which
    # shadows the submodule, so the modules come from the import system.
    modules = [
        importlib.import_module(f"comring.{layer}")
        for layer in ("rings", "minors", "nbc", "cli", "circuits", "core")
    ]
    for name in retired:
        assert name not in comring.__all__
        assert not hasattr(comring, name)
        for module in modules:
            assert not hasattr(module, name), (module.__name__, name)


def test_traced_functions_resolve():
    """Every function the benchmark tracer wraps exists under its name."""
    tree = ast.parse((Path(__file__).parents[1] / "perfbench" / "spans.py").read_text())
    traced = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)
    )
    assert traced
    for layer, attr in traced:
        obj = importlib.import_module(f"comring.{layer}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (layer, attr)


def test_modules_use_every_name_they_import():
    """Every name a module imports is used in it, except on an import
    marked ``# noqa: F401`` (a deliberate re-export)."""
    for path in sorted((Path(__file__).parents[1] / "src" / "comring").glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            marked = lines[node.lineno - 1 : node.end_lineno]
            if any("# noqa: F401" in line for line in marked):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                assert name in used, (path.name, name)


def test_only_core_and_circuits_read_the_column_index():
    """``core`` builds the column index and asks it in strong
    elimination, and ``circuits`` sweeps it.  Every other check scans
    covectors or topes, so a faulty index cannot certify the circuits it
    produced."""
    readers = set()
    for path in sorted((Path(__file__).parents[1] / "src" / "comring").glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.FunctionDef):
                names.add(node.name)
        if "covector_columns" in names:
            readers.add(path.stem)
    assert readers == {"core", "circuits"}
