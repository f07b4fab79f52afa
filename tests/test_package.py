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
    """Only the sweep of ``circuits.circuits`` and the questions of
    ``core.check_strong_elimination`` read the column index.  Every other
    check scans covectors or topes, so a faulty index cannot certify the
    circuits it produced.  A reader is a top-level function or method, a
    nested ``def`` counting toward the one that holds it, or a module-level
    statement other than an import; ``covector_columns`` itself, which
    builds the index, is not one."""
    readers = set()
    for path in sorted((Path(__file__).parents[1] / "src" / "comring").glob("*.py")):
        tree = ast.parse(path.read_text())
        units = [(path.stem, node) for node in tree.body]
        units += [
            (f"{path.stem}.{node.name}", item)
            for node in tree.body
            if isinstance(node, ast.ClassDef)
            for item in node.body
        ]
        for owner, node in units:
            if isinstance(node, (ast.Import, ast.ImportFrom, ast.ClassDef)):
                continue
            if isinstance(node, ast.FunctionDef):
                if node.name == "covector_columns":
                    continue
                owner = f"{owner}.{node.name}"
            names = {
                n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))
            }
            if "covector_columns" in names:
                readers.add(owner)
    assert readers == {"circuits.circuits", "core.check_strong_elimination"}


def test_only_check_index_tests_a_range():
    """Every index and mask argument is range checked by ``core.check_index``,
    which also rejects bools and floats.  A range check is a chained
    comparison ``0 <= i < ...``; besides the helper, only the CLI's exit-2
    pre-check and the matrix indexes of ``exactalg.IntMatrix``, which are no
    ground-set arguments, write one.  The owner is a top-level function or
    class, or the module for any other statement."""
    owners = set()
    for path in sorted((Path(__file__).parents[1] / "src" / "comring").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            named = isinstance(node, (ast.FunctionDef, ast.ClassDef))
            owner = f"{path.stem}.{node.name}" if named else path.stem
            if any(
                isinstance(n, ast.Compare)
                and isinstance(n.left, ast.Constant)
                and n.left.value == 0
                and isinstance(n.ops[0], ast.LtE)
                for n in ast.walk(node)
            ):
                owners.add(owner)
    assert owners == {"core.check_index", "cli._dispatch", "exactalg.IntMatrix"}
