"""The README's quick start runs and prints what its comments say."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quick_start_source():
    """The python block under the README's "## Quick start" heading."""
    section = (ROOT / "README.md").read_text().split("\n## Quick start\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_start_values_match_their_comments(monkeypatch, capsys):
    """Each expression statement with a trailing comment evaluates to the
    comment's literal; every other statement runs as written."""
    monkeypatch.chdir(ROOT)
    source = quick_start_source()
    lines = source.splitlines()
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(source).body:
        line = lines[stmt.end_lineno - 1]
        if isinstance(stmt, ast.Expr) and "#" in line:
            expected = ast.literal_eval(line.split("#", 1)[1].strip())
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            assert value == expected, line
            checked.append(expected)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert checked == [13, 6, ["--+", "++-"], (1, 3, 2), (1, 3, 2)]
    assert capsys.readouterr().out.startswith("mode: rees\n")
