"""The README's library example runs, and gives the values its comments promise."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    """The fenced Python block under ``## Library example``."""
    section = README.read_text().split("## Library example", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example():
    # Each expression line is evaluated on its own, keyed by its source text.
    namespace: dict = {}
    values = {}
    for stmt in ast.parse(_library_example()).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), str(README), "eval")
            values[ast.unparse(stmt.value)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([stmt], []), str(README), "exec"), namespace)
    assert values["a.dec.block_dims"] == [(1, 1)] * 4
    assert values["cc.degeneracy(a.graph, 5)"] == 32
    assert values["cc.spectral_census(a.graph, 3).dims"] == {0: 8, 1: 24, 2: 24, 3: 8}
    assert values["a.verdict.witness"].kind == "cycle"
    assert len(values["a.verdict.witness"].vertices) >= 2
    assert len(values["cc.ground_states(a, 3).states"]) == 8
