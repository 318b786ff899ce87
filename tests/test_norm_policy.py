"""Source pin of the norm policy: identity checks take Frobenius norms, not SVDs.

A spectral norm, ``norm(x, 2)`` or ``norm(x, ord=2)``, costs an SVD.  The
only quantity in the package that is a spectral norm by definition is the
principal-angle sine of ``_linalg.subspace_angle_sin``.
"""

import ast
from pathlib import Path

import commchain

SRC = Path(commchain.__file__).parent

SPECTRAL_NORM_SITES = [("_linalg", "subspace_angle_sin")]


def _is_spectral_norm(call: ast.Call) -> bool:
    name = getattr(call.func, "attr", getattr(call.func, "id", None))
    if name != "norm":
        return False
    ords = call.args[1:2] + [k.value for k in call.keywords if k.arg == "ord"]
    for node in ords:
        try:
            if ast.literal_eval(node) in (2, -2):
                return True
        except ValueError:
            pass
    return False


def _spectral_norm_sites() -> list[tuple[str, str | None]]:
    """(module, innermost enclosing function) of every spectral-norm call."""
    sites = []

    def visit(node: ast.AST, module: str, func: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call) and _is_spectral_norm(node):
            sites.append((module, func))
        for child in ast.iter_child_nodes(node):
            visit(child, module, func)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    return sites


def test_spectral_norm_only_in_the_principal_angle_sine():
    sites = _spectral_norm_sites()
    assert sites, "the principal-angle sine lost its spectral norm"
    assert sorted(set(sites)) == SPECTRAL_NORM_SITES


def test_linalg_has_no_padded_svd_stack():
    tree = ast.parse((SRC / "_linalg.py").read_text())
    names = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    assert "op_norms" not in names


def test_the_pin_sees_both_spellings():
    calls = [
        ast.parse(src).body[0].value
        for src in ("np.linalg.norm(a, 2)", "norm(a, ord=2)", "np.linalg.norm(a, -2)")
    ]
    assert all(_is_spectral_norm(c) for c in calls)
    plain = [ast.parse(src).body[0].value for src in ("np.linalg.norm(a)", "norm(a, axis=(-2, -1))")]
    assert not any(_is_spectral_norm(c) for c in plain)
