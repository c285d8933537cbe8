"""The exact-arithmetic contract, checked on the source: no module of the
package holds a float literal or calls float()."""

import ast
from pathlib import Path

import gkbench

SOURCES = sorted(Path(gkbench.__file__).parent.rglob("*.py"))


def _float_uses(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"line {node.lineno}: literal {node.value!r}")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            found.append(f"line {node.lineno}: call to float")
    return found


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"ring.py", "linalg.py", "reduction.py"}


def test_no_float_literals_or_calls():
    offenders = {
        path.name: uses
        for path in SOURCES
        if (uses := _float_uses(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert offenders == {}


def test_detector_sees_floats():
    assert len(_float_uses(ast.parse("a = 0.5\nb = float(a)\nc = 2j\n"))) == 3
