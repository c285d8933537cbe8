"""No module of the package, and no test module, imports a name it never
uses, so a deletion that leaves its last import behind is caught here.  A
name counts as used when it is read anywhere in the module, named in a
string annotation, or re-exported through __all__.

No top-level function or class of the package goes unread either, so a
refactor that leaves a helper behind is caught too.  A definition counts
as read when a statement of the package other than its own definition
reads its name, as a name, an attribute, a string annotation or an
__all__ entry.  The same holds for the methods and properties of the
package's classes, dunders aside: each must be read by some statement
other than its own definition, such as another method of its class.  A
static method counts as read only through its class name, as in
RingElement.zero, so a read of the same name on another object does not
keep it."""

import ast
from pathlib import Path

import gkbench

SOURCES = sorted(Path(gkbench.__file__).parent.rglob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def _annotation_names(tree: ast.AST) -> set[str]:
    """Names read inside string annotations such as -> "GenSection"."""
    notes = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs
            every += [a for a in (args.vararg, args.kwarg) if a is not None]
            notes += [a.annotation for a in every] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            notes.append(node.annotation)
    names = set()
    for note in filter(None, notes):
        for leaf in ast.walk(note):
            if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str):
                parsed = ast.parse(leaf.value, mode="eval")
                names |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return names


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _annotation_names(tree) | _exported(tree)
    return [
        f"line {line}: {name}"
        for name, line in sorted(imported.items(), key=lambda kv: kv[1])
        if name not in used
    ]


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"ring.py", "linalg.py", "reduction.py"}
    assert {p.name for p in TESTS} >= {"test_ring.py", "test_no_unused_imports.py"}


def test_no_unused_imports():
    offenders = {
        str(path.relative_to(path.parents[1])): names
        for path in SOURCES + TESTS
        if (names := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


def test_detector_sees_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "from .linalg import mat, rank\n"
        "from .ring import Scalar\n"
        "def f(x: \"Scalar\") -> int:\n"
        "    return rank(os.sep)\n"
    )
    assert unused_imports(source) == ["line 2: system", "line 3: mat"]



# The Cartan-model oracles: the tests compare the runtime closedness check
# against these two, and nothing in the package calls them.
ORACLES = {"cartan_d", "equivariant_three_form"}


def _reads(node: ast.AST) -> set[str]:
    """Names a statement reads: names, attributes and string annotations,
    and "Owner.attr" for an attribute read on a bare name."""
    names = set(_annotation_names(node))
    for leaf in ast.walk(node):
        if isinstance(leaf, ast.Name):
            names.add(leaf.id)
        elif isinstance(leaf, ast.Attribute):
            names.add(leaf.attr)
            if isinstance(leaf.value, ast.Name):
                names.add(f"{leaf.value.id}.{leaf.attr}")
    return names


def unread_definitions(sources: dict[str, str]) -> list[str]:
    """Top-level functions and classes, as "module:name", whose name no
    other statement of the given modules reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = [(stmt, _reads(stmt)) for tree in trees.values() for stmt in tree.body]
    exported = set().union(*map(_exported, trees.values()))
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [
        f"{module}:{stmt.name}"
        for module, tree in trees.items()
        for stmt in tree.body
        if isinstance(stmt, kinds)
        and stmt.name not in exported
        and not any(stmt.name in names for other, names in reads if other is not stmt)
    ]


def test_every_definition_is_read():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    unread = unread_definitions(sources)
    assert [name for name in unread if name.split(":")[1] not in ORACLES] == []


def test_detector_sees_unread_definitions():
    sources = {
        "a.py": (
            "def used(): pass\n"
            "def unused(): pass\n"
            "def only_itself(n): return only_itself(n - 1)\n"
            "class Noted: pass\n"
            "class Listed: pass\n"
            "__all__ = ['Listed']\n"
        ),
        "b.py": (
            "from . import a\n"
            "def caller(x: 'Noted'): return a.used()\n"
            "caller(None)\n"
        ),
    }
    assert unread_definitions(sources) == ["a.py:unused", "a.py:only_itself"]


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _read_as(cls: ast.ClassDef, meth: ast.FunctionDef) -> str:
    """The name a read of the method must carry: a static method's is
    qualified by its class."""
    static = any(
        isinstance(dec, ast.Name) and dec.id == "staticmethod"
        for dec in meth.decorator_list
    )
    return f"{cls.name}.{meth.name}" if static else meth.name


def unread_methods(sources: dict[str, str]) -> list[str]:
    """Methods and properties of top-level classes, as
    "module:Class.name", whose name no other statement of the given
    modules reads (a static method's only as Class.name); each statement
    of a class body counts on its own."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    units = [
        inner
        for tree in trees.values()
        for stmt in tree.body
        for inner in (stmt.body if isinstance(stmt, ast.ClassDef) else [stmt])
    ]
    reads = [(unit, _reads(unit)) for unit in units]
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef)
    return [
        f"{module}:{cls.name}.{meth.name}"
        for module, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for meth in cls.body
        if isinstance(meth, kinds)
        and not _is_dunder(meth.name)
        and not any(
            _read_as(cls, meth) in names for other, names in reads if other is not meth
        )
    ]


def test_every_method_is_read():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    assert unread_methods(sources) == []


def test_detector_sees_unread_methods():
    sources = {
        "a.py": (
            "from functools import cached_property\n"
            "class Value:\n"
            "    def __init__(self): self.x = self.helper()\n"
            "    def helper(self): return 1\n"
            "    def unused(self): return 2\n"
            "    def recursive(self): return self.recursive()\n"
            "    @cached_property\n"
            "    def shown(self): return 3\n"
            "    @cached_property\n"
            "    def hidden(self): return 4\n"
            "    def __repr__(self): return 'Value'\n"
            "    @staticmethod\n"
            "    def made(): return Value()\n"
            "    @staticmethod\n"
            "    def other_made(): return Value()\n"
        ),
        "b.py": (
            "from .a import Value\n"
            "print(Value().shown, Value.made())\n"
            "print(other.other_made())\n"
        ),
    }
    assert unread_methods(sources) == [
        "a.py:Value.unused", "a.py:Value.recursive", "a.py:Value.hidden",
        "a.py:Value.other_made",
    ]
