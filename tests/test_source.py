"""Static checks on the library source, using only the standard library."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ocrom"
# the program that a src/ definition must serve; tests alone do not keep one
CALLERS = [ROOT / d for d in ("src", "demos", "perfbench")]
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unused_imports(source):
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_flags_unused_import():
    source = "import os\nimport numpy.linalg\nfrom a import b as c, d\nnumpy.linalg\nd()\n"
    assert unused_imports(source) == ["c", "os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def definitions(source):
    """Functions, methods and classes a module defines, dunders excluded."""
    return {node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, _DEFINITIONS)
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def references(source):
    """Names a module reads, imports or spells as a string, leaving out the
    uses of a name inside its own definition (recursion is not a caller)."""
    found = set()

    def visit(node, enclosing):
        name = None
        if isinstance(node, _DEFINITIONS):
            enclosing = enclosing | {node.name}
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.split(".")[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        if name is not None and name not in enclosing:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(ast.parse(source), frozenset())
    return found


def test_checker_flags_unreferenced_definition():
    source = ("def a():\n    return a()\n\n"
              "class B:\n    def __init__(self):\n        pass\n\n"
              "    def c(self):\n        pass\n\n"
              "def d():\n    return B().c\n")
    assert sorted(definitions(source) - references(source)) == ["a", "d"]


def test_every_definition_is_named_elsewhere():
    used = set()
    for path in (p for d in CALLERS for p in d.rglob("*.py")):
        used |= references(path.read_text())
    unused = sorted(f"{path.name}: {name}" for path in SRC.glob("*.py")
                    for name in definitions(path.read_text()) - used)
    assert unused == []
