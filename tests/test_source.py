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


def arguments_set(source):
    """(called name, parameter name or position) pairs the module's calls
    set; a call that unpacks ``*args`` or ``**kwargs`` sets (name, "*")."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        found |= {(name, k) for k in range(len(node.args))}
        found |= {(name, kw.arg) for kw in node.keywords if kw.arg is not None}
        if (any(isinstance(a, ast.Starred) for a in node.args)
                or any(kw.arg is None for kw in node.keywords)):
            found.add((name, "*"))
    return found


def unset_defaults(source, calls):
    """``name: parameter`` for each defaulted parameter of the module's
    functions and methods that no pair in ``calls`` sets.  A method's
    positions leave out ``self``, and an ``__init__`` is called by its
    class's name."""
    unset = []

    def visit(node, cls):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            skip = 1 if cls and positional and positional[0].arg in ("self", "cls") else 0
            name = cls if cls and node.name == "__init__" else node.name
            first = len(positional) - len(args.defaults)
            params = [(a.arg, k - skip) for k, a in enumerate(positional) if k >= first]
            params += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                       if d is not None]
            unset.extend(f"{name}: {arg}" for arg, k in params
                         if not {(name, arg), (name, k), (name, "*")} & calls)
        for child in ast.iter_child_nodes(node):
            visit(child, node.name if isinstance(node, ast.ClassDef) else None)

    visit(ast.parse(source), None)
    return unset


def test_checker_flags_unset_default():
    source = ("def f(a, b=1, *, c=2):\n    pass\n\n"
              "class G:\n    def __init__(self, x=0, y=0):\n        pass\n\n"
              "    def h(self, z=0):\n        pass\n\n"
              "f(0, c=3)\nG(1)\nG().h(**kw)\n")
    assert unset_defaults(source, arguments_set(source)) == ["f: b", "G: y"]


def test_every_default_is_set_by_a_caller():
    """A defaulted parameter that no call in the program sets is a constant."""
    calls = set()
    for path in (p for d in CALLERS for p in d.rglob("*.py")):
        calls |= arguments_set(path.read_text())
    unset = sorted(f"{path.name}: {name}" for path in SRC.glob("*.py")
                   for name in unset_defaults(path.read_text(), calls))
    assert unset == []


def attributes_read(source):
    """Attribute names the module reads (``x.name`` in a load context)."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _is_dataclass(decorator):
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"


def unread_fields(source, read):
    """``Class.field`` for each annotated field of the module's dataclasses
    whose name is not in ``read``."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
            unread.extend(f"{node.name}.{stmt.target.id}" for stmt in node.body
                          if isinstance(stmt, ast.AnnAssign)
                          and isinstance(stmt.target, ast.Name)
                          and stmt.target.id not in read)
    return unread


def test_checker_flags_unread_field():
    source = ("@dataclass\nclass A:\n    x: int\n    y: int = 0\n    z = 1\n\n"
              "@dataclasses.dataclass(frozen=True)\nclass B:\n    u: int\n\n"
              "class C:\n    w: int\n\n"
              "a = A(1)\na.y = 2\nprint(a.x, a.z, B(0).w)\n")
    assert unread_fields(source, attributes_read(source)) == ["A.y", "B.u"]


def test_every_field_is_read():
    """A dataclass field that no program path reads is dead state."""
    read = set()
    for path in (p for d in CALLERS for p in d.rglob("*.py")):
        read |= attributes_read(path.read_text())
    unread = sorted(f"{path.name}: {name}" for path in SRC.glob("*.py")
                    for name in unread_fields(path.read_text(), read))
    assert unread == []


def _stored(target):
    """The expressions an assignment target writes into: the elements of a
    tuple or list, the object a subscript indexes (not its index), and an
    attribute with every object along its chain (``a.b.c = 1`` writes into
    ``a.b`` too)."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _stored(element)
    elif isinstance(target, (ast.Starred, ast.Subscript)):
        yield from _stored(target.value)
    else:
        yield target
        if isinstance(target, ast.Attribute):
            yield from _stored(target.value)


def _assigned_attributes(node):
    """(receiver name, attribute, line) of each ``name.attr = ...``,
    ``name.attr += ...``, ``name.attr[...] = ...`` or ``name.attr.x = ...``
    target under ``node``."""
    for stmt in ast.walk(node):
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        else:
            continue
        for target in (t for top in targets for t in _stored(top)):
            if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name):
                yield target.value.id, target.attr, target.lineno


def _called_name(node):
    if isinstance(node, ast.Call):
        return getattr(node.func, "id", getattr(node.func, "attr", None))
    return None


def reduced_operator_writes(sources):
    """``module:line`` of each assignment to a ``ReducedOperators`` field,
    or to an attribute that ``ReducedOperators.__post_init__`` derives,
    outside ``__post_init__``.  The receiver is ``self`` in the class's
    other methods, a parameter named ``ops``, or a name bound to a call of
    ``ReducedOperators``, of ``replace`` or of a function that returns one
    of those."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    fields, methods = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "ReducedOperators":
                fields |= {stmt.target.id for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign)}
                methods |= {stmt for stmt in node.body if isinstance(stmt, ast.FunctionDef)}
    fields |= {attr for fn in methods if fn.name == "__post_init__"
               for name, attr, _ in _assigned_attributes(fn) if name == "self"}
    functions = [(module, node) for module, tree in trees.items()
                 for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]

    def bound(fn, producers):
        return {t.id for stmt in ast.walk(fn) if isinstance(stmt, ast.Assign)
                and _called_name(stmt.value) in producers
                for t in stmt.targets if isinstance(t, ast.Name)}

    producers, grown = {"ReducedOperators", "replace"}, True
    while grown:
        grown = False
        for _, fn in functions:
            names = bound(fn, producers)
            if fn.name not in producers and any(
                    isinstance(r, ast.Return) and r.value is not None
                    and (_called_name(r.value) in producers
                         or getattr(r.value, "id", None) in names)
                    for r in ast.walk(fn)):
                producers.add(fn.name)
                grown = True
    writes = set()
    for module, fn in functions:
        if fn in methods and fn.name == "__post_init__":
            continue
        receivers = bound(fn, producers) | ({"self"} if fn in methods else set())
        receivers |= {"ops"} & {a.arg for a in fn.args.args}
        writes |= {f"{module}:{line}" for name, attr, line in _assigned_attributes(fn)
                   if name in receivers and attr in fields}
    return sorted(writes, key=lambda w: (w.split(":")[0], int(w.split(":")[1])))


def test_checker_flags_reduced_operator_write():
    source = ("@dataclass\nclass ReducedOperators:\n    a: int\n    b: int = 0\n\n"
              "    def __post_init__(self):\n        self.b = 1\n"
              "        self.K, self.X = self.Z = 2, 3\n\n"
              "    def grow(self):\n        self.a += 1\n\n"
              "def build():\n    made = ReducedOperators(1)\n    return made\n\n"
              "def serve(ops, basis):\n    ops.a[0] = 1\n    basis.a = 2\n"
              "    ops.K[0] += 1\n    basis.K = 2\n    basis[ops.K] = 3\n"
              "    ops.K.flat[0] = 1\n    ops.X.shape = (1,)\n\n"
              "def offline():\n    made = build()\n    made.b, other = 3, dict()\n"
              "    other.a = 4\n    fields = replace(made)\n    fields.c = 5\n"
              "    fields.Z = fields.X = 6\n")
    assert reduced_operator_writes({"m.py": source}) == [
        "m.py:11", "m.py:18", "m.py:20", "m.py:23", "m.py:24", "m.py:28", "m.py:32"]


def test_reduced_operators_not_mutated_after_build():
    """A served reduced model is only derived in ``__post_init__``."""
    sources = {path.name: path.read_text() for path in SRC.glob("*.py")}
    assert reduced_operator_writes(sources) == []
