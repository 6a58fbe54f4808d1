"""No definition without a caller: every function, class and method
defined in ``src/amalgam`` (dunders exempt) is named in code somewhere in
the Python files under ``src/``, ``tests/`` or ``perfbench/``.  A name
counts where the syntax tree uses it: a name or attribute in an
expression, an imported name, or a string constant spelling a dotted
identifier (``"conj_many"``, ``"FiniteStructure.restrict"``: the
functions a probe table wraps by name).  Prose in comments and
docstrings does not count.  No import without a use: every name a module
under ``src/amalgam``, ``tests/`` or ``perfbench/`` imports is read in
that module, unless the import line is marked ``# noqa: F401`` (a
re-export).  No local without a read: every name a function of
``src/amalgam`` binds is read somewhere in that function (names starting
with ``_`` are exempt; tests are not scanned, since they unpack on
purpose).  No field without a read: every annotated class field of
``src/amalgam`` is read as an attribute (``x.field`` in a load, not a
store) somewhere under ``src/``, ``tests/`` or ``perfbench/``."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "amalgam"
SEARCHED = ("src", "tests", "perfbench")
LINTED = (PACKAGE, ROOT / "tests", ROOT / "perfbench")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions() -> list[tuple[str, str]]:
    """(module path, name) of every def and class in the package."""
    out = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, DEFINITIONS) and not (
                    node.name.startswith("__") and node.name.endswith("__")):
                out.append((str(path.relative_to(ROOT)), node.name))
    return out


DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _names_used(tree: ast.AST) -> set[str]:
    """Identifiers the code of ``tree`` uses, definitions excluded."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and DOTTED.fullmatch(node.value):
            used.update(node.value.split("."))
    return used


def _all_names_used() -> set[str]:
    used = set()
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            used |= _names_used(ast.parse(path.read_text(), str(path)))
    return used


def test_every_definition_is_named_elsewhere():
    definitions = _definitions()
    assert len(definitions) > 100, "the scan found too few definitions"
    used = _all_names_used()
    dead = sorted(f"{path}: {name}" for path, name in definitions
                  if name not in used)
    assert not dead, "defined but never named elsewhere:\n" + "\n".join(dead)


def test_prose_is_not_a_use():
    used = _names_used(ast.parse(
        'def orphan(a):\n'
        '    """The orphan of a."""\n'
        '    # orphan again\n'
        '    return "an orphan"\n'
        'PROBES = ("conj_many", "FiniteStructure.restrict")\n'
        'import amalgam.k1.freepart as fp\n'
        'fp.neg(x)\n'))
    assert "orphan" not in used
    assert {"conj_many", "FiniteStructure", "restrict", "amalgam", "k1",
            "freepart", "neg", "fp", "x"} <= used


def _unused_imports(path: Path) -> list[str]:
    """Names bound by an import in ``path`` that no expression reads."""
    source = path.read_text()
    tree = ast.parse(source, str(path))
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or \
                "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in read]


def test_every_import_is_used():
    paths = sorted(p for top in LINTED for p in top.rglob("*.py"))
    assert len(paths) > 20, "the scan found too few modules"
    unused = [f"{path.relative_to(ROOT)}: {name}" for path in paths
              for name in _unused_imports(path)]
    assert not unused, "imported but never used:\n" + "\n".join(unused)


def _unread_locals(function: ast.AST) -> list[str]:
    """Names ``function`` (nested functions included) binds and never
    reads, except ``_``-prefixed names and names declared ``nonlocal`` or
    ``global``, which an enclosing scope reads."""
    bound, read, declared = {}, set(), set()
    for node in ast.walk(function):
        if isinstance(node, (ast.Nonlocal, ast.Global)):
            declared.update(node.names)
        elif isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                read.add(node.id)
            else:
                bound.setdefault(node.id, node.lineno)
    return [f"{name} (line {line})" for name, line in bound.items()
            if name not in read | declared and not name.startswith("_")]


def test_every_local_is_read():
    unread = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                unread += [f"{path.relative_to(ROOT)}: {node.name}: {name}"
                           for name in _unread_locals(node)]
    assert not unread, "bound but never read:\n" + "\n".join(unread)


def test_an_unread_local_is_caught():
    [function] = ast.parse(
        'def f(xs):\n'
        '    total, _skipped = 0, 0\n'
        '    shared = len(xs)\n'
        '    for x in xs:\n'
        '        total += x\n'
        '    def bump():\n'
        '        nonlocal total\n'
        '        total = 1\n'
        '    return total\n').body
    assert _unread_locals(function) == ["shared (line 3)"]


def _attributes_read(tree: ast.AST) -> set[str]:
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def _unread_fields(tree: ast.AST, read: set[str]) -> list[str]:
    """Annotated fields of the classes in ``tree`` that no attribute load
    in ``read`` names."""
    return [f"{node.name}.{field.target.id} (line {field.lineno})"
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for field in node.body if isinstance(field, ast.AnnAssign)
            and isinstance(field.target, ast.Name)
            and field.target.id not in read]


def test_every_field_is_read():
    read = set()
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            read |= _attributes_read(ast.parse(path.read_text(), str(path)))
    unread = [f"{path.relative_to(ROOT)}: {name}"
              for path in sorted(PACKAGE.rglob("*.py"))
              for name in _unread_fields(
                  ast.parse(path.read_text(), str(path)), read)]
    assert not unread, "a field no code reads:\n" + "\n".join(unread)


def test_an_unread_field_is_caught():
    tree = ast.parse(
        'class Box:\n'
        '    size: int\n'
        '    label: str = ""\n'
        '    def grow(self):\n'
        '        self.label = "big"\n'
        '        return self.size + 1\n')
    assert _unread_fields(tree, _attributes_read(tree)) == ["Box.label (line 3)"]
