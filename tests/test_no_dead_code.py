"""No code without a reader.

No definition without a caller: every function and class of
``src/amalgam`` but methods (dunders exempt) is named in code under
``src/`` or ``perfbench/``, or is an entry point listed in ``PUBLIC``,
which fails on an entry that names no definition or whose name a caller
uses.  A use in a test is no caller: what only tests reach lives under
``tests/``.  A name counts where the syntax tree uses it: a name or
attribute read, an import (except in a package ``__init__.py``, which
re-exports), or a string constant spelling a dotted identifier (the
functions a probe table wraps by name); prose does not.

No member without a read: every method (dunders exempt), property and
annotated field of a class of ``src/amalgam`` is read by a load
``x.member`` under ``src/`` or ``perfbench/`` (a field also under
``tests/``) whose receiver ``x`` is of that class or a subclass, or of
unknown type (``_Scope`` types receivers).

No import without a use (an import line marked ``# noqa: F401``
re-exports), no local of ``src/amalgam`` without a read (``_`` names
exempt), and no report clause added as ``True``."""

import ast
import functools
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "amalgam"
CALLERS = ("src", "perfbench")
SEARCHED = CALLERS + ("tests",)
LINTED = (PACKAGE, ROOT / "tests", ROOT / "perfbench")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = FUNCTIONS + (ast.ClassDef,)

# The entry points that only tests call.
PUBLIC = (
    "backends.graph_class",
    "backends.separable",
    "boolalg.pushout",
    "boolalg.pushout_independence",
    "fraisse.check_jep",
    "fraisse.check_disjoint_ap",
    "fraisse.richness_defect",
    "k1.checks.union_of_chain",
    "k1.engine.k1_position_valid",
    "k1.ops.adjoin_trace_element",
    "k1.ops.label_good_sequence",
    "kdim.completion_solutions",
    "serialize.dumps_canonical",
    "serialize.structure_to_dict",
    "serialize.structure_from_dict",
)


@functools.cache
def _trees() -> dict[str, ast.AST]:
    """Every Python file under ``SEARCHED``, parsed, by its path from the
    root."""
    return {str(path.relative_to(ROOT)): ast.parse(path.read_text(), str(path))
            for top in SEARCHED for path in sorted((ROOT / top).rglob("*.py"))}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(trees) -> list[tuple[str, str]]:
    """(path, name) of the package's defs and classes, methods excepted."""
    methods = {id(item) for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) for item in node.body
               if isinstance(item, FUNCTIONS)}
    return [(path, node.name) for path, tree in trees.items()
            if path.startswith("src/amalgam/") for node in ast.walk(tree)
            if isinstance(node, DEFINITIONS) and id(node) not in methods
            and not _is_dunder(node.name)]


def _entry(path: str, name: str) -> str:
    """The ``PUBLIC`` spelling of definition ``name`` in file ``path``."""
    module = path.removeprefix("src/amalgam/").removesuffix(".py")
    return f"{module.replace('/', '.')}.{name}"


DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _names_used(tree: ast.AST, imports: bool = True) -> set[str]:
    """Identifiers the code of ``tree`` uses, definitions excluded, and
    imported names only if ``imports``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Load):
            used.add(node.attr)
        elif isinstance(node, ast.alias) and imports:
            used.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and DOTTED.fullmatch(node.value):
            used.update(node.value.split("."))
    return used


def _names_callers_use(trees) -> set[str]:
    """Identifiers the files of ``trees`` under ``CALLERS`` use.  A
    package ``__init__.py`` imports to re-export, so its imports name no
    caller."""
    return set().union(*(
        _names_used(tree, imports=not path.endswith("/__init__.py"))
        for path, tree in trees.items() if path.split("/")[0] in CALLERS))


def _unreached(trees, public) -> list[str]:
    """Definitions of the package that no caller names and ``public``
    does not list."""
    used = _names_callers_use(trees)
    return sorted(f"{path}: {name}" for path, name in _definitions(trees)
                  if name not in used and _entry(path, name) not in public)


def _public_faults(trees, public) -> list[str]:
    """Entries of ``public`` that name no definition of the package, or
    whose name a caller already uses."""
    defined = {_entry(path, name) for path, name in _definitions(trees)}
    used = _names_callers_use(trees)
    faults = []
    for entry in public:
        if entry not in defined:
            faults.append(f"{entry}: names no definition")
        elif entry.rsplit(".", 1)[1] in used:
            faults.append(f"{entry}: src/ or perfbench/ names it")
    return faults


def test_every_definition_is_named_elsewhere():
    assert len(_definitions(_trees())) > 100, \
        "the scan found too few definitions"
    dead = _unreached(_trees(), PUBLIC)
    assert not dead, "defined but never named elsewhere:\n" + "\n".join(dead)


def test_every_public_entry_is_an_uncalled_definition():
    faults = _public_faults(_trees(), PUBLIC)
    assert not faults, "stale PUBLIC entries:\n" + "\n".join(faults)


def test_a_definition_only_a_test_names_is_caught():
    trees = dict(_trees())
    trees["src/amalgam/planted.py"] = ast.parse(
        'def orphan():\n'
        '    return 1\n')
    trees["tests/test_planted.py"] = ast.parse(
        'from amalgam.planted import orphan\n'
        'def test_orphan():\n'
        '    assert orphan() == 1\n')
    assert _unreached(trees, PUBLIC) == ["src/amalgam/planted.py: orphan"]
    assert _unreached(trees, PUBLIC + ("planted.orphan",)) == []


def test_a_definition_only_a_reexport_and_a_test_name_is_caught():
    trees = dict(_trees())
    trees["src/amalgam/planted/__init__.py"] = ast.parse(
        'from .core import orphan  # noqa: F401\n')
    trees["src/amalgam/planted/core.py"] = ast.parse(
        'def orphan():\n'
        '    return 1\n')
    trees["tests/test_planted.py"] = ast.parse(
        'from amalgam.planted import orphan\n'
        'def test_orphan():\n'
        '    assert orphan() == 1\n')
    assert _unreached(trees, PUBLIC) == ["src/amalgam/planted/core.py: orphan"]
    assert _unreached(trees, PUBLIC + ("planted.core.orphan",)) == []


def test_a_stale_public_entry_is_caught():
    public = PUBLIC + ("boolalg.no_such_function", "kdim.pushout",
                       "kdim.check_membership")
    assert _public_faults(_trees(), public) == [
        "boolalg.no_such_function: names no definition",
        "kdim.pushout: names no definition",
        "kdim.check_membership: src/ or perfbench/ names it"]


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


def test_a_binding_is_not_a_use():
    used = _names_used(ast.parse(
        'def bind(M):\n'
        '    comp, M.grow = 1, 2\n'
        '    return M.size\n'))
    assert "comp" not in used and "grow" not in used
    assert {"M", "size"} <= used


# Class members.  A type is a class name, ``("of", T)`` for a container
# of T, ``("map", T)`` for a mapping to T, ``("tuple", (T1, T2, ...))``
# for a tuple of fixed length, or None when unknown.
CONTAINERS = {"list", "tuple", "set", "frozenset", "Sequence", "Iterable",
              "Iterator", "Collection"}
SCOPES = FUNCTIONS + (ast.Lambda, ast.ClassDef)


def _annotation(node):
    """The type an annotation names: bare, quoted, ``Optional[C]``,
    ``C | None`` or a container."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return _annotation(ast.parse(node.value, mode="eval").body)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        sides = [side for side in (node.left, node.right)
                 if getattr(side, "value", 0) is not None]
        return _annotation(sides[0]) if len(sides) == 1 else None
    if isinstance(node, ast.Subscript):
        base, args = _annotation(node.value), node.slice
        args = args.elts if isinstance(args, ast.Tuple) else [args]
        inner = [_annotation(arg) for arg in args]
        if base == "Optional":
            return inner[0]
        if base in ("dict", "Mapping"):
            return ("map", inner[-1])
        if base == "tuple" and getattr(args[-1], "value", 0) is not Ellipsis:
            return ("tuple", tuple(inner))
        return ("of", inner[0]) if base in CONTAINERS else None
    name = getattr(node, "id", getattr(node, "attr", None))
    return None if name == "Any" else name


def _item(t, index=None):
    """The type of item ``index`` (any if None) of a value of type t."""
    if isinstance(t, tuple) and t[0] == "tuple":
        items = t[1] if index is None else t[1][index:][:1]
        return items[0] if len(set(items)) == 1 else None
    return t[1] if isinstance(t, tuple) and t[0] == "of" else None


def _member_name(item):
    """The name of a method or an annotated field, else None."""
    if isinstance(item, FUNCTIONS + (ast.AnnAssign,)):
        return getattr(item, "name", None) or getattr(item.target, "id", None)


def _unpack(target, value, path, typed):
    """Record each name in ``target`` as (value, its item indices)."""
    if isinstance(target, ast.Name):
        typed[id(target)] = (value, path)
    for i, elt in enumerate(getattr(target, "elts", ())):
        _unpack(elt, value, path + (i,), typed)


class _Scope:
    """The names a module, class body, function or lambda binds, typed
    with no flow analysis.  A parameter or annotated name has the type of
    its annotation, and ``self`` its class.  Another name has the type
    its bindings agree on: assignments, possibly unpacked, ``for`` and
    comprehension targets; ``with``, ``+=`` and the like bind no type.
    A name no scope binds may be a class, or a function, which has the
    type of its return annotation, like a method; a call has the type
    of its callee."""

    def __init__(self, node, parent, program):
        self.node, self.parent, self.program = node, parent, program
        self.known, self.bindings, typed = {}, {}, {}
        if isinstance(node, FUNCTIONS + (ast.Lambda,)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs
            self.known = {x.arg: _annotation(x.annotation) for x in params}
            self.known.update((x.arg, None) for x in (a.vararg, a.kwarg) if x)
        if isinstance(getattr(parent, "node", None), ast.ClassDef):
            self.parent = parent.parent  # methods do not see the class body
            if isinstance(node, FUNCTIONS) and "staticmethod" not in [
                    getattr(d, "id", None) for d in node.decorator_list]:
                self.known[params[0].arg] = parent.node.name
        nodes, todo = [], list(ast.iter_child_nodes(node))
        while todo:  # the nodes of this scope, not those of nested scopes
            nodes.append(todo.pop())
            if not isinstance(nodes[-1], SCOPES):
                todo += ast.iter_child_nodes(nodes[-1])
        for n in nodes:
            if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name):
                self.known[n.target.id] = _annotation(n.annotation)
            elif isinstance(n, (ast.Assign, ast.NamedExpr)):
                for target in getattr(n, "targets", None) or [n.target]:
                    _unpack(target, n.value, (), typed)
            elif isinstance(n, (ast.For, ast.AsyncFor, ast.comprehension)):
                _unpack(n.target, n.iter, (None,), typed)
        for n in nodes:
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load):
                self.bindings.setdefault(n.id, []).append(typed.get(id(n)))

    def lookup(self, name):
        scope = self
        while scope and name not in scope.known and name not in scope.bindings:
            scope = scope.parent
        if scope is None:
            return self.program.globals.get(name)
        if name not in scope.known:
            scope.known[name] = None  # a binding that reads itself is unknown
            kinds = {functools.reduce(_item, path, scope.type_of(value))
                     for value, path in filter(None, scope.bindings[name])}
            if len(kinds) == 1 and None not in scope.bindings[name]:
                scope.known[name] = kinds.pop()
        return scope.known[name]

    def type_of(self, e):
        """The type of expression ``e``: a name, a tuple, a call, an item
        of a typed container, a member with an annotation, or a mapping's
        ``values`` or ``items``."""
        if isinstance(e, ast.Name):
            return self.lookup(e.id)
        if isinstance(e, ast.Tuple):
            return ("tuple", tuple(map(self.type_of, e.elts)))
        if isinstance(e, ast.Call):
            return self.type_of(e.func)
        if not isinstance(e, (ast.Attribute, ast.Subscript)):
            return None
        t = self.type_of(e.value)
        if isinstance(e, ast.Subscript):
            if isinstance(t, tuple) and t[0] in ("of", "map"):
                return t if isinstance(e.slice, ast.Slice) else t[1]
            index = getattr(e.slice, "value", None)
            return _item(t, index if isinstance(index, int) else None)
        if isinstance(t, tuple) and t[0] == "map" and \
                e.attr in ("values", "items"):
            return ("of", t[1] if e.attr == "values"
                    else ("tuple", (None, t[1])))
        member = self.program.member(t, e.attr)
        return _annotation(getattr(member, "annotation", None)
                           or getattr(member, "returns", None))


class _Program:
    """The classes, package members and typed loads of ``trees``."""

    def __init__(self, trees):
        self.classes = {node.name: node for tree in trees.values()
                        for node in ast.walk(tree)
                        if isinstance(node, ast.ClassDef)}
        methods = {id(item) for node in self.classes.values()
                   for item in node.body}
        functions = [node for tree in trees.values()
                     for node in ast.walk(tree) if isinstance(node, FUNCTIONS)
                     and id(node) not in methods]
        names = [f.name for f in functions]
        self.globals = {f.name: _annotation(f.returns)
                        for f in functions if names.count(f.name) == 1}
        self.globals.update((cls, cls) for cls in self.classes)
        self.package = [(path, node.name, _member_name(item), item)
                        for path, tree in trees.items()
                        if path.startswith("src/amalgam/")
                        for node in ast.walk(tree)
                        if isinstance(node, ast.ClassDef) for item in node.body
                        if not _is_dunder(_member_name(item) or "__")]
        self.loads = []  # (top directory, receiver type, attribute)
        for path, tree in trees.items():
            todo = [(_Scope(tree, None, self), tree)]
            while todo:
                scope, node = todo.pop()
                if isinstance(node, ast.Attribute) and \
                        isinstance(node.ctx, ast.Load):
                    self.loads.append((path.split("/")[0],
                                       scope.type_of(node.value), node.attr))
                todo += [(_Scope(child, scope, self)
                          if isinstance(child, SCOPES) else scope, child)
                         for child in ast.iter_child_nodes(node)]

    def lineage(self, cls) -> list[str]:
        """``cls`` and its ancestors among the classes."""
        line = [cls]
        for known in line:
            line += [base.id for base in self.classes[known].bases if getattr(
                base, "id", None) in set(self.classes) - set(line)]
        return line

    def member(self, t, name):
        """The method or field ``name`` of a value of type ``t``."""
        items = [item for cls in (self.lineage(t) if t in self.classes else ())
                 for item in self.classes[cls].body
                 if _member_name(item) == name]
        return items[0] if items else None

    def unread(self) -> list[str]:
        """The package's members that no load reads."""
        return [f"{path}: {cls}.{name}" for path, cls, name, item
                in self.package if not any(
                    attr == name and top in (
                        CALLERS if isinstance(item, FUNCTIONS) else SEARCHED)
                    and (t is None or t in self.classes
                         and cls in self.lineage(t))
                    for top, t, attr in self.loads)]


def test_every_field_is_read():
    program = _Program(_trees())
    unread = program.unread()
    assert len(program.package) > 100, "the scan found too few members"
    assert not unread, "a member no code reads:\n" + "\n".join(unread)
    names = {name for _, _, name, _ in program.package}
    types = [t for top, t, name in program.loads
             if top == "src" and name in names]
    resolved = len(types) - types.count(None)
    assert len(types) > 500 and resolved >= 0.7 * len(types), \
        f"only {resolved} of {len(types)} member loads under src/ resolve"


def test_an_unread_field_is_caught():
    trees = {"src/amalgam/box.py": ast.parse(
        'class Box:\n'
        '    size: int\n'
        '    label: str = ""\n'
        '    def grow(self):\n'
        '        self.label = "big"\n'
        '        return self.size + 1\n'
        'Box().grow()\n')}
    assert _Program(trees).unread() == ["src/amalgam/box.py: Box.label"]


# A planted package module, and a test that calls ``Tag.grow``.
PLANTED = {"src/amalgam/tags.py": ast.parse(
    'class Tag:\n'
    '    label: str\n'
    '    colour: str\n'
    '    def grow(self): return self.label\n'
    'class Box:\n'
    '    colour: str\n'
    '    tag: Tag\n'
    '    tags: list[Tag]\n'
    '    pair: tuple[int, Tag]\n'
    '    by_name: dict[str, Tag]\n'
    '    @property\n'
    '    def main(self) -> Tag: return self.tag\n'
    '    @staticmethod\n'
    '    def of(x) -> "Tag": return x\n'
    '    def grow(self): return 1\n'
    '    def atoms(self): return []\n'
    '    def spin(self): return 0\n'
    'def make() -> Tag: return Tag()\n'
    'def use(a: Tag, b: "Tag", c: Optional[Tag], d: Tag | None, box: Box):\n'
    '    t, u, v, (_, second) = Tag(), Box.of(thing), make(), box.pair\n'
    '    for w in box.tags: w.label\n'
    '    atoms = [box.grow(), a.colour, thing.spin(), "atoms", "Box.atoms"]\n'
    '    return atoms, [a.label, b.label, c.label, d.label, t.label,\n'
    '            u.label, v.label, second.label, Tag.label, box.tag.label,\n'
    '            box.main.label, box.tags[0].label, box.tags[1:][0].label,\n'
    '            box.by_name["x"].label, box.pair[1].label,\n'
    '            [x.label for x in box.tags],\n'
    '            [y.label for y in box.by_name.values()],\n'
    '            [z.label for _, z in box.by_name.items()], thing.label]\n'),
    "tests/test_tags.py": ast.parse('Tag().grow()\n')}


def test_a_member_read_only_on_other_receivers_is_caught():
    # (a) only a test calls Tag.grow, src calls Box.grow on a Box; (b) src
    # names Box.atoms only as a local and a string; (c) Box.colour is read
    # only on a Tag; (d) Box.spin is read on a receiver of unknown type
    assert _Program(PLANTED).unread() == [
        "src/amalgam/tags.py: Tag.grow", "src/amalgam/tags.py: Box.colour",
        "src/amalgam/tags.py: Box.atoms"]


def test_every_resolution_rule_types_its_receiver():
    # (e) each ``.label`` load but the last reads a Tag through one rule
    types = [t for top, t, name in _Program(PLANTED).loads
             if top == "src" and name == "label"]
    assert sorted(types, key=str) == [None] + ["Tag"] * 20


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


# No clause that cannot fail: no call in ``src/amalgam`` adds a report
# clause, ``.add(<key>, True, ...)``, with a literal ``True`` verdict.


def _clauses_that_cannot_fail(tree: ast.AST) -> list[str]:
    """Lines of ``tree`` that call ``.add`` with a string key and a
    literal ``True`` verdict."""
    return [f"line {node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add" and len(node.args) >= 2
            and isinstance(node.args[0], (ast.Constant, ast.JoinedStr))
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value is True]


def test_no_clause_is_added_as_true():
    found = [f"{path.relative_to(ROOT)}: {line}"
             for path in sorted(PACKAGE.rglob("*.py"))
             for line in _clauses_that_cannot_fail(
                 ast.parse(path.read_text(), str(path)))]
    assert not found, "a clause that cannot fail:\n" + "\n".join(found)


def test_a_clause_added_as_true_is_caught():
    planted = ast.parse(
        'def check(r, ok, seen):\n'
        '    r.add("a.holds", ok, "a fails")\n'
        '    r.add("a.built", True, "by construction")\n'
        '    seen.add(True)\n'
        '    r.add(f"a.{ok}", True)\n')
    assert _clauses_that_cannot_fail(planted) == ["line 3", "line 5"]
