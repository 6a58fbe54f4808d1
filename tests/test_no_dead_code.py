"""No definition without a caller: every function, class and method
defined in ``src/amalgam`` (dunders exempt) is named in code somewhere in
the Python files under ``src/`` or ``perfbench/``, or is an entry point
listed in ``PUBLIC``.  A use in a test is no caller: what only tests
reach lives under ``tests/`` (the oracles in ``tests/oracles.py``, the k1
chain builders in ``tests/k1_fixtures.py``).  ``PUBLIC`` lists the entry
points that only tests call today, as ``module.name`` relative to
``amalgam``; an entry that names no definition of its module, or whose
name ``src/`` or ``perfbench/`` already uses, fails, so an entry leaves
the list once the package calls it.  A name counts where the syntax tree
uses it: a name or attribute read in an expression (a local or attribute
bound under that name is no use), an imported name (except in a package
``__init__.py``, whose imports only re-export), or a string constant
spelling a dotted identifier (``"conj_many"``,
``"FiniteStructure.restrict"``: the functions a probe table wraps by
name).  Prose in comments and docstrings does not count.  No import
without a use: every name a module under ``src/amalgam``, ``tests/`` or
``perfbench/`` imports is read in that module, unless the import line is
marked ``# noqa: F401`` (a re-export).  No local without a read: every
name a function of ``src/amalgam`` binds is read somewhere in that
function (names starting with ``_`` are exempt; tests are not scanned,
since they unpack on purpose).  No field without a read: every annotated
class field of ``src/amalgam`` is read as an attribute (``x.field`` in a
load, not a store) somewhere under ``src/``, ``tests/`` or
``perfbench/``, and a field whose name other receivers also read (a
builtin container method such as ``items``, a method name defined in the
package such as ``key``, or a field name two or more package classes
declare, such as ``universe``) is listed in ``SHARED_FIELDS`` with the
readers on its own receivers.  No method name shared without a reason: a
name counts as used wherever it is read, whatever the receiver, so one
class's caller hides another class's uncalled method of the same name;
every method name that two or more classes of ``src/amalgam`` define is
listed in ``SHARED_METHODS`` with the reason each definition is kept."""

import ast
import functools
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "amalgam"
CALLERS = ("src", "perfbench")
SEARCHED = CALLERS + ("tests",)
LINTED = (PACKAGE, ROOT / "tests", ROOT / "perfbench")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

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


def _package_trees() -> list[ast.AST]:
    return [tree for path, tree in _trees().items()
            if path.startswith("src/amalgam/")]


def _definitions(trees) -> list[tuple[str, str]]:
    """(path, name) of every def and class in the package files of
    ``trees``."""
    return [(path, node.name) for path, tree in trees.items()
            if path.startswith("src/amalgam/") for node in ast.walk(tree)
            if isinstance(node, DEFINITIONS) and not (
                node.name.startswith("__") and node.name.endswith("__"))]


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


# Each method name that several classes of ``src/amalgam`` define, with
# the reason each definition is kept.  Each entry names callers on the
# class's own receivers, since a read of the name elsewhere proves nothing.
SHARED_METHODS = {
    "apply": {
        "Embedding": "maps a tuple of a plain structure; "
                     "Embedding.validate calls it",
        "TransportMap": "moves a list of k1 values along a transport; "
                        "ops.amalgamate_free, checks.check_free_extension "
                        "and checks.compose_free_witnesses call it",
    },
    "canonical_key": {
        "FiniteStructure": "equality and hashing of plain structures, and "
                           "pinned_digest in the linear-order pin test of "
                           "tests/test_fraisse.py",
        "K1Structure": "equality and hashing of k1 members, and the k1 "
                       "digests",
    },
    "key": {
        "Embedding": "the task key of the plain-structure classes in "
                     "fraisse.build_generic",
        "MatchEmbedding": "the task key of the witnessed class in "
                          "fraisse.build_generic",
    },
    "make": {
        "FreeExtensionWitness": "the normalising constructor that "
                                "k1.ops and k1.checks call",
        "Vocabulary": "the sorting constructor that backends, kdim and "
                      "serialize call",
    },
    "size": {
        "FiniteStructure": "the member size of fraisse's class protocol",
        "K1Structure": "the member size of fraisse's class protocol",
    },
    "top": {
        "GenericApproximation": "the last model of the chain; K1Generic.top "
                                "and perfbench read it",
        "K1Generic": "the top of the approximation; perfbench's k1 "
                     "workloads read it",
    },
    "validate": {
        "Embedding": "Embedding.is_valid calls it",
        "FiniteStructure": "FiniteStructure.__post_init__ calls it",
    },
}


def _method_owners(trees) -> dict[str, set[str]]:
    """Each method name (dunders exempt) that two or more classes in
    ``trees`` define, with the names of those classes."""
    owners: dict[str, set[str]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)) and not (
                            item.name.startswith("__")
                            and item.name.endswith("__")):
                        owners.setdefault(item.name, set()).add(node.name)
    return {name: classes for name, classes in owners.items()
            if len(classes) > 1}


def _unexplained_shares(owners, table) -> list[str]:
    """Names whose defining classes differ from their ``table`` entry: an
    unlisted shared name, a class without a reason, or a stale entry."""
    return [f"{name}: defined by {sorted(owners.get(name, ()))}, "
            f"listed for {sorted(table.get(name, {}))}"
            for name in sorted(set(owners) | set(table))
            if owners.get(name, set()) != set(table.get(name, {}))]


def test_every_shared_method_name_has_a_reason():
    owners = _method_owners(_package_trees())
    assert len(owners) >= 5, "the scan found too few shared names"
    unexplained = _unexplained_shares(owners, SHARED_METHODS)
    assert not unexplained, \
        "method names shared without a reason:\n" + "\n".join(unexplained)


def test_a_planted_shared_method_is_caught():
    planted = ast.parse(
        'class Box:\n'
        '    def grow(self):\n'
        '        return 1\n'
        '    def __len__(self):\n'
        '        return 0\n'
        'class Tree:\n'
        '    @property\n'
        '    def grow(self):\n'
        '        return 2\n'
        '    def __len__(self):\n'
        '        return 0\n'
        '    def shed(self):\n'
        '        return 3\n')
    owners = _method_owners(_package_trees() + [planted])
    assert _unexplained_shares(owners, SHARED_METHODS) == [
        "grow: defined by ['Box', 'Tree'], listed for []"]
    stale = dict(SHARED_METHODS, shed={"Tree": "a reason for one class"})
    assert _unexplained_shares(_method_owners(_package_trees()), stale) == [
        "shed: defined by [], listed for ['Tree']"]


def _attributes_read(tree: ast.AST) -> set[str]:
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def _fields(tree: ast.AST):
    """(class name, field name, line) of every annotated class field in
    ``tree``."""
    return [(node.name, item.target.id, item.lineno)
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for item in node.body if isinstance(item, ast.AnnAssign)
            and isinstance(item.target, ast.Name)]


def _unread_fields(tree: ast.AST, read: set[str]) -> list[str]:
    """Annotated fields of the classes in ``tree`` that no attribute load
    in ``read`` names."""
    return [f"{owner}.{name} (line {line})"
            for owner, name, line in _fields(tree) if name not in read]


# Each annotated field of ``src/amalgam`` whose name other receivers also
# read, with the readers on the class's own receivers, since a read of
# the name elsewhere proves nothing.
SHARED_FIELDS = {
    "algebra": {
        "PrincipalIdeal": "PrincipalIdeal.__post_init__ and "
                          "PrincipalIdeal.is_proper read self.algebra",
        "PushoutResult": "boolalg.pushout_independence reads po.algebra",
        "Quotient": "boolalg.rebase_with_element reads q.algebra",
    },
    "atom_ids": {
        "K1Structure": "K1Structure.ctx, all_ids and canonical_key read "
                       "self.atom_ids; checks.check_Kminus1 reads "
                       "M.atom_ids",
        "P1Context": "P1Context.__post_init__, full_mask and atom read "
                     "self.atom_ids; p1.materialize reads ctx.atom_ids",
    },
    "atom_map": {
        "Quotient": "Quotient.project and Quotient.lift read self.atom_map",
        "TransportMap": "TransportMap.apply reads self.atom_map",
    },
    "b_star": {
        "K1Witness": "checks.check_K1 compares w.b_star with the context's; "
                     "checks._within_algebra reads M.witness.b_star",
    },
    "constants": {
        "FiniteStructure": "FiniteStructure.validate and "
                           "structures.generate_substructure read "
                           "M.constants",
        "Vocabulary": "FiniteStructure.validate and "
                      "backends.structure_position_valid read "
                      "vocabulary.constants",
    },
    "extend": {
        "AmalgamationClass": "fraisse.build_generic and "
                             "fraisse.richness_defect call cls.extend",
    },
    "functions": {
        "FiniteStructure": "FiniteStructure.restrict and "
                           "structures.generate_substructure read "
                           "M.functions",
        "Vocabulary": "FiniteStructure.__post_init__ reads "
                      "self.vocabulary.functions",
    },
    "items": {
        "CheckReport": "CheckReport.passed and CheckReport.failing read "
                       "self.items",
    },
    "key": {
        "ClauseResult": "CheckReport.failing reads item.key",
    },
    "p0_map": {
        "MatchEmbedding": "MatchEmbedding.key reads self.p0_map; "
                          "embeddings.extend_match and "
                          "ops.amalgamate_free read f.p0_map and "
                          "into_small.p0_map",
        "TransportMap": "the P0 part of AmalgamResult.small_embedding, the "
                        "embedding of N2 that ops.amalgamate_free returns; "
                        "without it that embedding would not say where "
                        "N2's P0 ids go (test_k1_ops reads it)",
    },
    "p2_map": {
        "MatchEmbedding": "MatchEmbedding.key reads self.p2_map; "
                          "embeddings.extend_match and "
                          "ops.amalgamate_free read f.p2_map and "
                          "into_small.p2_map",
        "TransportMap": "checks.check_free_extension and "
                        "checks.compose_free_witnesses read t.p2_map",
    },
    "passed": {
        "ClauseResult": "CheckReport.passed and CheckReport.failing read "
                        "item.passed",
    },
    "r": {
        "KrStructure": "KrStructure.tuples and kdim.witness_form read M.r",
        "SurveyTable": "SurveyTable.to_csv reads self.r",
    },
    "relations": {
        "FiniteStructure": "FiniteStructure.restrict and "
                           "structures.relation_signature read M.relations",
        "Vocabulary": "FiniteStructure.__post_init__ reads "
                      "self.vocabulary.relations",
    },
    "source": {
        "BAEmbedding": "BAEmbedding.__post_init__ and boolalg.pushout read "
                       "e.source",
        "Embedding": "Embedding.validate reads self.source",
    },
    "target": {
        "BAEmbedding": "BAEmbedding.__post_init__ and boolalg._fiber read "
                       "e.target",
        "Embedding": "Embedding.validate reads self.target",
    },
    "trunc": {
        "K1Structure": "K1Structure.generator_elements and "
                       "embeddings.is_valid_match read M.trunc",
        "KrStructure": "KrStructure.restriction and kdim.witness_form read "
                       "M.trunc",
    },
    "universe": {
        "FiniteStructure": "FiniteStructure.validate, restrict and size "
                           "read self.universe",
        "KrStructure": "KrStructure.tuples and kdim.max_independent_size "
                       "read M.universe",
    },
    "values": {
        "KrStructure": "kdim.check_membership and kdim.witness_form read "
                       "M.values",
    },
    "witness": {
        "AmalgamResult": "engine.build_generic_k1 reads r.witness",
        "K1Structure": "checks.check_K1 and checks._within_algebra read "
                       "M.witness",
    },
}

BUILTIN_ATTRIBUTES = {name for kind in (dict, list, set, frozenset, tuple,
                                        str, int)
                      for name in dir(kind) if not name.startswith("__")}


def _shadowed_fields(trees) -> dict[str, set[str]]:
    """Each field name in ``trees`` that two or more classes declare, or
    that is also a builtin container attribute or the name of a method
    some class in ``trees`` defines, with the classes that declare it as
    a field."""
    methods = {item.name for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) for item in node.body
               if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}
    owners: dict[str, set[str]] = {}
    for tree in trees:
        for owner, name, _ in _fields(tree):
            owners.setdefault(name, set()).add(owner)
    return {name: classes for name, classes in owners.items()
            if len(classes) > 1 or name in BUILTIN_ATTRIBUTES
            or name in methods}


def test_every_field_is_read():
    read = set().union(*map(_attributes_read, _trees().values()))
    unread = [f"{path}: {name}" for path, tree in _trees().items()
              if path.startswith("src/amalgam/")
              for name in _unread_fields(tree, read)]
    assert not unread, "a field no code reads:\n" + "\n".join(unread)
    unexplained = _unexplained_shares(_shadowed_fields(_package_trees()),
                                      SHARED_FIELDS)
    assert not unexplained, \
        "fields other receivers also read, without a reason:\n" + \
        "\n".join(unexplained)


def test_an_unread_field_is_caught():
    tree = ast.parse(
        'class Box:\n'
        '    size: int\n'
        '    label: str = ""\n'
        '    def grow(self):\n'
        '        self.label = "big"\n'
        '        return self.size + 1\n')
    assert _unread_fields(tree, _attributes_read(tree)) == ["Box.label (line 3)"]


def test_a_planted_shadowed_field_is_caught():
    planted = ast.parse(
        'class Box:\n'
        '    items: list\n'
        '    key: str\n'
        '    label: str\n')
    shadowed = _shadowed_fields(_package_trees() + [planted])
    assert _unexplained_shares(shadowed, SHARED_FIELDS) == [
        "items: defined by ['Box', 'CheckReport'], listed for "
        "['CheckReport']",
        "key: defined by ['Box', 'ClauseResult'], listed for "
        "['ClauseResult']"]
    stale = dict(SHARED_FIELDS, label={"Box": "a reason for a field that "
                                              "no other receiver reads"})
    assert _unexplained_shares(_shadowed_fields(_package_trees()), stale) == [
        "label: defined by [], listed for ['Box']"]


def test_a_planted_field_two_classes_declare_is_caught():
    planted = ast.parse(
        'class Box:\n'
        '    universe: tuple\n'
        '    label: str\n'
        'class Tag:\n'
        '    label: str\n'
        '    colour: str\n')
    shadowed = _shadowed_fields(_package_trees() + [planted])
    assert _unexplained_shares(shadowed, SHARED_FIELDS) == [
        "label: defined by ['Box', 'Tag'], listed for []",
        "universe: defined by ['Box', 'FiniteStructure', 'KrStructure'], "
        "listed for ['FiniteStructure', 'KrStructure']"]


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
