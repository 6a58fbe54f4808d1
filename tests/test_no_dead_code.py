"""No definition without a caller: every function, class and method
defined in ``src/amalgam`` (dunders exempt) is named somewhere in the
Python files under ``src/``, ``tests/`` or ``perfbench/`` besides its own
definition.  No import without a use: every name a module under
``src/amalgam`` or ``tests/`` imports is read in that module, unless the
import line is marked ``# noqa: F401`` (a re-export)."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "amalgam"
SEARCHED = ("src", "tests", "perfbench")
LINTED = (PACKAGE, ROOT / "tests")
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


def _word_counts() -> Counter:
    words: Counter = Counter()
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            words.update(re.findall(r"\w+", path.read_text()))
    return words


def test_every_definition_is_named_elsewhere():
    definitions = _definitions()
    assert len(definitions) > 100, "the scan found too few definitions"
    defined = Counter(name for _, name in definitions)
    words = _word_counts()
    dead = sorted(f"{path}: {name}" for path, name in definitions
                  if words[name] <= defined[name])
    assert not dead, "defined but never named elsewhere:\n" + "\n".join(dead)


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
