"""No definition without a caller: every function, class and method
defined in ``src/amalgam`` (dunders exempt) is named somewhere in the
Python files under ``src/``, ``tests/`` or ``perfbench/`` besides its own
definition."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "amalgam"
SEARCHED = ("src", "tests", "perfbench")
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
