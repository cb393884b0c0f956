"""Every function, class and method the package defines is used somewhere.

A top-level function or class of ``src/cuntzlab``, or a method of such a
class, must be named again somewhere in the package, the tests or the
benchmark, outside its own definitions; otherwise it is library surface
that nothing reaches.  Names are matched as whole identifiers in the text,
so a call, an import, an attribute access and a string that names a
traced function all count.  Dunder methods are called by the language and
are skipped, and so is this file.
"""

import ast
import re
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
PACKAGE = ROOT / "src" / "cuntzlab"


def _definitions(tree, module):
    """(qualified name, bare name) of each top-level def, class and method."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((f"{module}.{node.name}", node.name))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    out.append((f"{module}.{node.name}.{item.name}", item.name))
    return [(q, n) for q, n in out if not (n.startswith("__") and n.endswith("__"))]


def _unreached(definitions, sources):
    """Qualified names whose bare name occurs no more often than it is defined."""
    defined = Counter(name for _, name in definitions)
    seen = Counter()
    for text in sources:
        seen.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text))
    return sorted(q for q, name in definitions if seen[name] <= defined[name])


def test_unreached_names_are_found():
    package = "def used():\n    pass\n\nclass Box:\n    def lid(self):\n        pass\n"
    definitions = _definitions(ast.parse(package), "m")
    assert _unreached(definitions, [package]) == ["m.Box", "m.Box.lid", "m.used"]
    assert _unreached(definitions, [package, "Box().lid(); used()"]) == []


def test_every_definition_is_reached():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    definitions = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        definitions += _definitions(tree, path.stem)
    paths = modules + sorted(TESTS.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    sources = [p.read_text(encoding="utf-8") for p in paths if p != Path(__file__).resolve()]
    assert _unreached(definitions, sources) == []
