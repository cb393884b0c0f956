"""Every function, class and method the package defines is reached.

A top-level function or class of ``src/cuntzlab``, or a method of such a
class, must be named again outside its own definition by code that runs
for a user or for the paper's checks: another live definition or the
top-level code of a package module, the benchmark (``bench/*.py``), or the
acceptance battery (``tests/test_acceptance.py``).  The re-exports of
``__init__.py`` do not count, and neither do the unit tests: a name that
only they reach is library surface kept for its tests, which belongs in
``tests/``.  Reach is transitive: a name that only unreached definitions
name is unreached too.  Names are matched as whole identifiers in the
text, so a call, an import, an attribute access and a string that names a
traced function all count.  In the package, comments and docstrings do not
count: prose that names a definition does not reach it.  Dunder methods are
called by the language: they are not checked, and their text counts as part
of their class.
"""

import ast
import io
import re
import tokenize
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
PACKAGE = ROOT / "src" / "cuntzlab"


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _identifiers(text):
    return re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text)


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _code_only(text):
    """The lines of ``text`` with comments and docstrings blanked out."""
    tree = ast.parse(text)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, *FUNCTIONS)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                if isinstance(first.value.value, str):
                    docstrings.add((first.lineno, first.col_offset))
    lines = text.splitlines()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        prose = tok.type == tokenize.COMMENT or (
            tok.type == tokenize.STRING and tok.start in docstrings
        )
        if not prose:
            continue
        (row, col), (end_row, end_col) = tok.start, tok.end
        for r in range(row, end_row + 1):
            line = lines[r - 1]
            lo = col if r == row else 0
            hi = end_col if r == end_row else len(line)
            lines[r - 1] = line[:lo] + " " * (hi - lo) + line[hi:]
    return lines


def _span(node):
    """The line numbers of a definition, decorators included."""
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return set(range(first, node.end_lineno + 1))


def _definitions(text, module):
    """The module split into definitions and the rest.

    Returns ``(definitions, rest)``: a (qualified name, bare name, text)
    triple for each top-level def, class and method, where a class's text
    leaves out its methods, and the module text outside every definition.
    """
    lines = _code_only(text)
    joined = lambda numbers: "\n".join(lines[i - 1] for i in sorted(numbers))  # noqa: E731
    out = []
    rest = set(range(1, len(lines) + 1))
    for node in ast.parse(text).body:
        if not isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            continue
        span = _span(node)
        rest -= span
        for item in node.body if isinstance(node, ast.ClassDef) else ():
            # dunder methods run whenever their class does
            if isinstance(item, FUNCTIONS) and not _dunder(item.name):
                span -= _span(item)
                out.append((f"{module}.{node.name}.{item.name}", item.name, joined(_span(item))))
        if not _dunder(node.name):
            out.append((f"{module}.{node.name}", node.name, joined(span)))
    return out, joined(rest)


def _unreached(definitions, sources):
    """Qualified names that no reached text names outside their own definition.

    ``sources`` always count; a definition's text counts while its name is
    reached.  Names drop out until none does, so the answer is transitive.
    """
    dead = set()
    while True:
        seen = Counter()
        for text in sources:
            seen.update(_identifiers(text))
        live = [(q, n, t) for q, n, t in definitions if q not in dead]
        for _, _, text in live:
            seen.update(_identifiers(text))
        # each live definition names itself once, in its def or class line
        own = Counter(n for _, n, _ in live)
        newly = {q for q, n, _ in live if seen[n] <= own[n]}
        if not newly:
            return sorted(dead)
        dead |= newly


def _package():
    definitions, rest = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        found, top = _definitions(path.read_text(encoding="utf-8"), path.stem)
        definitions += found
        rest.append(top)
    return definitions, rest


def test_unreached_names_are_found():
    package = (
        "def used():\n    helper()\n\ndef helper():\n    pass\n\n"
        "def orphan():\n    helper_of_orphan()\n\ndef helper_of_orphan():\n    pass\n\n"
        "class Box:\n    def __init__(self):\n        packed()\n\n    def lid(self):\n        pass\n\n"
        "def packed():\n    pass\n"
    )
    definitions, rest = _definitions(package, "m")
    assert rest.strip() == ""
    assert _unreached(definitions, [rest, "used(); Box().lid()"]) == [
        "m.helper_of_orphan",
        "m.orphan",
    ]
    # a method is reached by its own name, not by its class's
    assert _unreached(definitions, [rest, "used(); Box()"]) == [
        "m.Box.lid",
        "m.helper_of_orphan",
        "m.orphan",
    ]
    # a dunder method's text counts only while its class is reached
    assert "m.packed" in _unreached(definitions, [rest, "used()"])


def test_prose_does_not_reach():
    package = (
        '"""The module uses ``described``."""\n\n'
        "def used():\n"
        '    """Calls nothing, but names described and commented."""\n'
        "    # commented() would be reached by this comment\n"
        '    return "quoted"\n\n'
        "def described():\n    pass\n\n"
        "def commented():\n    pass\n\n"
        "def quoted():\n    pass\n"
    )
    definitions, rest = _definitions(package, "m")
    # a string that is not a docstring still names a definition
    assert _unreached(definitions, [rest, "used()"]) == ["m.commented", "m.described"]


def test_every_definition_is_reached():
    definitions, rest = _package()
    assert definitions
    callers = sorted((ROOT / "bench").glob("*.py")) + [TESTS / "test_acceptance.py"]
    sources = rest + [p.read_text(encoding="utf-8") for p in callers]
    assert _unreached(definitions, sources) == []
