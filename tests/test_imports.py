"""Every name a module imports at top level is used in that module, and
importing a module loads no package module above it.

No linter runs on this package or its tests, so an import left behind by a
refactor would otherwise go unnoticed.  The package root imports nothing,
so each name has one import path, in its module.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "cuntzlab"


def _unused_imports(tree):
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "annotations":
                    imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= {
        n.value.id
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
    }
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def _unused_by_file(paths):
    assert paths
    unused = {}
    for path in paths:
        names = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        if names:
            unused[path.name] = names
    return unused


def test_no_unused_top_level_imports():
    assert _unused_by_file(sorted(PACKAGE.glob("*.py"))) == {}


def test_no_unused_imports_in_tests():
    assert _unused_by_file(sorted(TESTS.glob("*.py"))) == {}


@pytest.mark.parametrize(
    "module, loaded",
    [
        ("cuntzlab", ["cuntzlab"]),
        ("cuntzlab.scalars", ["cuntzlab", "cuntzlab.scalars"]),
    ],
)
def test_import_loads_no_higher_layer(module, loaded):
    code = (
        f"import sys, {module}\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'cuntzlab')))"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == loaded
