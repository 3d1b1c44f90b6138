"""Source hygiene: every module uses each name it imports.

Package ``__init__`` modules are skipped, since they import to
re-export; ``from __future__`` imports are compiler directives.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in (ROOT / "src" / "foresthopf", ROOT / "tests")
                 for p in d.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by the imports of a module and never loaded in it."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_guard_sees_an_unused_import():
    assert unused_imports("import os\nfrom math import pi, tau\n"
                          "print(tau)\n") == [(1, "os"), (2, "pi")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
