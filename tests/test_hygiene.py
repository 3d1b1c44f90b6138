"""Source hygiene: every module uses each name it imports, every
library memo is bounded, every name the benchmark traces exists, and
only coeffs.SparseSum decides which sparse sums may be added and
compared.

Package ``__init__`` modules are skipped by the import check, since they
import to re-export; ``from __future__`` imports are compiler
directives.  A memo is a module-level name ending in ``_MEMO``; it is
bounded when the same module sets ``<NAME>_CAP`` to an integer constant.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in (ROOT / "src" / "foresthopf", ROOT / "tests")
                 for p in d.glob("*.py") if p.name != "__init__.py")
LIBRARY = sorted((ROOT / "src" / "foresthopf").glob("*.py"))


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


def _module_values(tree):
    """The values bound to plain names at module level."""
    values = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                values[target.id] = node.value
    return values


def _is_int_constant(node):
    """An expression of integer literals and arithmetic operators only."""
    if node is None:
        return False
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant):
            if type(sub.value) is not int:
                return False
        elif not isinstance(sub, (ast.BinOp, ast.UnaryOp, ast.operator,
                                  ast.unaryop)):
            return False
    return True


def memos(source):
    """(memo names, those without an integer <NAME>_CAP) of a module."""
    values = _module_values(ast.parse(source))
    names = sorted(name for name in values if name.endswith("_MEMO"))
    return names, [name for name in names
                   if not _is_int_constant(values.get(name + "_CAP"))]


def test_guard_sees_an_unbounded_memo():
    source = ("_A_MEMO = {}\n_A_MEMO_CAP = 1 << 4\n_B_MEMO = {}\n"
              "_C_MEMO = {}\n_C_MEMO_CAP = LIMIT\n_D_MEMO: dict = {}\n"
              "_D_MEMO_CAP = '9'\n")
    assert memos(source) == (["_A_MEMO", "_B_MEMO", "_C_MEMO", "_D_MEMO"],
                             ["_B_MEMO", "_C_MEMO", "_D_MEMO"])


def test_guard_sees_the_library_memos():
    found = {name for path in LIBRARY for name in memos(path.read_text())[0]}
    assert {"_SBAR_MEMO", "_CHI_MEMO", "_SECTOR_MEMO", "_CUTS_MEMO",
            "_WORD_INTEGRAL_MEMO", "_ORDERED_MEMO", "_PLAIN_TREE_MEMO",
            "_PLAIN_FOREST_MEMO"} <= found


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_every_memo_is_bounded(path):
    assert memos(path.read_text())[1] == []


# The names perfbench/tracing.py still lists although the library no
# longer has them; the traced smoke run in CI allows exactly these.
PINNED_MISSING = ["forests.antichains", "forests.heap_order_lifts",
                  "fourier.skeleton_value", "hopf.CKForests.antipode"]


def test_traced_names_resolve():
    # the tracer wraps the library as in a traced benchmark round and
    # lists the names of CUM and CALLS it found nothing for
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    importlib.import_module("foresthopf")   # install reads its modules
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.missing() == PINNED_MISSING


# SparseSum defines these once, over (space, terms); a sparse-sum type
# that defined its own would keep a second rule for its space
SPACE_METHODS = {"_check", "_with_terms", "__eq__", "__hash__"}


def space_overrides(sources):
    """(class, name) for each name of SPACE_METHODS that a class deriving
    from SparseSum, directly or through another class of the sources,
    defines or assigns in its body."""
    classes = [node for source in sources
               for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.ClassDef)]
    sums = {"SparseSum"}
    grown = True
    while grown:
        grown = False
        for node in classes:
            if node.name not in sums and any(
                    isinstance(base, ast.Name) and base.id in sums
                    for base in node.bases):
                sums.add(node.name)
                grown = True
    found = []
    for node in classes:
        if node.name == "SparseSum" or node.name not in sums:
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                names = [item.name]
            elif isinstance(item, ast.Assign):
                names = [t.id for t in item.targets
                         if isinstance(t, ast.Name)]
            else:
                continue
            found.extend((node.name, name) for name in names
                         if name in SPACE_METHODS)
    return sorted(found)


def test_guard_sees_a_space_override():
    sources = ["class SparseSum:\n    def __eq__(self, other): pass\n",
               "class A(SparseSum):\n    def _check(self, other): pass\n"
               "    def __mul__(self, other): pass\n"
               "class B(A):\n    __hash__ = None\n"
               "class C:\n    def __eq__(self, other): pass\n"]
    assert space_overrides(sources) == [("A", "_check"), ("B", "__hash__")]


def test_only_sparse_sum_owns_the_space():
    assert space_overrides([p.read_text() for p in LIBRARY]) == []
