"""Source hygiene: every module uses each name it imports, every
library memo is bounded, every name the benchmark traces exists, only
morphisms expands and stores T^sigma, only coeffs.SparseSum decides
which sparse sums may be added and compared, only coeffs.ExpSum
multiplies two sums, and no Hopf basis class defines its own equality
or hash.

Package ``__init__`` modules are skipped by the import check, since they
import to re-export; ``from __future__`` imports are compiler
directives.  A memo is any dict held by a library module or by a fresh
structure, or any attribute named ``*_MEMO`` or ``*_CACHE``; it is
bounded when it is a ``foresthopf.memo.Memo`` with an int cap of at
least 1 and a callable compute, or a ``foresthopf.memo.Intern``, whose
entries go with their objects.  The one exempt dict is the registry
``hopf.STRUCTURES``.  A character holds no dict at all: it calls the
function it was built from on every evaluation.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import foresthopf
from foresthopf import hopf, morphisms
from foresthopf.characters import Character
from foresthopf.coeffs import MultiPoly
from foresthopf.memo import Intern, Memo

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


def library_module(path):
    """The imported library module of a source file."""
    return importlib.import_module(
        "foresthopf" if path.stem == "__init__" else f"foresthopf.{path.stem}")


def _bounded(value):
    if isinstance(value, Intern):
        return True
    return isinstance(value, Memo) and type(value.cap) is int \
        and value.cap >= 1 and callable(value.compute)


def unbounded_memos(namespace, exempt=()):
    """The names in namespace, the attributes of a module or of an
    instance, that hold a dict, or are named as a memo or cache, and are
    neither a Memo with an int cap of at least 1 and a callable compute
    nor an Intern.  Dunder names and the objects in exempt are skipped."""
    return sorted(
        name for name, value in namespace.items()
        if not (name.startswith("__") and name.endswith("__"))
        and not any(value is obj for obj in exempt)
        and (isinstance(value, dict)
             or name.lower().endswith(("_memo", "_cache")))
        and not _bounded(value))


def test_guard_sees_an_unbounded_memo():
    namespace = {"_A_MEMO": Memo(1 << 4, len), "_B_MEMO": {}, "_X_CACHE": {},
                 "_C_MEMO": Memo(0, len), "_D_MEMO": Memo("9", len),
                 "_E_MEMO": Memo(True, len), "_f_cache": [], "TABLE": {1: 2},
                 "_G_INTERN": Intern(), "_H_INTERN": {}, "_I_MEMO": Intern(),
                 "_J_MEMO": Memo(5, None),
                 "REGISTRY": {"a": 1}, "LIMIT": 4, "__builtins__": {}}
    assert unbounded_memos(namespace, exempt=[namespace["REGISTRY"]]) \
        == ["TABLE", "_B_MEMO", "_C_MEMO", "_D_MEMO", "_E_MEMO", "_H_INTERN",
            "_J_MEMO", "_X_CACHE", "_f_cache"]


def test_guard_sees_the_library_memos():
    found = {(path.stem, name) for path in LIBRARY
             for name, value in vars(library_module(path)).items()
             if _bounded(value)}
    assert {("fourier", "_SBAR_MEMO"),
            ("fourier", "_CHI_MEMO"),
            ("fourier", "_SECTOR_MEMO"),
            ("fourier", "_CUTS_MEMO"),
            ("characters", "_WORD_INTEGRAL_MEMO"),
            ("morphisms", "_MATRIX_CACHE"),
            ("morphisms", "_T_SIGMA_MEMO"),
            ("forests", "_ORDERED_INTERN"),
            ("forests", "_PLAIN_TREE_INTERN"),
            ("forests", "_PLAIN_FOREST_INTERN"),
            ("perms", "_PERM_INTERN"),
            ("perms", "_DECORATED_INTERN"),
            ("words", "_WORD_INTERN")} <= found


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_every_memo_is_bounded(path):
    assert unbounded_memos(vars(library_module(path)),
                           exempt=[hopf.STRUCTURES]) == []


@pytest.mark.parametrize("instance",
                         [make() for make in hopf.STRUCTURES.values()],
                         ids=lambda obj: type(obj).__name__)
def test_every_instance_memo_is_bounded(instance):
    memos = [name for name, value in vars(instance).items()
             if isinstance(value, dict)]
    assert memos and unbounded_memos(vars(instance)) == []


def test_character_holds_no_dict():
    one = MultiPoly.one(("t",))
    phi = Character(hopf.Shuffle(), lambda b: one, one)
    phi(hopf.Shuffle().unit())
    assert [name for name, value in vars(phi).items()
            if isinstance(value, dict)] == []


# The names perfbench/tracing.py still lists although the library no
# longer has them: the one list of names a traced run may miss.  The two
# __init__ names counted validations, which the public constructors of
# the interned basis classes now do in __new__.
PINNED_MISSING = ["characters.fubini_tsigma",
                  "forests.OrderedForest.__init__", "forests.antichains",
                  "forests.heap_order_lifts", "fourier.skeleton_value",
                  "hopf.CKForests.antipode", "perms.Perm.__init__"]


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


def modules_naming(sources, name):
    """The modules, given as a dict from stem to source, whose code
    names ``name``: as a name, an attribute, an imported name or a
    definition.  Strings and comments do not count."""
    found = set()
    for stem, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            named = (node.id if isinstance(node, ast.Name)
                     else node.attr if isinstance(node, ast.Attribute)
                     else node.name if isinstance(
                         node, (ast.alias, ast.FunctionDef, ast.ClassDef))
                     else None)
            if named == name:
                found.add(stem)
    return sorted(found)


def test_guard_sees_a_module_naming_the_expansion():
    sources = {"a": "from .morphisms import _simplex_expansion\n",
               "b": "import morphisms\nmorphisms._simplex_expansion(s)\n",
               "c": "def _simplex_expansion(sigma): pass\n",
               "d": '"""_simplex_expansion"""\n# _simplex_expansion\n',
               "e": "from .morphisms import t_sigma\nt_sigma(s)\n"}
    assert modules_naming(sources, "_simplex_expansion") == ["a", "b", "c"]


def test_one_route_to_t_sigma():
    # T^sigma is expanded only inside morphisms, and stored only in its
    # memo; every other module reads it through t_sigma
    sources = {path.stem: path.read_text() for path in LIBRARY}
    assert modules_naming(sources, "_simplex_expansion") == ["morphisms"]
    assert [(path.stem, name) for path in LIBRARY
            for name, value in vars(library_module(path)).items()
            if isinstance(value, Memo)
            and value.compute is morphisms._simplex_expansion] \
        == [("morphisms", "_T_SIGMA_MEMO")]


# SparseSum defines these once, over (space, terms); a sparse-sum type
# that defined its own would keep a second rule for its space
SPACE_METHODS = {"_check", "_with_terms", "__eq__", "__hash__"}


def space_overrides(sources, methods=SPACE_METHODS):
    """(class, name) for each of the methods that a class deriving from
    SparseSum, directly or through another class of the sources, defines
    or assigns in its body."""
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
    return sorted((node.name, name) for node in classes
                  if node.name != "SparseSum" and node.name in sums
                  for name in class_defines(node, methods))


def class_defines(node, methods):
    """The names among methods that the body of a class node defines
    or assigns."""
    found = []
    for item in node.body:
        if isinstance(item, ast.FunctionDef):
            found.append(item.name)
        elif isinstance(item, ast.Assign):
            found.extend(t.id for t in item.targets
                         if isinstance(t, ast.Name))
    return [name for name in found if name in methods]


def test_guard_sees_a_space_override():
    sources = ["class SparseSum:\n    def __eq__(self, other): pass\n",
               "class A(SparseSum):\n    def _check(self, other): pass\n"
               "    def __mul__(self, other): pass\n"
               "class B(A):\n    __hash__ = None\n"
               "class C:\n    def __eq__(self, other): pass\n"]
    assert space_overrides(sources) == [("A", "_check"), ("B", "__hash__")]


def test_only_sparse_sum_owns_the_space():
    assert space_overrides([p.read_text() for p in LIBRARY]) == []


# ExpSum defines these once for MultiPoly and FreqExp; LinComb keeps a
# __mul__ of its own, by scalars only
PRODUCT_METHODS = {"_coerce", "__mul__", "__rmul__"}


def test_guard_sees_a_product_override():
    sources = ["class SparseSum:\n    def __rmul__(self, other): pass\n",
               "class ExpSum(SparseSum):\n    def __mul__(self, o): pass\n"
               "class A(ExpSum):\n    def _coerce(self, other): pass\n"
               "    __rmul__ = ExpSum.__mul__\n"
               "class C:\n    def __mul__(self, other): pass\n"]
    assert space_overrides(sources, PRODUCT_METHODS) == [
        ("A", "__rmul__"), ("A", "_coerce"), ("ExpSum", "__mul__")]


def test_only_exp_sum_owns_the_product():
    assert space_overrides([p.read_text() for p in LIBRARY],
                           PRODUCT_METHODS) == [
        ("ExpSum", "__mul__"), ("ExpSum", "__rmul__"), ("ExpSum", "_coerce"),
        ("LinComb", "__mul__")]


# At most one instance of each of these is alive (memo.Intern), so their
# equality and hash are those of object identity, done in C
BASIS_CLASSES = {"OrderedForest", "PlainTree", "PlainForest", "Perm",
                 "DecoratedPerm", "Word"}
IDENTITY_METHODS = {"__eq__", "__hash__"}


def basis_overrides(sources, classes=BASIS_CLASSES):
    """(class, name) for each of __eq__ and __hash__ that one of the
    classes defines or assigns in its body."""
    return sorted((node.name, name) for source in sources
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ClassDef) and node.name in classes
                  for name in class_defines(node, IDENTITY_METHODS))


def test_guard_sees_a_basis_override():
    sources = ["class Perm:\n    def __eq__(self, other): pass\n"
               "    def __len__(self): pass\n",
               "class Word:\n    __hash__ = None\n"
               "class Path:\n    def __hash__(self): pass\n"]
    assert basis_overrides(sources) == [("Perm", "__eq__"),
                                        ("Word", "__hash__")]


def test_basis_classes_keep_identity():
    sources = [p.read_text() for p in LIBRARY]
    assert basis_overrides(sources) == []
    for name in BASIS_CLASSES:
        cls = getattr(foresthopf, name)
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__
        assert "_hash" not in cls.__slots__
