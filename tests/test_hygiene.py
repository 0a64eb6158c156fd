"""Source hygiene: no module of the package imports a name it never uses,
no module-level function or class of the package goes unused, no public
entry point is reached by tests alone, no public entry point takes a mode
beside an object that carries one, no code but `local_dimension` runs a
local standard basis, no handler catches every exception, and every name
the benchmark's tracer wraps exists."""

import ast
import functools
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
SOURCES = sorted((ROOT / "src" / "possing").glob("*.py"))
# trees whose code may load a definition of the package
LOADING_DIRS = ("src", "tests", "scripts", "perfbench")


def unused_imports(source: str) -> list:
    """Names bound by import statements and never loaded; `__all__` counts as a use."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*" or (
                    isinstance(node, ast.ImportFrom) and node.module == "__future__"
                ):
                    continue
                bound = alias.asname or alias.name.split(".")[0]
                imported.setdefault(bound, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(
                elt.value for elt in ast.walk(node.value) if isinstance(elt, ast.Constant)
            )
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_flags_unused_and_honours_all():
    source = "import os\nfrom typing import List, Optional\n__all__ = ['List']\n"
    assert unused_imports(source) == [(1, "os"), (2, "Optional")]


def loaded_names(source: str, strings: bool = False) -> set:
    """Names and attributes the source loads, plus its string constants
    when strings is set (so `__all__` entries count as uses)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def module_definitions(source: str) -> list:
    """(line, name) of the functions and classes defined at module level."""
    return [
        (node.lineno, node.name)
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]


@functools.cache
def used_names() -> frozenset:
    """Loads in every tree that may use the package; strings only in `src`."""
    return frozenset().union(*(
        loaded_names(path.read_text(), strings=top == "src")
        for top in LOADING_DIRS
        for path in (ROOT / top).rglob("*.py")
    ))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_definitions(path):
    used = used_names()
    assert [d for d in module_definitions(path.read_text()) if d[1] not in used] == []


def test_definition_detector_counts_loads_and_strings():
    source = "def f(): pass\ndef g(): return f()\nclass C: pass\n__all__ = ['C']\n"
    defined = module_definitions(source)
    assert [d for d in defined if d[1] not in loaded_names(source)] == [(2, "g"), (3, "C")]
    assert [d for d in defined if d[1] not in loaded_names(source, strings=True)] == [(2, "g")]


# trees whose loads make a public definition part of a code path the program
# runs; `__init__.py` only re-exports, and tests do not count
PROGRAM_DIRS = ("src", "scripts", "perfbench")
# public definitions that only tests may reach, with the reason
TEST_ONLY = {
    "bruteforce_local_dim": "the degree-graded oracle that tests check the fast paths against",
}


def public_definitions(source: str) -> list:
    """(line, name) of the public module-level functions and classes and of
    the public methods of module-level classes."""
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        found.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            found.extend(
                (item.lineno, item.name)
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            )
    return [(line, name) for line, name in found if not name.startswith("_")]


def without_annotations(source: str) -> str:
    """The source with every annotation blanked: naming a type runs no code path."""
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            node.annotation = None
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            node.returns = None
        elif isinstance(node, ast.AnnAssign):
            node.annotation = ast.Constant(None)
    return ast.unparse(tree)


@functools.cache
def program_names() -> frozenset:
    """Names and attributes loaded by the program itself, outside annotations."""
    return frozenset().union(*(
        loaded_names(without_annotations(path.read_text()))
        for top in PROGRAM_DIRS
        for path in (ROOT / top).rglob("*.py")
        if path.name != "__init__.py"
    ))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_test_only_entry_points(path):
    used = program_names() | set(TEST_ONLY)
    assert [d for d in public_definitions(path.read_text()) if d[1] not in used] == []


def test_entry_point_detector_covers_methods_and_skips_private():
    source = (
        "def f(): pass\ndef _g(): pass\nclass C:\n"
        "    def m(self): pass\n    def _h(self): pass\n    def __eq__(self, o): pass\n"
    )
    assert public_definitions(source) == [(1, "f"), (3, "C"), (4, "m")]
    caller = "def g(x: f) -> f:\n    y: f = C()\n    return y.m()\n"
    loads = loaded_names(without_annotations(caller))
    assert [d for d in public_definitions(source) if d[1] not in loads] == [(1, "f")]


# parameters whose object already carries a mode
MODE_CARRIERS = {"algebra", "basis"}


def mode_beside_carrier(source: str) -> list:
    """(line, name) of the public functions and methods that take a `mode`
    together with an `algebra` or a `basis`, whose own mode it could contradict."""
    public = set(public_definitions(source))
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        if (node.lineno, node.name) in public and "mode" in params and params & MODE_CARRIERS:
            found.append((node.lineno, node.name))
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_mode_beside_a_carrier(path):
    assert mode_beside_carrier(path.read_text()) == []


def test_mode_carrier_detector():
    source = (
        "def f(P, mode, algebra=None): pass\n"
        "def g(f, basis): pass\n"
        "def _h(mode, basis): pass\n"
        "class C:\n"
        "    def m(self, *, mode, basis): pass\n"
        "    def n(self, mode): pass\n"
    )
    assert mode_beside_carrier(source) == [(1, "f"), (5, "m")]


def std_basis_uses(source: str) -> list:
    """(line, module-level definition or None) of each load of `std_basis`,
    as a name or an attribute: a call, or a reference that could be called."""
    found = []
    for top in ast.parse(source).body:
        scope = getattr(top, "name", None)
        for node in ast.walk(top):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name == "std_basis" and isinstance(getattr(node, "ctx", None), ast.Load):
                found.append((node.lineno, scope))
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_local_dimension_runs_std_basis(path):
    """Milnor and Tjurina numbers are remembered on the Poly by
    `localalg.local_dimension`; any other caller of `std_basis` would bypass it."""
    allowed = {"local_dimension"} if path.name == "localalg.py" else set()
    assert [use for use in std_basis_uses(path.read_text()) if use[1] not in allowed] == []


def test_std_basis_detector():
    source = (
        "from possing.localalg import std_basis\n"
        "def local_dimension(f):\n    return std_basis(f)\n"
        "def g(f):\n    return localalg.std_basis(f)\n"
        "run = std_basis\n"
        "class C:\n    def m(self):\n        return [std_basis]\n"
        "def std_basis(gens):\n    std_basis = None\n"
    )
    assert std_basis_uses(source) == [(3, "local_dimension"), (5, "g"), (6, None), (9, "C")]


BROAD = {"Exception", "BaseException"}


def broad_handlers(source: str) -> list:
    """(line, caught) of each bare `except:` and each handler naming a catch-all class."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            found.append((node.lineno, "bare"))
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        found.extend(
            (node.lineno, t.id) for t in caught if isinstance(t, ast.Name) and t.id in BROAD
        )
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_broad_exception_handlers(path):
    assert broad_handlers(path.read_text()) == []


def test_broad_handler_detector():
    source = (
        "try:\n    pass\nexcept ValueError:\n    pass\n"
        "try:\n    pass\nexcept Exception:\n    pass\n"
        "try:\n    pass\nexcept (KeyError, BaseException):\n    pass\n"
        "try:\n    pass\nexcept:\n    pass\n"
    )
    assert broad_handlers(source) == [(7, "Exception"), (11, "BaseException"), (15, "bare")]


def test_all_names_are_package_attributes():
    import possing

    assert [name for name in possing.__all__ if not hasattr(possing, name)] == []


# traced names that name no code today, each kept until the benchmark drops it
ABSENT_TRACED = {"grading.graded_piece", "localalg.min_power_containment"}


def traced_names() -> set:
    """The qualified names that `perfbench/tracing.py` times, counts or hooks."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return (
        {q for qs in tracing.INCLUSIVE.values() for q in qs}
        | set(tracing.CALLS.values())
        | set(tracing.HOOKS)
    )


def resolves(qualname: str) -> bool:
    """Whether `layer.name[.attr]` names an attribute chain in `possing.<layer>`."""
    layer, *path = qualname.split(".")
    obj = importlib.import_module("possing." + layer)
    for attr in path:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_traced_names_resolve():
    """A renamed traced function would read zero in every traced run, silently."""
    assert {q for q in traced_names() if not resolves(q)} == ABSENT_TRACED
