"""Every name a module exports through __all__ exists, is used outside its
module and has a caller outside the tests, every public top-level name is
exported, every private helper a docstring names is defined, so a deleted
helper cannot linger as a stale export or a stale reference, every module
imports at its top, and the docstring examples hold."""

import ast
import doctest
import importlib
import inspect
import pathlib
import re

import pytest

import chamberwalks

MODULES = ["chamberwalks"] + [f"chamberwalks.{name}" for name in chamberwalks.__all__]
SRC = pathlib.Path(chamberwalks.__file__).resolve().parent
ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_exist(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_exports_are_named_outside_their_module():
    """Every exported function or constant is named by another module of the
    package, a script, a test or the benchmark; one that only its own module
    names is a helper, not surface.  Classes are exempt: they are the types
    the surface returns."""
    paths = [*SRC.glob("*.py"), *(path for folder in ("scripts", "tests", "perfbench")
                                  for path in (ROOT / folder).rglob("*.py"))]
    texts = {path.resolve(): path.read_text() for path in paths}
    unnamed = []
    for module in chamberwalks.__all__:
        mod = importlib.import_module(f"chamberwalks.{module}")
        own = SRC / f"{module}.py"
        for name in mod.__all__:
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not inspect.isclass(getattr(mod, name)) and not any(
                    word.search(text) for path, text in texts.items() if path != own):
                unnamed.append(f"{module}.{name}")
    assert unnamed == []


def _names_used(source: str) -> set:
    """Every name a source reads, as a bare name or as an attribute.  A def
    binds its name and __all__ lists it as a string, so neither counts."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_exports_have_a_caller_outside_the_tests():
    """Every exported function or constant is used by the package itself
    (its own module counts), a script or the benchmark.  One that only the
    tests use is an oracle or a wrapper, and belongs in the tests.  Classes
    are exempt, as above."""
    assert _names_used("__all__ = ['f']\ndef f(): return g.h(k)\n") == {"g", "h", "k"}
    paths = [*SRC.glob("*.py"), *(path for folder in ("scripts", "perfbench")
                                  for path in (ROOT / folder).rglob("*.py"))]
    used = set().union(*(_names_used(path.read_text()) for path in paths))
    unused = []
    for module in chamberwalks.__all__:
        mod = importlib.import_module(f"chamberwalks.{module}")
        unused += [f"{module}.{name}" for name in mod.__all__
                   if not inspect.isclass(getattr(mod, name)) and name not in used]
    assert unused == []


def test_docstring_examples_run():
    """The package's docstring examples are run, and hold."""
    attempted = failed = 0
    for module in chamberwalks.__all__:
        result = doctest.testmod(importlib.import_module(f"chamberwalks.{module}"))
        attempted += result.attempted
        failed += result.failed
    assert attempted >= 3
    assert failed == 0


def _public_definitions(source: str) -> list:
    """The functions, classes and assigned names a module source defines at
    its top level without a leading underscore, in source order."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [leaf.id for target in targets for leaf in ast.walk(target)
                      if isinstance(leaf, ast.Name)]
    return [name for name in names if not name.startswith("_")]


def test_public_definitions_are_exported():
    """Every public top-level name of a module is in its __all__, so with
    the test above a name is public exactly when something outside its
    module uses it.  The command-line module has no __all__."""
    assert _public_definitions("import os\nA, (B, _c) = 1, (2, 3)\nD: int = 4\n"
                               "def e(): f = 1\nclass G: h = 1\n_i = 5\n") == [
        "A", "B", "D", "e", "G"]
    unexported = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "cli":
            continue
        module = "chamberwalks" if path.stem == "__init__" else f"chamberwalks.{path.stem}"
        exported = set(importlib.import_module(module).__all__)
        unexported += [f"{module}.{name}" for name in _public_definitions(path.read_text())
                       if name not in exported]
    assert unexported == []


def test_no_function_imports_locally():
    """A function-local import saves nothing once the package __init__ has
    loaded every module and numpy."""
    local = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Import):
                        local += [(path.stem, fn.name, alias.name) for alias in node.names]
                    elif isinstance(node, ast.ImportFrom):
                        module = "." * node.level + (node.module or "")
                        local.append((path.stem, fn.name, module))
    assert local == []


def _private_reaches(source: str) -> list:
    """Every `<package module>._name` a source names: a private name imported
    from a module of the package, or read as an attribute of one."""
    modules = set(chamberwalks.__all__)
    tree = ast.parse(source)
    alias, found = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            origin = ("." * node.level + (node.module or "")).removeprefix("chamberwalks")
            if origin in ("", "."):
                alias.update((a.asname or a.name, a.name) for a in node.names
                             if a.name in modules)
            elif origin.lstrip(".") in modules:
                found += [f"{origin.lstrip('.')}.{a.name}" for a in node.names
                          if a.name.startswith("_")]
        elif isinstance(node, ast.Import):
            alias.update((a.asname, a.name.rpartition(".")[2]) for a in node.names
                         if a.asname and a.name.rpartition(".")[2] in modules)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in alias and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            found.append(f"{alias[node.value.id]}.{node.attr}")
    return found


def test_no_module_reaches_into_private_helpers():
    """The package and its scripts use each module through its public names
    only, so a private helper can change without breaking another module.
    Tests and the benchmark may reach in: they check and time the helpers."""
    assert _private_reaches("from . import hecke as H, weyl\n"
                            "from chamberwalks.reps import _x\n"
                            "H._acc(weyl._y, H.unit, weyl.__name__)\n") == [
        "reps._x", "hecke._acc", "weyl._y"]
    paths = [*SRC.glob("*.py"), *(ROOT / "scripts").rglob("*.py")]
    assert {path.name: reach for path in sorted(paths)
            if (reach := _private_reaches(path.read_text()))} == {}


def _docstring_names_and_definitions():
    """The private names (an underscore, then at least two characters)
    named in the package's docstrings, each with the modules that name it,
    and every name the package source binds: functions, classes, assigned
    names and attributes, and arguments."""
    named, defined = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                defined.add(node.attr)
            elif isinstance(node, ast.arg):
                defined.add(node.arg)
            if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                for name in re.findall(r"(?<!\w)_[A-Za-z]\w+", ast.get_docstring(node) or ""):
                    named.setdefault(name, set()).add(path.name)
    return named, defined


def test_docstrings_name_existing_private_helpers():
    """A docstring that names a deleted private helper points the reader at
    code that is gone."""
    named, defined = _docstring_names_and_definitions()
    assert named  # the scan reads the docstrings at all
    assert {name: sorted(where) for name, where in named.items()
            if name not in defined} == {}
