"""Every name a module exports through __all__ exists, and every private
helper a docstring names is defined, so a deleted helper cannot linger as a
stale export or a stale reference."""

import ast
import importlib
import pathlib
import re

import pytest

import chamberwalks

MODULES = ["chamberwalks"] + [f"chamberwalks.{name}" for name in chamberwalks.__all__]
SRC = pathlib.Path(chamberwalks.__file__).resolve().parent


@pytest.mark.parametrize("module", MODULES)
def test_all_names_exist(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


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
