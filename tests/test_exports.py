"""Every name a module exports through __all__ exists, so a deleted helper
cannot linger as a stale export."""

import importlib

import pytest

import chamberwalks

MODULES = ["chamberwalks"] + [f"chamberwalks.{name}" for name in chamberwalks.__all__]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_exist(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
