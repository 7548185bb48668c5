"""Every name a module lists in `__all__` exists, so star-imports work."""

import importlib

import pytest

MODULES = ["movestar", "movestar.model", "movestar.core", "movestar.cycleio", "movestar.session",
           "movestar.flatapi", "movestar.tables", "movestar.demo"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= namespace.keys()
