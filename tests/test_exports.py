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


def test_core_republishes_the_model():
    from movestar import core, model
    assert [n for n in model.__all__ if getattr(core, n) is not getattr(model, n)] == []
    assert set(core.__all__) - set(model.__all__) == {
        "DriveCycle", "CycleResult", "classify_opmode_array", "assemble_result",
        "aggregate_cycle"}


def test_supported_units_are_the_models():
    from movestar import cycleio, model
    assert cycleio.SUPPORTED_UNITS is model.SUPPORTED_UNITS == ("m/s", "mph", "km/h")


def test_no_other_module_imports_a_model_name_from_core():
    import ast
    from pathlib import Path

    from movestar import model
    src = Path(importlib.import_module("movestar").__file__).parent
    found = [(path.name, alias.name) for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.ImportFrom) and node.module == "core"
             for alias in node.names if alias.name in model.__all__]
    assert found == []
