"""Tests for the package's exported names."""

import importlib
import inspect
import pkgutil
import sys

import pytest

import telebell

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(telebell.__path__) if not info.name.startswith("_")
)


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"telebell.{name}")
    assert [export for export in module.__all__ if not hasattr(module, export)] == []


def test_package_reexports_are_exported_at_home():
    # each function or class the package re-exports is listed in the
    # ``__all__`` of the module that defines it
    unlisted = [
        name
        for name, value in vars(telebell).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and name not in sys.modules[value.__module__].__all__
    ]
    assert unlisted == []
