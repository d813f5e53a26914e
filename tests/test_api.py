"""Every exported name resolves: no ``__all__`` lists a deleted helper."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import lgqfi

MODULES = [m.name for m in pkgutil.iter_modules(lgqfi.__path__) if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"lgqfi.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"lgqfi.{name}.__all__ names missing attributes: {missing}"


def test_package_all_resolves():
    missing = [attr for attr in lgqfi.__all__ if not hasattr(lgqfi, attr)]
    assert not missing, f"lgqfi.__all__ names missing attributes: {missing}"
