"""Every exported name resolves, and each public name is declared once.

No ``__all__`` lists a deleted helper, and ``lgqfi.__all__`` is its modules'
``__all__`` lists in one fixed order, with no name in two of them.
"""

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


#: The modules ``lgqfi`` republishes, in the order of ``lgqfi.__all__``.
PUBLISHED = ["errors", "linalg", "models", "kernels", "spectral", "bounds", "response",
             "protocols"]


def test_package_all_is_the_module_all_lists():
    module_lists = [importlib.import_module(f"lgqfi.{name}").__all__ for name in PUBLISHED]
    expected = ["__version__"] + [attr for names in module_lists for attr in names]
    assert len(set(lgqfi.__all__)) == len(lgqfi.__all__), "lgqfi.__all__ has duplicates"
    assert lgqfi.__all__ == expected
    owners = {}
    for name, names in zip(PUBLISHED, module_lists):
        for attr in names:
            assert attr not in owners, f"{attr} is public in both {owners[attr]} and {name}"
            owners[attr] = name
