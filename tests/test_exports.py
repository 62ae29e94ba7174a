"""Every name a module of the package exports resolves."""

import importlib
import pkgutil

import pytest

import ncfem

MODULES = sorted(m.name for m in pkgutil.iter_modules(ncfem.__path__, "ncfem."))


def test_modules_are_found():
    assert "ncfem.fespace" in MODULES and "ncfem.cli" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names {missing}, which it does not define"
