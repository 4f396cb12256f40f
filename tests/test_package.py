"""Every name that the package and its submodules export resolves."""

import importlib
import pkgutil

import pytest

import smilansky_lab

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(smilansky_lab.__path__))


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"smilansky_lab.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"smilansky_lab.{name}.__all__ names {missing}"


def test_package_exports_resolve():
    missing = [n for n in smilansky_lab.__all__ if not hasattr(smilansky_lab, n)]
    assert not missing, f"smilansky_lab.__all__ names {missing}"
