"""Every name that the package and its submodules export resolves, and
every public function or class that a submodule defines is exported."""

import importlib
import inspect
import pkgutil

import pytest

import smilansky_lab

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(smilansky_lab.__path__))


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"smilansky_lab.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"smilansky_lab.{name}.__all__ names {missing}"


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_every_public_definition(name):
    module = importlib.import_module(f"smilansky_lab.{name}")
    public = {n for n, obj in vars(module).items()
              if not n.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
              and obj.__module__ == module.__name__}
    # a module without __all__ (errors) exports every public name
    unlisted = sorted(public - set(getattr(module, "__all__", public)))
    assert not unlisted, f"smilansky_lab.{name} defines {unlisted}, not in its __all__"


def test_package_exports_resolve():
    missing = [n for n in smilansky_lab.__all__ if not hasattr(smilansky_lab, n)]
    assert not missing, f"smilansky_lab.__all__ names {missing}"
