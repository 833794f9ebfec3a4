"""Every name a module of the package exports resolves.

perfbench's tracer looks up each `__all__` name with getattr, so a stale
entry would break every traced benchmark run, not only an import.
"""

import importlib
import pkgutil

import pytest

import hsde

MODULES = ["hsde"] + [f"hsde.{m.name}" for m in pkgutil.iter_modules(hsde.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [attr for attr in exported if not hasattr(module, attr)] == []
