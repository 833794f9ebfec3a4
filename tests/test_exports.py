"""Every name a module of the package exports resolves and explains itself.

perfbench's tracer looks up each `__all__` name with getattr, so a stale
entry would break every traced benchmark run, not only an import.
"""

import dataclasses
import importlib
import inspect
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


@pytest.mark.parametrize("name", MODULES)
def test_exported_functions_and_classes_have_docstrings(name):
    # a class's own docstring, not one it inherits; a dataclass left
    # without one gets its generated signature "Name(field: type, ...)"
    module = importlib.import_module(name)
    missing = []
    for attr in getattr(module, "__all__", ()):
        obj = getattr(module, attr)
        if inspect.isfunction(obj):
            doc = obj.__doc__
        elif inspect.isclass(obj):
            doc = vars(obj).get("__doc__")
            if dataclasses.is_dataclass(obj) and (doc or "").startswith(f"{obj.__name__}("):
                doc = None
        else:
            continue
        if not (doc or "").strip():
            missing.append(attr)
    assert missing == []
