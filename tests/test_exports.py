"""Every name a module of the package exports resolves and explains itself,
and every option it offers has a caller in the package.

perfbench's tracer looks up each `__all__` name with getattr, so a stale
entry would break every traced benchmark run, not only an import.
"""

import ast
import dataclasses
import importlib
import inspect
import pathlib
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


# exported options no call in src/ sets, each with the reason it stays
OPTIONS_WITHOUT_A_SRC_CALLER = {
    "chain.run_chain": (("chain_index",), "public API that selects a chain's streams"),
    "toy_exact.run_exact_chain": (("chain_index",), "public API that selects a chain's streams"),
    **{f"potentials.Potential.{name}": (("batch",), "the tracer pins the method, and "
                                                    "sub-potentials define the model: tests "
                                                    "check the split and the K rule on them")
       for name in ("value", "gradient", "hessian_vec")},
    "chain.ChainConfig": (("init",), "the one-step tests of integrator and exact-kernel "
                                     "chains and the 1.1e308 overflow test pin a chain's "
                                     "start through it"),
    **{f"repro.{name}": (params, "set through cli._do_report's fn(..., **kw)")
       for name, params in [
           ("report_exact_bottleneck", ("n", "seed", "regen_golden")),
           ("report_minibatch_gap", ("n", "reps", "seed", "regen_golden")),
           ("report_splitting_orders", ("n_trials", "seed", "n", "reps", "regen_golden"))]},
}


def _defaulted(fn: ast.FunctionDef, method: bool) -> list:
    """(position, name) of fn's parameters that have defaults; position is
    None for keyword-only ones and skips a method's self."""
    args = fn.args
    pos = args.posonlyargs + args.args
    if method and not any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list):
        pos = pos[1:]
    out = list(enumerate(p.arg for p in pos))[len(pos) - len(args.defaults):]
    return out + [(None, p.arg) for p, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None]


def _defaulted_fields(cls) -> list:
    """(position, name) of a dataclass's defaulted fields, position counting
    every field its generated __init__ takes: options as a function's
    defaulted parameters are."""
    fields = [f for f in dataclasses.fields(cls) if f.init]
    return [(i, f.name) for i, f in enumerate(fields)
            if f.default is not dataclasses.MISSING
            or f.default_factory is not dataclasses.MISSING]


def _sets(call: ast.Call, position, name: str) -> bool:
    """Whether call may set the parameter: by keyword, through **, or by
    position (a *args counts)."""
    if any(k.arg in (None, name) for k in call.keywords):
        return True
    return position is not None and (len(call.args) > position
                                     or any(isinstance(a, ast.Starred) for a in call.args))


def test_every_option_has_a_src_caller():
    # a call is matched to a function by its name alone, so a same-named
    # call elsewhere can hide an unused option, but a flagged one is unused
    trees = {p.stem: ast.parse(p.read_text())
             for p in sorted(pathlib.Path(hsde.__file__).parent.glob("*.py"))}
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                calls.setdefault(getattr(func, "id", getattr(func, "attr", None)), []).append(node)
    unset = {}
    for module, tree in trees.items():
        package = importlib.import_module("hsde" if module == "__init__" else f"hsde.{module}")
        exported = getattr(package, "__all__", ())
        # (qualified name, name its calls use, its defaulted options)
        options = []
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name in exported:
                options.append((f"{module}.{node.name}", node.name, _defaulted(node, False)))
            if isinstance(node, ast.ClassDef) and node.name in exported:
                options += [(f"{module}.{node.name}.{f.name}", f.name, _defaulted(f, True))
                            for f in node.body
                            if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]
                cls = getattr(package, node.name)
                if dataclasses.is_dataclass(cls):
                    options.append((f"{module}.{node.name}", node.name, _defaulted_fields(cls)))
        for qualname, called, defaulted in options:
            params = tuple(name for position, name in defaulted
                           if not any(_sets(c, position, name) for c in calls.get(called, ())))
            if params:
                unset[qualname] = params
    allowed = {name: params for name, (params, _) in OPTIONS_WITHOUT_A_SRC_CALLER.items()}
    # an option only tests set goes, and an allowlist entry src/ now sets is stale
    assert unset == allowed
