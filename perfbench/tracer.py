"""In-memory spans around the public calls of the ``hsde`` modules.

Nothing here is imported by ``hsde`` itself: :func:`install` patches the
package from outside, after import. Each wrapper appends one span (name,
start, end, parent, count) to flat arrays held by a :class:`Recorder`; the
arrays are written out once, when the run ends, and reduced to per-layer
numbers by :func:`self_times` and :func:`layer_table`.

A wrapper is installed wherever callers look the name up:

- methods on the ``RngStream``, ``Potential`` and ``BatchSchedule`` classes
  (every instance sees them);
- every public function of every module, replaced in each ``hsde`` module
  namespace that holds it, so names imported with ``from .x import f``
  (``cli``, ``repro``, ``chain``) are covered too;
- ``hsde.chain.compile_step``, whose returned stepper is itself wrapped and
  named ``integrators.<scheme>``.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from array import array

import numpy as np

MODULES = ("batching", "chain", "core", "geometry", "integrators", "metrics",
           "operator_lab", "potentials", "repro", "toy_exact")

# (module, class, method names); spans are named "<module>.<method>"
METHODS = (
    ("core", "RngStream", ("normal", "integers", "permutation", "uniform", "subset")),
    ("potentials", "Potential", ("value", "gradient", "hessian_vec", "sample_prior")),
    ("batching", "BatchSchedule", ("next",)),
)


def _chain_steps(args, kwargs):
    cfg = kwargs.get("cfg", args[3] if len(args) > 3 else None)
    return cfg.burn_in + cfg.n_samples * cfg.thinning


# work counts recorded at the boundary, so per-unit costs need no guessing
COUNTS = {
    "chain.run_chain": _chain_steps,
    "toy_exact.run_exact_chain": _chain_steps,
    "chain.save_trace": lambda a, k: (k.get("trace") or a[0]).n_samples,
    "repro.write_csv": lambda a, k: len(k.get("rows", a[2] if len(a) > 2 else ())),
}

ROOT = -1


class Recorder:
    """Flat span arrays plus the stack of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.count = array("q")
        self._stack = [ROOT]

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, count=None):
        """Return fn wrapped so each call records one span named `name`."""
        nid = self.intern(name)
        ids, parents, starts, ends, counts = (
            self.name_id, self.parent, self.start, self.end, self.count)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            counts.append(count(args, kwargs) if count else 1)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names, dtype=str),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 start=np.frombuffer(self.start, dtype=np.int64),
                 end=np.frombuffer(self.end, dtype=np.int64),
                 count=np.frombuffer(self.count, dtype=np.int64))


def install(rec: Recorder) -> None:
    """Wrap the public surface of the imported ``hsde`` package in place."""
    mods = {m: importlib.import_module(f"hsde.{m}") for m in MODULES}
    namespaces = [importlib.import_module("hsde"),
                  importlib.import_module("hsde.cli"), *mods.values()]

    for mod_name, cls_name, methods in METHODS:
        cls = getattr(mods[mod_name], cls_name)
        for meth in methods:
            setattr(cls, meth, rec.wrap(getattr(cls, meth), f"{mod_name}.{meth}"))

    replaced = {}
    for mod_name, mod in mods.items():
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                name = f"{mod_name}.{attr}"
                replaced[fn] = rec.wrap(fn, name, COUNTS.get(name))
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            if isinstance(value, types.FunctionType) and value in replaced:
                setattr(ns, attr, replaced[value])

    compile_step = mods["integrators"].compile_step

    def chain_compile_step(spec):
        return rec.wrap(compile_step(spec), f"integrators.{spec.scheme.value}")

    mods["chain"].compile_step = chain_compile_step


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans nest strictly (one thread, a call stack), so the children of a
    span cover disjoint parts of its interval and their durations add.
    """
    dur = (end - start).astype(np.float64)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=dur.size)
    return dur - child


def layer_table(spans: dict) -> dict:
    """{name: {"calls", "count", "total_ns", "self_ns"}} summed over spans."""
    names = list(spans["names"])
    nid = spans["name_id"]
    dur = (spans["end"] - spans["start"]).astype(np.float64)
    own = self_times(spans["parent"], spans["start"], spans["end"])
    k = len(names)
    calls = np.bincount(nid, minlength=k)
    count = np.bincount(nid, weights=spans["count"].astype(np.float64), minlength=k)
    total = np.bincount(nid, weights=dur, minlength=k)
    selft = np.bincount(nid, weights=own, minlength=k)
    return {names[i]: {"calls": int(calls[i]), "count": int(count[i]),
                       "total_ns": float(total[i]), "self_ns": float(selft[i])}
            for i in range(k) if calls[i]}
