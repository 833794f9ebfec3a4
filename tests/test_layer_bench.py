"""Smoke tests of tools/layer_bench.py: its layers at tiny sizes, and its
alternating rounds with the child processes stubbed."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def bench(monkeypatch):
    spec = importlib.util.spec_from_file_location("layer_bench", ROOT / "tools" / "layer_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for name, value in {"KS_N": (200, 5000), "REPS": 1, "CHAIN_REPS": 1, "TRIALS": 2,
                        "EXACT_N": 10, "CHAIN_N": 10, "BURN_IN": 10, "ROUNDS": 3}.items():
        monkeypatch.setattr(module, name, value)
    return module


def test_child_times_each_layer(bench):
    out = bench.run_child()
    assert set(out) == {
        "ks_vs_gaussian_n200", "ks_vs_gaussian_n5000", "run_order_trials_2",
        "exact_kernel_us_per_chain_step", "lone_chain_us_per_step"}
    for value, unit in out.values():
        assert value > 0 and unit in ("ms", "us")


def test_rounds_alternate_and_summarise_per_layer_and_tree(bench, monkeypatch):
    parent, change = str(ROOT / "parent"), str(ROOT / "change")
    calls = []

    def fake_run_tree(tree):
        calls.append(tree)
        return {"layer": (2.0 if tree == parent else float(len(calls)), "ms")}

    monkeypatch.setattr(bench, "_run_tree", fake_run_tree)
    monkeypatch.setattr(bench, "_tree_info", lambda tree: {"tree": tree})
    result = bench.run_rounds(parent, change)
    assert calls == [parent, change, change, parent, parent, change]
    layer = result["layers"]["layer"]
    assert layer["parent"]["rounds"] == [2.0, 2.0, 2.0]
    assert layer["change"]["rounds"] == [2.0, 3.0, 6.0]
    assert (layer["change"]["q1"], layer["change"]["median"], layer["change"]["q3"]) == (
        2.5, 3.0, 4.5)
    assert layer["ratio_median"] == 1.5 and layer["change_faster_in"] == "0/3"
    assert result["trees"] == {"parent": {"tree": parent}, "change": {"tree": change}}
    assert {"python", "numpy", "cpu", "nproc"} <= set(result["host"])
