"""The benchmark's tracer still finds every name it wraps.

`perfbench/tracer.py` patches hsde from outside: methods of `RngStream`,
`Potential` and `BatchSchedule`, every public function of each module, and
`integrators.compile_step`. A rename or removal of any of them breaks only
the traced benchmark run unless it is checked here, in a fresh interpreter
with the tracer installed before five tiny commands run through the CLI.
The benchmark's work count for `toy_exact.run_exact_chain` reads its
fourth positional argument as the chain's config.
"""

import os

from .test_startup import fresh_python

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_cli_runs(tmp_path):
    perfbench = os.path.join(ROOT, "perfbench")
    commands = [["geom", "--states", "2", "--out", str(tmp_path / "geom")],
                ["sample", "--n", "10", "--out", str(tmp_path / "sample")],
                ["opcheck", "--trials", "2", "--out", str(tmp_path / "opcheck")],
                ["toy", "--n", "10", "--burn-in", "5", "--out", str(tmp_path / "toy")],
                ["sample", "--model", "toy", "--scheme", "exact", "--n", "10",
                 "--burn-in", "5", "--out", str(tmp_path / "exact")]]
    got, steps = fresh_python(f"""
import json, sys
sys.path.insert(0, {perfbench!r})
import tracer
rec = tracer.Recorder()
tracer.install(rec)
import hsde.cli
for argv in {commands!r}:
    hsde.cli.main.main(args=argv, prog_name="hsde", standalone_mode=False)
exact = rec.intern("toy_exact.run_exact_chain")
steps = [n for i, n in zip(rec.name_id, rec.count) if i == exact]
print(json.dumps([sorted({{rec.names[i] for i in rec.name_id}}), steps]))
""")
    # no command calls the one-point `Potential.gradient` any more; install
    # still fails if that method goes
    for span in ("geometry.jacobian_fd", "chain.run_chain", "chain.save_trace", "core.normal",
                 "operator_lab.matrix_exp", "operator_lab.spectral_norm",
                 "operator_lab.run_order_trials", "toy_exact.run_exact_states",
                 "toy_exact.run_exact_chain"):
        assert span in got
    # the exact chain's 5 + 10 steps, counted from its config
    assert steps == [15]
    assert os.path.exists(tmp_path / "geom" / "summary.csv")
    assert os.path.exists(tmp_path / "sample" / "trace.csv")
    assert os.path.exists(tmp_path / "opcheck" / "summary.csv")
    assert os.path.exists(tmp_path / "toy" / "summary.csv")
    assert os.path.exists(tmp_path / "exact" / "trace.csv")
