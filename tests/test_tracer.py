"""The benchmark's tracer still finds every name it wraps.

`perfbench/tracer.py` patches hsde from outside: methods of `RngStream`,
`Potential` and `BatchSchedule`, every public function of each module, and
`integrators.compile_step`. A rename or removal of any of them breaks only
the traced benchmark run unless it is checked here, in a fresh interpreter
with the tracer installed before four tiny commands run through the CLI.
"""

import os

from .test_startup import fresh_python

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_cli_runs(tmp_path):
    perfbench = os.path.join(ROOT, "perfbench")
    commands = [["geom", "--states", "2", "--out", str(tmp_path / "geom")],
                ["sample", "--n", "10", "--out", str(tmp_path / "sample")],
                ["opcheck", "--trials", "2", "--out", str(tmp_path / "opcheck")],
                ["toy", "--n", "10", "--burn-in", "5", "--out", str(tmp_path / "toy")]]
    got = fresh_python(f"""
import json, sys
sys.path.insert(0, {perfbench!r})
import tracer
rec = tracer.Recorder()
tracer.install(rec)
import hsde.cli
for argv in {commands!r}:
    hsde.cli.main.main(args=argv, prog_name="hsde", standalone_mode=False)
print(json.dumps(sorted({{rec.names[i] for i in rec.name_id}})))
""")
    for span in ("geometry.freeze_step", "geometry.jacobian_fd", "potentials.gradient",
                 "chain.run_chain", "chain.save_trace", "batching.make_schedule",
                 "core.normal", "operator_lab.matrix_exp", "operator_lab.spectral_norm",
                 "operator_lab.run_order_trials", "toy_exact.run_exact_states"):
        assert span in got
    assert os.path.exists(tmp_path / "geom" / "summary.csv")
    assert os.path.exists(tmp_path / "sample" / "trace.csv")
    assert os.path.exists(tmp_path / "opcheck" / "summary.csv")
    assert os.path.exists(tmp_path / "toy" / "summary.csv")
