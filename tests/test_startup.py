"""Start-up cost: importing the CLI loads neither scipy nor the process pool.

scipy (about half of a CLI call's start-up) is imported on first use by the
logistic model and the synthetic datasets only, and the process pool by a
sweep with jobs > 1 only. Each check runs in a fresh interpreter, whose
results must equal the same calls made here, where scipy is already loaded.
"""

import json
import os
import subprocess
import sys

import hsde
from hsde import repro
from hsde.chain import ChainConfig, run_chain
from hsde.integrators import IntegratorSpec, Scheme

HEAVY = ("scipy", "concurrent.futures.process", "multiprocessing")

SWEEP_PLAN = [("leapfrog", (0.4, 0.283, 0.2)), ("spv", (0.4, 0.283, 0.2))]
SWEEP_ARGS = dict(n=60, reps=2, burn_in=40, seed=17, n_ks=30)


def fresh_python(code: str) -> dict:
    """Run code in a new interpreter, from the directory that holds `tests`,
    that finds this checkout's hsde; the JSON object it prints."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hsde.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=root, check=True,
                          capture_output=True, text=True, timeout=300)
    return json.loads(done.stdout.strip().splitlines()[-1])


PRELUDE = f"""
import json, sys
import hsde.cli
heavy = {HEAVY!r}
loaded = lambda: [m for m in heavy if m in sys.modules]
"""


def logistic_trace():
    model = repro.build_model("logistic2d", 2)
    spec = IntegratorSpec(scheme=Scheme.LEAPFROG, eta=0.2, friction=2.0)
    return run_chain(model, spec, "iid", ChainConfig(n_samples=40, burn_in=10,
                                                     thinning=1, seed=3))


def test_cli_import_loads_no_heavy_module():
    got = fresh_python(PRELUDE + "print(json.dumps({'loaded': loaded()}))")
    assert got["loaded"] == []


def test_logistic_sampling_imports_scipy_on_first_use():
    got = fresh_python(PRELUDE + """
from tests.test_startup import logistic_trace
before = loaded()
trace = logistic_trace()
print(json.dumps({"before": before, "after": loaded(),
                  "thetas": trace.thetas.tobytes().hex()}))
""")
    assert got["before"] == []
    assert got["after"] == ["scipy"]
    assert bytes.fromhex(got["thetas"]) == logistic_trace().thetas.tobytes()


def test_parallel_sweep_imports_pool_on_first_use():
    got = fresh_python(PRELUDE + f"""
from hsde import repro
res, = repro.run_sweeps("lingauss", {SWEEP_PLAN!r}, [("full", 1)], jobs=2, **{SWEEP_ARGS!r})
print(json.dumps({{"loaded": loaded(), "rows": res.rows, "slopes": res.slopes}}))
""")
    assert "concurrent.futures.process" in got["loaded"]
    assert "scipy" not in got["loaded"]
    one, = repro.run_sweeps("lingauss", SWEEP_PLAN, [("full", 1)], jobs=1, **SWEEP_ARGS)
    assert got["rows"] == one.rows
    assert got["slopes"] == one.slopes


# options the run refuses, each on the one model that needs scipy
REFUSED_BEFORE_MODEL = [
    ["sample", "--model", "logistic2d", "--scheme", "sghmc", "--vhat", "5"],
    ["geom", "--model", "logistic2d", "--eta", "-1"],
    ["sample", "--model", "logistic2d", "--scheme", "exact"],
]


def test_refused_options_build_no_model(tmp_path):
    # each refusal exits 2 before the model is built, so the logistic
    # model's dataset is never made and scipy never loaded
    got = fresh_python(PRELUDE + f"""
from click.testing import CliRunner
runs = []
for args in {REFUSED_BEFORE_MODEL!r}:
    result = CliRunner().invoke(hsde.cli.main, args + ["--out", {str(tmp_path / "run")!r}])
    runs.append([result.exit_code, loaded()])
print(json.dumps({{"runs": runs}}))
""")
    assert got["runs"] == [[2, []]] * len(REFUSED_BEFORE_MODEL)
