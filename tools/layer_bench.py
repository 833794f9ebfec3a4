"""Time hsde's layers in-process, before and after a change.

    python tools/layer_bench.py --parent PARENT_TREE --change CHANGE_TREE \
        [--out BENCH_<n>.json]

Each tree is a checkout of the repository (it holds `src/hsde`). Each of
ROUNDS rounds runs one child process per tree, in alternating order (parent
first in even rounds, change first in odd ones); the child imports `hsde`
from that tree, with single-threaded BLAS, and times each layer through its
API with `time.perf_counter`, taking the median of a few calls. The output
holds, per layer and tree, the median and the quartiles over rounds, the
median change/parent ratio and the number of rounds the change was faster
in, with each tree's git revision and a sha256 of its `src/hsde`, the host,
and the Python and numpy versions.

The layers, at the sizes set below:
- `ks_vs_gaussian_n<n>`: `metrics.ks_vs_gaussian` of a standard normal
  sample of n points against N(0, 1), for each n in KS_N;
- `run_order_trials_<n>`: `operator_lab.run_order_trials(n, RngStream(0, 0))`;
- `exact_kernel_us_per_chain_step`: `toy_exact.run_exact_states` on the
  bottleneck report's four chains (eta 0.4 and 0.01, full and iid), at
  EXACT_N kept samples after BURN_IN steps;
- `lone_chain_us_per_step`: `chain.run_chain` of one lingauss K = 8 iid
  leapfrog chain at the CLI's default eta and friction, at CHAIN_N kept
  samples after BURN_IN steps.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

import numpy as np

ROUNDS = 10
REPS = 15  # timed calls per KS or trial layer
CHAIN_REPS = 3  # timed calls per chain layer
KS_N = (200, 1_000, 50_000, 100_000)
TRIALS = 200
EXACT_N = 20_000
CHAIN_N = 20_000
BURN_IN = 2000


def _median_time(fn, reps: int) -> float:
    fn()  # warm-up
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def run_child() -> dict:
    """{layer: (value, unit)} for the hsde on sys.path."""
    from hsde import operator_lab, repro
    from hsde.chain import ChainConfig, run_chain
    from hsde.core import RngStream
    from hsde.integrators import IntegratorSpec, Scheme
    from hsde.metrics import EmpiricalSample, ks_vs_gaussian
    from hsde.toy_exact import run_exact_states

    out = {}
    rng = np.random.default_rng(0)
    for n in KS_N:
        a = EmpiricalSample(rng.normal(size=n))
        out[f"ks_vs_gaussian_n{n}"] = (
            1e3 * _median_time(lambda: ks_vs_gaussian(a, 0.0, 1.0), REPS), "ms")

    out[f"run_order_trials_{TRIALS}"] = (1e3 * _median_time(
        lambda: operator_lab.run_order_trials(TRIALS, RngStream(0, 0)), REPS), "ms")

    toy = repro.build_model("toy", 2)
    runs = [(eta, mode, seed) for eta, seed in ((0.4, 11), (0.01, 12))
            for mode in repro._EXACT_MODES.values()]
    etas, modes, seeds = zip(*runs)
    cfgs = [ChainConfig(n_samples=EXACT_N, burn_in=BURN_IN, thinning=1, seed=s)
            for s in seeds]
    exact = _median_time(lambda: run_exact_states(
        toy, etas, modes, cfgs, [0] * len(cfgs), keep_momenta=False,
        friction=repro._EXACT_FRICTION), CHAIN_REPS)
    out["exact_kernel_us_per_chain_step"] = (
        1e6 * exact / (len(cfgs) * (BURN_IN + EXACT_N)), "us")

    lingauss = repro.build_model("lingauss", 8)
    spec = IntegratorSpec(scheme=Scheme.LEAPFROG, eta=0.1, friction=2.0)
    cfg = ChainConfig(n_samples=CHAIN_N, burn_in=BURN_IN, thinning=1, seed=0)
    lone = _median_time(lambda: run_chain(lingauss, spec, "iid", cfg), CHAIN_REPS)
    out["lone_chain_us_per_step"] = (1e6 * lone / (BURN_IN + CHAIN_N), "us")
    return out


def _tree_info(tree: str) -> dict:
    def git(*cmd):
        done = subprocess.run(["git", "-C", tree, *cmd], capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else None

    digest = hashlib.sha256()
    src = os.path.join(tree, "src", "hsde")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    rev = git("rev-parse", "HEAD")
    return {"git_rev": rev, "src_dirty": rev and bool(git("status", "--porcelain", "--", "src")),
            "src_sha256": digest.hexdigest()}


def _host() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"platform": platform.platform(), "cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__}


def _run_tree(tree: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(tree, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    done = subprocess.run([sys.executable, os.path.abspath(__file__), "--child"],
                          env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"the child for {tree} failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def _summary(values) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3),
            "rounds": [float(v) for v in values]}


def run_rounds(parent: str, change: str) -> dict:
    trees = {"parent": os.path.abspath(parent), "change": os.path.abspath(change)}
    results = {"parent": [], "change": []}
    for i in range(ROUNDS):
        for role in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            results[role].append(_run_tree(trees[role]))
    layers = {}
    for name, (_, unit) in results["parent"][0].items():
        before = np.array([r[name][0] for r in results["parent"]])
        after = np.array([r[name][0] for r in results["change"]])
        layers[name] = {"unit": unit, "parent": _summary(before), "change": _summary(after),
                        "ratio_median": float(np.median(after / before)),
                        "change_faster_in": f"{int(np.sum(after < before))}/{ROUNDS}"}
    return {"tool": "tools/layer_bench.py", "rounds": ROUNDS,
            "sizes": {"ks_n": list(KS_N), "trials": TRIALS, "exact_n": EXACT_N,
                      "chain_n": CHAIN_N, "burn_in": BURN_IN, "reps": REPS,
                      "chain_reps": CHAIN_REPS},
            "host": _host(), "trees": {role: _tree_info(t) for role, t in trees.items()},
            "layers": layers}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="checkout before the change")
    parser.add_argument("--change", help="checkout with the change")
    parser.add_argument("--out", help="JSON output path (default: standard output)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(run_child()))
        return 0
    if not (args.parent and args.change):
        parser.error("--parent and --change are required")
    text = json.dumps(run_rounds(args.parent, args.change), indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
