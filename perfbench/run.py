"""hsde benchmark: three CLI workloads, end-to-end timing, traced layers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep-gap --seed 0 --seconds 38 --trace 0

Every measured unit is one fresh child process (``child.py``) that imports
``hsde.cli`` and runs the workload's commands through ``hsde.cli.main`` with
``--jobs 1`` and single-threaded BLAS. With ``--trace 0`` the run repeats the
workload until ``--seconds`` have passed (at least twice) and reports the
medians of the end-to-end metrics, with times adjusted to a reference host
speed by a calibration kernel timed in each child (``calib.py``); with
``--trace 1`` it runs the workload once untraced and once traced and reports
the per-layer metrics. Every
invocation's CSVs are checked: at seed 0 against the references frozen in
``reference.json`` (see ``fingerprint.py`` for the 1e-12 last-bits rule), at
any other seed against the first repetition of the same run, byte for byte.

The last line of standard output is the result object; the line before it
records the host, versions and source revision.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from importlib import metadata
from typing import Callable

import numpy as np

import calib
import fingerprint
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.json")
WORK_DIR = ".perfbench-work"
MIN_REPEATS = 2
SETUP_PROBES = 2  # import-only children after each repetition
CHILD_TIMEOUT_S = 170
BURN_IN = 2000  # every command here keeps the CLI's default burn-in

GAP_N = 200
GAP_CHAINS = 2 * 2 * 4 * 4  # schemes x batch modes x eta grid x reps
TRACE_N = 50_000
EXACT_N = 100_000
EXACT_CHAINS = 4  # two step sizes x two batch modes


@dataclass(frozen=True)
class Workload:
    """CLI invocations for a seed, and the chain transitions they make."""

    commands: Callable[[int], list]  # seed -> argv list per invocation
    steps: int
    verdicts: tuple = ()  # invocations whose report.md must say PASS


def _seed(seed: int) -> list:
    # seed 0 makes every report pick its frozen protocol seed
    return ["--seed", str(seed)]


WORKLOADS = {
    "sweep-gap": Workload(
        commands=lambda s: [["report", "--which", "gap", "--n", str(GAP_N),
                             "--reps", "4", "--jobs", "1", *_seed(s)]],
        steps=GAP_CHAINS * (BURN_IN + GAP_N),
    ),
    "sample-trace": Workload(
        commands=lambda s: [["sample", "--model", "lingauss", "--scheme", "leapfrog",
                             "--K", "8", "--mode", "iid", "--n", str(TRACE_N),
                             "--thin", "1", *_seed(s)]],
        steps=BURN_IN + TRACE_N,
    ),
    # the bottleneck report stays at its protocol seed: its golden KS values
    # are frozen there to 1e-6, so the seed drives opcheck and geom only
    "oracle-lab": Workload(
        commands=lambda s: [["report", "--which", "bottleneck", "--jobs", "1", *_seed(0)],
                            ["opcheck", "--trials", "200", *_seed(s)],
                            ["geom", "--states", "100", *_seed(s)]],
        steps=EXACT_CHAINS * (BURN_IN + EXACT_N),
        verdicts=(0,),
    ),
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(root: str, work: str, invocations: list, spans: bool = False,
              cpu: int | None = None) -> dict:
    """One child process, pinned to `cpu` if given; timings plus the run
    directory of each invocation."""
    run_dir = tempfile.mkdtemp(dir=work)
    argvs = [argv + ["--out", os.path.join(run_dir, str(k))]
             for k, argv in enumerate(invocations)]
    spec = {"invocations": argvs, "result": os.path.join(run_dir, "result.json")}
    if spans:
        spec["spans"] = os.path.join(run_dir, "spans.npz")
    spec_path = os.path.join(run_dir, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    spawned = time.monotonic()
    pin = None if cpu is None else functools.partial(os.sched_setaffinity, 0, {cpu})
    proc = subprocess.run([sys.executable, CHILD, spec_path], cwd=root,
                          env=child_env(root), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, preexec_fn=pin)
    if proc.returncode != 0:
        raise BenchError(f"child exited with {proc.returncode}:\n{proc.stderr}")
    with open(spec["result"]) as fh:
        res = json.load(fh)
    res["setup_s"] = res["ready"] - spawned
    # end-to-end times at reference host speed (see calib.py)
    res["net_wall_s"] = res["wall_s"] - res["probe_busy_s"]
    res["adj_setup_s"] = calib.adjust(res["setup_s"], res["setup_kernel_s"])
    if res["probe_kernel_s"]:
        res["run_kernel_s"] = calib.typical(res["probe_kernel_s"])
        res["adj_wall_s"] = calib.adjust(res["net_wall_s"], res["run_kernel_s"])
    res["dirs"] = [os.path.join(run_dir, str(k)) for k in range(len(invocations))]
    res["run_dir"] = run_dir
    res["stderr"] = proc.stderr
    return res


class Checker:
    """Counts failed invocations: bad exit code, wrong CSVs, failed verdict."""

    def __init__(self, workload: Workload, seed: int, reference: dict | None):
        self.workload = workload
        # per invocation: {csv name: {"sha256", "fingerprint"}}; without a
        # frozen reference the first repetition fills it in
        if seed == 0:
            self.expect = [inv["csv"] for inv in reference["invocations"]]
        else:
            self.expect = [None] * len(workload.commands(seed))
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def _csv_problems(self, k: int, out_dir: str) -> list:
        got = fingerprint.csv_digests(out_dir)
        if self.expect[k] is None:
            self.expect[k] = {n: {"sha256": h} for n, h in got.items()}
            return []
        want = self.expect[k]
        if sorted(got) != sorted(want):
            return [f"CSV files {sorted(got)} != {sorted(want)}"]
        problems = []
        for name, h in got.items():
            if h == want[name]["sha256"]:
                continue
            ref_fp = want[name].get("fingerprint")
            if ref_fp is None:
                problems.append(f"{name} differs from the first repetition")
                continue
            diff = fingerprint.compare(ref_fp, fingerprint.fingerprint(
                os.path.join(out_dir, name)))
            if diff:
                problems.append(f"{name}: " + "; ".join(diff[:5]))
            else:
                self.notes.append(f"{name}: digest changed within last-bits rule")
        return problems

    def check(self, res: dict) -> None:
        for k, (code, out_dir) in enumerate(zip(res["codes"], res["dirs"])):
            self.attempted += 1
            problems = [f"exit code {code}"] if code != 0 else []
            if code == 0:
                problems += self._csv_problems(k, out_dir)
            if code == 0 and k in self.workload.verdicts:
                with open(os.path.join(out_dir, "report.md")) as fh:
                    if "Overall: **PASS**" not in fh.read():
                        problems.append("report verdict is not PASS")
            if problems:
                self.failed += 1
                self.notes.append(f"invocation {k} failed: " + "; ".join(problems))
                sys.stderr.write(res["stderr"])


def host_info(root: str) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    src = hashlib.sha256()
    pkg = os.path.join(root, "src", "hsde")
    for dirpath, dirnames, files in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".py", ".json")):
                path = os.path.join(dirpath, name)
                src.update(os.path.relpath(path, pkg).encode())
                src.update(fingerprint.digest(path).encode())
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "git_rev": rev, "source_sha256": src.hexdigest()}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(root, work, wl, seed, seconds, checker) -> dict:
    """Untraced repetitions, each followed by set-up probes, for about
    `seconds` (at least MIN_REPEATS, and none that would be expected to end
    past the budget); end-to-end medians."""
    run_child(root, work, [])  # warm-up: byte-compile, fill the file cache
    # each child runs on one core; successive children take turns over the
    # allowed cores, so that no single core's neighbours decide a run
    cpus = sorted(os.sched_getaffinity(0))
    walls, rates, rss, setups = [], [], [], []
    raw = {"wall_s": [], "setup_s": [], "kernel_ms": []}
    start = time.monotonic()
    while True:
        res = run_child(root, work, wl.commands(seed), cpu=cpus[len(walls) % len(cpus)])
        checker.check(res)
        shutil.rmtree(res["run_dir"])
        walls.append(res["adj_wall_s"])
        rates.append(wl.steps / res["adj_wall_s"])
        rss.append(res["rss_kb"] / 1024.0)
        # set-up probes spread over the run, as the host's speed drifts within it
        started = [res] + [run_child(root, work, [], cpu=cpus[j % len(cpus)])
                           for j in range(SETUP_PROBES)]
        setups += [r["adj_setup_s"] for r in started]
        raw["wall_s"].append(res["wall_s"])
        raw["setup_s"] += [r["setup_s"] for r in started]
        raw["kernel_ms"].append(1e3 * res["run_kernel_s"])
        elapsed = time.monotonic() - start
        if len(walls) >= MIN_REPEATS and elapsed * (1 + 1 / len(walls)) > seconds:
            break
    sys.stderr.write(json.dumps({"adjusted": {"wall_s": walls, "setup_s": setups},
                                 "raw": raw, "peak_rss_mb": rss}) + "\n")
    return {
        "wall_s": metric(statistics.median(walls), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "chain_steps_per_s": metric(statistics.median(rates), "1/s"),
        "peak_rss_mb": metric(statistics.median(rss), "MB"),
    }


# (metric, span name, statistic, unit); statistics are defined in layer_metrics
LAYER_METRICS = [
    *[(f"core.{m}.{s}", f"core.{m}", s, u)
      for m in ("normal", "integers", "permutation") for s, u in (("calls", "count"), ("us", "us"))],
    *[(f"potentials.{m}.{s}", f"potentials.{m}", s, u)
      for m in ("gradient", "hessian_vec") for s, u in (("calls", "count"), ("us", "us"))],
    *[(f"integrators.{m}.{s}", f"integrators.{m}", s, u)
      for m in ("mt3", "lie-trotter", "leapfrog") for s, u in (("calls", "count"), ("self_us", "us"))],
    ("batching.next.calls", "batching.next", "calls", "count"),
    ("batching.next.self_us", "batching.next", "self_us", "us"),
    ("chain.run_chain.self_us_per_step", "chain.run_chain", "self_us_per_unit", "us/step"),
    ("chain.save_trace.rows", "chain.save_trace", "units", "count"),
    ("chain.save_trace.us_per_row", "chain.save_trace", "us_per_unit", "us/row"),
    ("metrics.ks_vs_gaussian.calls", "metrics.ks_vs_gaussian", "calls", "count"),
    ("metrics.ks_vs_gaussian.us", "metrics.ks_vs_gaussian", "us", "us"),
    ("metrics.self_distance.calls", "metrics.self_distance", "calls", "count"),
    ("metrics.self_distance.ms", "metrics.self_distance", "ms", "ms"),
    ("repro.write_csv.rows", "repro.write_csv", "units", "count"),
    ("repro.write_csv.us_per_row", "repro.write_csv", "us_per_unit", "us/row"),
    ("repro.run_sweep.self_ms", "repro.run_sweep", "self_ms_total", "ms"),
    ("toy_exact.run_exact_chain.self_us_per_step", "toy_exact.run_exact_chain",
     "self_us_per_unit", "us/step"),
    *[(f"operator_lab.{m}.{s}", f"operator_lab.{m}", s, u)
      for m in ("matrix_exp", "spectral_norm") for s, u in (("calls", "count"), ("us", "us"))],
    ("operator_lab.splitting_product.self_us", "operator_lab.splitting_product", "self_us", "us"),
    ("operator_lab.randomized_expectation.self_us", "operator_lab.randomized_expectation",
     "self_us", "us"),
    ("geometry.jacobian_fd.calls", "geometry.jacobian_fd", "calls", "count"),
    ("geometry.jacobian_fd.ms", "geometry.jacobian_fd", "ms", "ms"),
    ("cli.self_ms", "cli", "self_ms_total", "ms"),
]


def layer_metrics(table: dict) -> dict:
    """Per-layer numbers from a layer table; 0 for a layer the run never entered."""
    out = {}
    for name, span, stat, unit in LAYER_METRICS:
        row = table.get(span)
        value = 0
        if row is not None:
            calls, units = row["calls"], row["count"]
            value = {
                "calls": calls,
                "units": units,
                "us": row["total_ns"] / calls / 1e3,
                "ms": row["total_ns"] / calls / 1e6,
                "self_us": row["self_ns"] / calls / 1e3,
                "self_ms_total": row["self_ns"] / 1e6,
                "self_us_per_unit": row["self_ns"] / units / 1e3 if units else 0.0,
                "us_per_unit": row["total_ns"] / units / 1e3 if units else 0.0,
            }[stat]
        out[name] = metric(value, unit)
    return out


def measure_traced(root, work, wl, seed, checker) -> dict:
    """One untraced and one traced repetition; per-layer metrics."""
    run_child(root, work, [])
    plain = run_child(root, work, wl.commands(seed))
    checker.check(plain)
    shutil.rmtree(plain["run_dir"])
    traced = run_child(root, work, wl.commands(seed), spans=True)
    checker.check(traced)
    with np.load(os.path.join(traced["run_dir"], "spans.npz")) as npz:
        spans = {k: npz[k] for k in npz.files}
    shutil.rmtree(traced["run_dir"])

    table = tracer.layer_table(spans)
    traced_ns = traced["wall_s"] * 1e9
    out = layer_metrics(table)
    # the traced run has no probes: scale both runs by the bursts before and
    # after their workload, the speed samples they share
    adjusted = [calib.adjust(r["net_wall_s"],
                             calib.typical([r["setup_kernel_s"], r["end_kernel_s"]]))
                for r in (traced, plain)]
    out["trace.overhead_frac"] = metric(adjusted[0] / adjusted[1] - 1.0, "ratio")
    out["trace.self_sum_frac"] = metric(
        sum(r["self_ns"] for r in table.values()) / traced_ns, "ratio")
    for name in sorted(table, key=lambda n: -table[n]["self_ns"]):
        r = table[name]
        sys.stderr.write(f"{name:45s} calls {r['calls']:>9d}  self {r['self_ns'] / 1e9:8.3f} s"
                         f"  ({100 * r['self_ns'] / traced_ns:5.1f}% of traced wall)\n")
    return out


def load_reference(workload: str) -> dict | None:
    if not os.path.exists(REFERENCE):
        return None
    with open(REFERENCE) as fh:
        return json.load(fh).get(workload)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=38)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        ap.error("--seed must lie in [0, 2**63)")
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hsde", "cli.py")):
        sys.stderr.write("error: run from the root of an hsde checkout (no src/hsde/cli.py)\n")
        return 2
    reference = load_reference(args.workload)
    if args.seed == 0 and reference is None:
        sys.stderr.write(f"error: no frozen reference for {args.workload} in {REFERENCE}\n")
        return 2

    wl = WORKLOADS[args.workload]
    checker = Checker(wl, args.seed, reference)
    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
    work = tempfile.mkdtemp(dir=os.path.join(root, WORK_DIR))
    try:
        if args.trace:
            metrics = measure_traced(root, work, wl, args.seed, checker)
        else:
            metrics = measure(root, work, wl, args.seed, args.seconds, checker)
    except (BenchError, subprocess.TimeoutExpired) as err:
        sys.stderr.write(f"error: {err}\n")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORK_DIR))
        except OSError:  # another run still uses it
            pass
    for note in checker.notes:
        sys.stderr.write(note + "\n")

    print(json.dumps({"host": host_info(root), "workload": args.workload,
                      "seed": args.seed, "trace": args.trace}))
    print(json.dumps({"correct": checker.failed == 0, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
