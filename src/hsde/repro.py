"""Benchmark models, sweep execution, and pass/fail verification reports.

Three reports bind the library's claims to concrete runs:

- exact-kernel bottleneck: the conjugate scalar model sampled with zero
  discretization error converges in full-batch mode but keeps an O(eta^2)
  distribution error in mini-batch mode,
- mini-batch slope gap: the third-order scheme loses its order advantage
  under K = 8 mini-batching while second-order schemes keep theirs,
- splitting orders: forward products are second order, symmetrized and
  permutation-averaged products third order, and inner-loop counts do not
  change fitted convergence orders.

Each report writes a markdown summary plus a machine-readable `checks.csv`,
compares measured numbers against frozen golden values, and refuses to
assert a slope when the fit quality is poor (status "inconclusive" rather
than a false pass/fail).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from .batching import make_schedule
from .chain import ChainConfig, run_ensemble
from .core import MassMatrix, RngStream, write_columns
from .integrators import IntegratorSpec, Scheme
from .metrics import EmpiricalSample, ks_vs_gaussian, self_distance
from .operator_lab import (
    GeneratorSet,
    error_order_slope,
    matrix_exp,
    run_order_trials,
    slope_band,
    spectral_norm,
    splitting_product,
)
from .potentials import (
    LinearGaussian,
    Toy1D,
    make_cycled_basis_dataset,
    make_logistic_demo,
)
from .toy_exact import ExactMode, reference_params, run_exact_ensemble, toy_posterior

__all__ = [
    "GoldenRecord",
    "CheckResult",
    "build_model",
    "sweep_model",
    "run_sweep",
    "toy_histograms",
    "histogram_table",
    "trial_tables",
    "load_goldens",
    "report_exact_bottleneck",
    "report_minibatch_gap",
    "report_splitting_orders",
    "write_csv",
    "write_report_files",
]

MODEL_NAMES = ("toy", "lingauss", "logistic2d")

_TOY_OBSERVATIONS = (4.0, -3.2)
_TOY_NOISE_VAR = 2.0
_TOY_PRIOR_VAR = 0.5

# the regression benchmark is part of the protocol: targets are drawn once
# from a pinned stream so every run sees the same batch centers
_SWEEP_DIM = 4
_SWEEP_ROWS = 32
_SWEEP_TARGET_SEED = 20240
_SWEEP_TARGET_SCALE = 2.0

_LOGISTIC_OBS = 48
_LOGISTIC_SEED = 424242


def sweep_model(n_batches: int = 1) -> LinearGaussian:
    """Regression benchmark: cycled scaled-basis features with frozen random
    targets.

    Every batch of 32/K consecutive rows covers each coordinate equally, so
    all batch curvatures are identical (the posterior covariance is exactly
    I/4) and mini-batch gradients differ only through their shifted centers.
    """
    Phi, _ = make_cycled_basis_dataset(dim=_SWEEP_DIM, n_rows=_SWEEP_ROWS)
    targets = _SWEEP_TARGET_SCALE * RngStream(_SWEEP_TARGET_SEED, 0).normal(_SWEEP_ROWS)
    return LinearGaussian(Phi, targets, noise_var=1.0, prior_var=1.0,
                          n_batches=n_batches)


def build_model(name: str, n_batches: int = 1):
    """The three desk-scale models selectable from the command line."""
    if name == "toy":
        return Toy1D(_TOY_OBSERVATIONS, noise_var=_TOY_NOISE_VAR,
                     prior_var=_TOY_PRIOR_VAR, n_batches=n_batches)
    if name == "lingauss":
        return sweep_model(n_batches)
    if name == "logistic2d":
        return make_logistic_demo(_LOGISTIC_OBS, RngStream(_LOGISTIC_SEED, 0),
                                  n_batches=n_batches)
    raise ValueError(f"unknown model {name!r}; choose from {MODEL_NAMES}")


# ---------------------------------------------------------------------------
# sweep engine


def _derive_cell_seed(seed: int, cell_index: int) -> int:
    # distinct cells must own disjoint streams; chains within a cell are
    # separated by chain_index already
    return (seed + 1_000_003 * (cell_index + 1)) % 2**64


def _run_cells(args: tuple) -> list:
    """One ensemble over every (eta cell, replica) chain of one scheme; one
    row per cell, computed from that cell's replicas in order."""
    (model_name, n_batches, mode, scheme, cells, friction, n_inner, v_hat,
     n, reps, burn_in, thin, n_ks) = args
    model = build_model(model_name, n_batches)
    post = model.analytic_posterior()
    specs, scheds, cfgs, chain_indices = [], [], [], []
    for eta, cell_seed in cells:
        spec = IntegratorSpec(
            scheme=scheme,
            eta=eta,
            friction=friction,
            mass=MassMatrix.identity(model.dim),
            n_inner=n_inner,
            v_hat=v_hat,
        )
        cfg = ChainConfig(n_samples=n, burn_in=burn_in, thinning=thin,
                          init="prior", seed=cell_seed)
        for rep in range(reps):
            specs.append(spec)
            scheds.append(make_schedule(mode, model.n_batches,
                                        RngStream(cell_seed, 4 * rep + 2)))
            cfgs.append(cfg)
            chain_indices.append(rep)
    traces = run_ensemble(model, specs, scheds, cfgs, chain_indices) if specs else []

    rows = []
    for cell, (eta, _) in enumerate(cells):
        ks_vals = []
        mean_dev = np.zeros(model.dim)
        var_dev = np.zeros(model.dim)
        for trace in traces[cell * reps:(cell + 1) * reps]:
            tail = trace.thetas[-min(n_ks, n):, 0]
            ks_vals.append(ks_vs_gaussian(EmpiricalSample(tail),
                                          post.mean[0], post.cov[0, 0]))
            mean_dev += trace.thetas.mean(axis=0) - post.mean
            var_dev += trace.thetas.var(axis=0) - np.diag(post.cov)
        # signed deviations pooled over replicas and coordinates before taking
        # magnitude: the bias is shared, the noise averages out
        rows.append({
            "scheme": str(scheme.value),
            "eta": float(eta),
            "K": int(n_batches),
            "mode": str(mode),
            "n": int(n),
            "ks": float(np.mean(ks_vals)),
            "mean_err": float(abs(np.mean(mean_dev / reps))),
            "var_err": float(abs(np.mean(var_dev / reps))),
        })
    return rows


@dataclass(frozen=True)
class SweepResult:
    rows: list
    slopes: list


# exact-posterior draws behind a sweep's self-distance calibration
_ORACLE_N = 100_000


def run_sweep(
    model_name: str,
    plan: list,
    mode: str = "full",
    n_batches: int = 1,
    friction: float = 2.0,
    n: int = 2000,
    reps: int = 4,
    burn_in: int = 2000,
    thin: int = 1,
    seed: int = 0,
    n_ks: int = 200,
    jobs: int = 1,
    n_inner: int = 1,
    v_hat: float = 0.0,
) -> SweepResult:
    """Run every (scheme, eta) cell of the plan and fit per-scheme slopes.

    `plan` is a list of (scheme, eta_grid) pairs. Each pair runs as one
    ensemble of len(eta_grid) x reps chains; `jobs` > 1 spreads the pairs
    over worker processes. Raises the model's analytic-posterior error for
    models without a closed-form posterior, and the DivergenceError of the
    first diverging chain in (cell, replica) order. Output rows are
    deterministic in (config, seed) regardless of `jobs`.
    """
    # checked before any chain runs, not where the values are first used
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 1 <= n_ks <= _ORACLE_N:
        raise ValueError(f"n_ks must be in [1, {_ORACLE_N}]")
    build_model(model_name, n_batches).analytic_posterior()
    tasks = []
    idx = 0
    for scheme, etas in plan:
        cells = []
        for eta in etas:
            cells.append((float(eta), _derive_cell_seed(seed, idx)))
            idx += 1
        tasks.append((model_name, n_batches, mode, Scheme(scheme), cells, friction,
                      n_inner, v_hat, n, reps, burn_in, thin, n_ks))
    if jobs > 1 and len(tasks) > 1:
        # imported here: the process machinery costs start-up time that a
        # single-process run never repays
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_task = list(pool.map(_run_cells, tasks))
    else:
        per_task = [_run_cells(t) for t in tasks]
    rows = [row for task_rows in per_task for row in task_rows]

    # one self-distance calibration per sweep: the KS level two independent
    # n_ks-subsamples of the exact posterior show against each other
    post = build_model(model_name, n_batches).analytic_posterior()
    oracle_rng = RngStream(seed, 3_000_001)
    oracle = EmpiricalSample(
        post.mean[0] + np.sqrt(post.cov[0, 0]) * oracle_rng.normal(_ORACLE_N)
    )
    q05, _, q95 = self_distance(oracle, n_ks, 20, RngStream(seed, 3_000_002))
    for row in rows:
        row["ks_q05_self"] = float(q05)
        row["ks_q95_self"] = float(q95)

    slopes = []
    pos = 0
    for scheme, etas in plan:
        scheme = Scheme(scheme)
        cell_rows = rows[pos:pos + len(etas)]
        pos += len(etas)
        if len(etas) < 3:
            continue
        # floored so an error that hits machine zero cannot blow up the fit
        errs = [max(r["var_err"], 1e-15) for r in cell_rows]
        slope, r2 = error_order_slope([r["eta"] for r in cell_rows], errs)
        slopes.append({
            "scheme": str(scheme.value),
            "K": int(n_batches),
            "mode": str(mode),
            "metric": "var_err",
            "slope": float(slope),
            "r_squared": float(r2),
            "n_points": len(etas),
        })
    return SweepResult(rows=rows, slopes=slopes)


SWEEP_ROW_FIELDS = ["scheme", "eta", "K", "mode", "n", "ks",
                    "ks_q05_self", "ks_q95_self", "mean_err", "var_err"]
SLOPE_ROW_FIELDS = ["scheme", "K", "mode", "metric", "slope", "r_squared",
                    "n_points"]


# ---------------------------------------------------------------------------
# exact-kernel runs


def toy_histograms(eta: float, n: int, burn_in: int = 2000, thin: int = 1,
                   seed: int = 0) -> dict:
    """Exact-kernel chains in both modes with marginal histograms.

    Returns {mode: {"edges", "counts", "ks", "n"}}; 128 bins span the
    analytic posterior mean +- 6 posterior standard deviations.
    """
    p = reference_params()
    mean, var = toy_posterior(p)
    sig = float(np.sqrt(var))
    edges = np.linspace(mean - 6 * sig, mean + 6 * sig, 129)
    modes = (ExactMode.FULL, ExactMode.MINIBATCH)
    cfg = ChainConfig(n_samples=n, burn_in=burn_in, thinning=thin, seed=seed)
    # only the positions outlive the run: momenta, steps and times go at once
    positions = [t.thetas[:, 0] for t in
                 run_exact_ensemble(p, [eta] * 2, modes, [cfg] * 2, [0, 0])]
    out = {}
    for mode, th in zip(modes, positions):
        counts, _ = np.histogram(th, bins=edges)
        ks = ks_vs_gaussian(EmpiricalSample(th), mean, var)
        out[mode.value] = {"edges": edges, "counts": counts, "ks": float(ks),
                           "n": int(n)}
    return out


def histogram_table(hist: dict) -> tuple[list, list]:
    """(fields, rows) of one mode of `toy_histograms`: one row per bin."""
    edges = hist["edges"].tolist()
    rows = [{"bin_left": lo, "bin_right": hi, "count": count}
            for lo, hi, count in zip(edges[:-1], edges[1:], hist["counts"].tolist())]
    return ["bin_left", "bin_right", "count"], rows


def trial_tables(trials) -> tuple[tuple, tuple]:
    """(fields, rows) of the per-eta errors and of the fitted slopes of
    splitting-order trials."""
    errors, slopes = [], []
    for t in trials:
        for eta, err in zip(t.etas, t.errors):
            errors.append({"trial": t.trial, "K": t.n_parts, "n": t.dim,
                           "mode": t.mode, "eta": float(eta), "error": float(err)})
        slopes.append({"trial": t.trial, "K": t.n_parts, "n": t.dim,
                       "mode": t.mode, "slope": float(t.slope),
                       "r_squared": float(t.r_squared)})
    return ((["trial", "K", "n", "mode", "eta", "error"], errors),
            (["trial", "K", "n", "mode", "slope", "r_squared"], slopes))


# ---------------------------------------------------------------------------
# golden values


@dataclass(frozen=True)
class GoldenRecord:
    """One frozen reference number with how it was produced and how closely
    a rerun must reproduce it."""

    key: str
    value: float
    provenance: str
    tolerance: float


def load_goldens() -> dict:
    path = resources.files("hsde").joinpath("data/goldens.json")
    with path.open("r") as fh:
        raw = json.load(fh)
    out = {}
    for key, rec in raw.items():
        out[key] = GoldenRecord(key=key, value=float(rec["value"]),
                                provenance=str(rec["provenance"]),
                                tolerance=float(rec["tolerance"]))
    return out


def _golden_check(name: str, value: float, goldens: dict) -> "CheckResult":
    rec = goldens[name]
    ok = abs(value - rec.value) <= rec.tolerance
    return CheckResult(
        name=f"golden:{name}",
        status="pass" if ok else "fail",
        value=float(value),
        target=f"{rec.value:.6g} +- {rec.tolerance:.2g}",
    )


def _golden_checks(values: dict, regen: bool) -> tuple[list, dict | None]:
    """Checks of measured {key: value} against the frozen goldens, plus the
    candidate records carrying the fresh values when regen is set."""
    goldens = load_goldens()
    checks = [_golden_check(key, value, goldens) for key, value in values.items()]
    candidate = ({key: replace(goldens[key], value=value)
                  for key, value in values.items()} if regen else None)
    return checks, candidate


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str
    value: float
    target: str


def write_csv(path, fields: list, rows: list) -> None:
    """Plain CSV of dict rows with floats at full precision; trivially
    byte-stable."""
    write_columns(path, fields, [[row[f] for row in rows] for f in fields])


def write_report_files(out_dir, title: str, checks: list, extra_csv=None,
                       candidate_goldens=None) -> None:
    """checks.csv + report.md (+ optional extra CSVs and a regenerated
    golden candidate file, left for review and never installed)."""
    os.makedirs(out_dir, exist_ok=True)
    write_columns(os.path.join(out_dir, "checks.csv"), ["check", "status", "value", "target"],
                  [[c.name for c in checks], [c.status for c in checks],
                   [float(c.value) for c in checks], [c.target for c in checks]])

    md = [f"# {title}", ""]
    worst = "pass"
    for c in checks:
        mark = {"pass": "PASS", "fail": "FAIL", "inconclusive": "INCONCLUSIVE"}[c.status]
        md.append(f"- **{mark}** `{c.name}`: value {c.value:.6g}, target {c.target}")
        if c.status == "fail":
            worst = "fail"
        elif c.status == "inconclusive" and worst == "pass":
            worst = "inconclusive"
    md += ["", f"Overall: **{worst.upper()}**", ""]
    with open(os.path.join(out_dir, "report.md"), "w") as fh:
        fh.write("\n".join(md))

    if extra_csv:
        for fname, (fields, rows) in extra_csv.items():
            write_csv(os.path.join(out_dir, fname), fields, rows)

    if candidate_goldens:
        payload = {
            k: {"value": v.value, "provenance": v.provenance,
                "tolerance": v.tolerance}
            for k, v in candidate_goldens.items()
        }
        with open(os.path.join(out_dir, "goldens_candidate.json"), "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _slope_check(name: str, slope: float, r2: float, criterion: str,
                 passed: bool) -> CheckResult:
    if r2 < 0.9:
        return CheckResult(name=name, status="inconclusive", value=slope,
                           target=f"{criterion} (r2 {r2:.3f} < 0.9)")
    return CheckResult(name=name, status="pass" if passed else "fail",
                       value=slope, target=criterion)


def report_exact_bottleneck(out_dir, n: int = 100_000, seed: int = 11,
                            regen_golden: bool = False) -> list:
    """Exact-kernel check: full-batch mode matches the analytic posterior
    while mini-batch mode keeps a step-size-dependent distribution error
    that decays as the step shrinks."""
    coarse = toy_histograms(eta=0.4, n=n, seed=seed)
    fine = toy_histograms(eta=0.01, n=n, seed=seed + 1)
    ks_full = coarse["full"]["ks"]
    ks_mb = coarse["minibatch"]["ks"]
    ks_full_fine = fine["full"]["ks"]
    ks_mb_fine = fine["minibatch"]["ks"]

    golden_checks, candidate = _golden_checks(
        {"toy_full_ks_eta0.4": ks_full, "toy_minibatch_ks_eta0.4": ks_mb,
         "toy_minibatch_ks_eta0.01": ks_mb_fine}, regen_golden)
    checks = [
        CheckResult("full_ks_small", "pass" if ks_full < 0.012 else "fail",
                    ks_full, "< 0.012"),
        CheckResult("minibatch_ks_large", "pass" if ks_mb > 0.05 else "fail",
                    ks_mb, "> 0.05"),
        CheckResult("minibatch_over_full",
                    "pass" if ks_mb > 10 * ks_full else "fail",
                    ks_mb / ks_full, "> 10x full"),
        CheckResult("fine_step_closes_gap",
                    "pass" if ks_mb_fine < 3 * ks_full_fine else "fail",
                    ks_mb_fine / ks_full_fine, "< 3x full at eta=0.01"),
    ] + golden_checks

    write_report_files(out_dir, "Exact-kernel mini-batch bottleneck", checks,
                       extra_csv={f"hist_{mode}.csv": histogram_table(coarse[mode])
                                  for mode in ("full", "minibatch")},
                       candidate_goldens=candidate)
    return checks


# the eta grids below are frozen after calibration: large enough that the
# per-cell bias clears the Monte Carlo noise floor at every grid point,
# small enough to stay inside each scheme's stable and asymptotic range
GAP_GRID_MT3 = (0.566, 0.4, 0.283, 0.2)
GAP_GRID_LT = (0.566, 0.4, 0.283, 0.2)
GAP_FRICTION = 3.5
GAP_BATCHES = 8


def report_minibatch_gap(out_dir, n: int = 20_000, reps: int = 4,
                         seed: int = 5, jobs: int = 1,
                         regen_golden: bool = False) -> list:
    """Paired full-batch vs K=8 sweeps: the third-order scheme's fitted
    variance-error slope collapses under mini-batching, the second-order
    inner-loop scheme's does not."""
    plans = {"mt3": [("mt3", GAP_GRID_MT3)], "lie-trotter": [("lie-trotter", GAP_GRID_LT)]}
    slopes = {}
    r2s = {}
    all_rows = []
    all_slope_rows = []
    for label, plan in plans.items():
        for mode, k in (("full", 1), ("perm", GAP_BATCHES)):
            res = run_sweep("lingauss", plan, mode=mode, n_batches=k,
                            friction=GAP_FRICTION, n=n, reps=reps,
                            seed=seed, jobs=jobs)
            slopes[(label, mode)] = res.slopes[0]["slope"]
            r2s[(label, mode)] = res.slopes[0]["r_squared"]
            all_rows.extend(res.rows)
            all_slope_rows.extend(res.slopes)

    gap_mt3 = slopes[("mt3", "full")] - slopes[("mt3", "perm")]
    gap_lt = abs(slopes[("lie-trotter", "full")] - slopes[("lie-trotter", "perm")])
    r2_mt3 = min(r2s[("mt3", "full")], r2s[("mt3", "perm")])
    r2_lt = min(r2s[("lie-trotter", "full")], r2s[("lie-trotter", "perm")])

    golden_checks, candidate = _golden_checks(
        {"gap_mt3_full_slope": slopes[("mt3", "full")],
         "gap_mt3_perm_slope": slopes[("mt3", "perm")]}, regen_golden)
    checks = [
        _slope_check("mt3_slope_gap", gap_mt3, r2_mt3, ">= 0.4", gap_mt3 >= 0.4),
        _slope_check("lie_trotter_slope_gap", gap_lt, r2_lt, "<= 0.4",
                     gap_lt <= 0.4),
    ] + golden_checks
    write_report_files(
        out_dir, "Mini-batch convergence-order gap", checks,
        extra_csv={"cells.csv": (SWEEP_ROW_FIELDS, all_rows),
                   "slopes.csv": (SLOPE_ROW_FIELDS, all_slope_rows)},
        candidate_goldens=candidate)
    return checks


def report_splitting_orders(out_dir, n_trials: int = 100, seed: int = 3,
                            n: int = 20_000, reps: int = 2, jobs: int = 1,
                            regen_golden: bool = False) -> list:
    """Operator-splitting order verification plus inner-loop-count
    independence of the sampler's fitted convergence order."""
    trials = run_order_trials(n_trials, RngStream(seed, 0))
    frac = {}
    for mode in ("forward", "averaged", "randomized"):
        lo, hi = slope_band(mode)
        hits = [lo <= t.slope <= hi for t in trials if t.mode == mode]
        frac[mode] = float(np.mean(hits))

    # K = 1 splitting degenerates to the exact exponential
    G = GeneratorSet((np.array([[0.0, 1.0], [-1.0, 0.0]]),))
    degenerate = spectral_norm(
        splitting_product(G, 0.1, "forward") - matrix_exp(0.1 * G.total))

    lt_slopes = {}
    lt_r2 = {}
    for n_inner in (1, 10):
        res = run_sweep("lingauss", [("lie-trotter", GAP_GRID_LT)],
                        friction=GAP_FRICTION, n=n, reps=reps, seed=seed,
                        jobs=jobs, n_inner=n_inner)
        lt_slopes[n_inner] = res.slopes[0]["slope"]
        lt_r2[n_inner] = res.slopes[0]["r_squared"]
    nl_gap = abs(lt_slopes[1] - lt_slopes[10])

    golden_checks, candidate = _golden_checks(
        {"orders_forward_fraction": frac["forward"],
         "orders_averaged_fraction": frac["averaged"]}, regen_golden)
    checks = [
        CheckResult("forward_band_fraction",
                    "pass" if frac["forward"] >= 0.95 else "fail",
                    frac["forward"], ">= 0.95 in [1.7, 2.3]"),
        CheckResult("averaged_band_fraction",
                    "pass" if frac["averaged"] >= 0.95 else "fail",
                    frac["averaged"], ">= 0.95 in [2.7, 3.3]"),
        CheckResult("randomized_band_fraction",
                    "pass" if frac["randomized"] >= 0.95 else "fail",
                    frac["randomized"], ">= 0.95 in [2.7, 3.3]"),
        CheckResult("single_part_degenerate",
                    "pass" if degenerate < 1e-12 else "fail",
                    degenerate, "< 1e-12"),
        _slope_check("inner_loop_count_independence", nl_gap,
                     min(lt_r2[1], lt_r2[10]), "<= 0.4", nl_gap <= 0.4),
    ] + golden_checks
    trial_errors, trial_slopes = trial_tables(trials)
    write_report_files(
        out_dir, "Splitting-order verification", checks,
        extra_csv={"trials.csv": trial_errors, "trial_slopes.csv": trial_slopes},
        candidate_goldens=candidate)
    return checks
