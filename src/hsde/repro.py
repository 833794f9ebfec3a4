"""Benchmark models, sweep execution, and pass/fail verification reports.

Three reports bind the library's claims to concrete runs:

- exact-kernel bottleneck: the conjugate scalar model sampled with zero
  discretization error converges in full-batch mode, while its iid
  mini-batch chain keeps a distribution error that shrinks as the step
  shrinks (the report checks no rate; ROADMAP item 2 finds it first order),
- mini-batch slope gap: the third-order scheme loses its order advantage
  under K = 8 mini-batching while second-order schemes keep theirs,
- splitting orders: forward products are second order, symmetrized and
  permutation-averaged products third order, and inner-loop counts do not
  change fitted convergence orders.

Each report writes a markdown summary plus a machine-readable `checks.csv`,
compares measured numbers against frozen golden values, and refuses to
assert a slope when the fit quality is poor (status "inconclusive" rather
than a false pass/fail).

A sweep runs one ensemble per scheme across its batch modes: `run_sweeps`
steps a plan pair's full-batch and mini-batch chains (every mode, cell and
replica) together, keeping positions only, and splits the rows by mode
afterwards; each mode's result is what a sweep of that mode alone gives.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from .batching import BatchMode
from .chain import ChainConfig, _check_etas, run_states
from .core import RngStream, write_columns
from .integrators import DivergenceError, IntegratorSpec
from .metrics import EmpiricalSample, ks_vs_gaussian, self_distance
from .operator_lab import (
    GeneratorSet,
    band_fraction,
    error_order_slope,
    matrix_exp,
    run_order_trials,
    slope_band,
    spectral_norm,
    splitting_product,
)
from .potentials import LinearGaussian, make_logistic_demo
from .toy_exact import run_exact_states

__all__ = [
    "GoldenRecord",
    "CheckResult",
    "build_model",
    "sweep_model",
    "run_sweeps",
    "exact_histograms",
    "histogram_table",
    "trial_tables",
    "load_goldens",
    "overall_status",
    "report_exact_bottleneck",
    "report_minibatch_gap",
    "report_splitting_orders",
    "write_csv",
    "write_report_files",
]

MODEL_NAMES = ("toy", "lingauss", "logistic2d")

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

    Row i is sqrt(3 d / n) e_{i mod d}, so every batch of 32/K consecutive
    rows covers each coordinate equally: all batch curvatures are identical
    (the posterior covariance is exactly I/4) and mini-batch gradients
    differ only through their shifted centers.
    """
    Phi = np.tile(math.sqrt(3.0 * _SWEEP_DIM / _SWEEP_ROWS) * np.eye(_SWEEP_DIM),
                  (_SWEEP_ROWS // _SWEEP_DIM, 1))
    targets = _SWEEP_TARGET_SCALE * RngStream(_SWEEP_TARGET_SEED, 0).normal(_SWEEP_ROWS)
    return LinearGaussian(Phi, targets, noise_var=1.0, prior_var=1.0,
                          n_batches=n_batches)


def build_model(name: str, n_batches: int = 1):
    """The three desk-scale models selectable from the command line."""
    if name == "toy":
        # the conjugate scalar model: observations x_i ~ N(theta, noise_var),
        # a linear model on a column of ones, and the prior N(0, prior_var)
        return LinearGaussian(np.ones((2, 1)), (4.0, -3.2), noise_var=2.0,
                              prior_var=0.5, n_batches=n_batches)
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


@dataclass(frozen=True)
class SweepResult:
    rows: list
    slopes: list


def _run_cells(cells: list, *, model, post, modes: list, reps: int, n_ks: int) -> list:
    """One ensemble over every (mode, cell, replica) chain of one plan
    pair's (IntegratorSpec, ChainConfig) cells; one SweepResult per mode,
    with a row per cell computed from that cell's replicas in order.

    Raises the DivergenceError of the first diverging chain in (mode, cell,
    replica) order, and then that of the first cell, in (mode, cell) order,
    whose summary is not finite.
    """
    runs = list(itertools.product(modes, cells))
    specs, chain_modes, cfgs, chain_indices = zip(*[
        (spec, mode, cfg, rep) for (mode, _), (spec, cfg) in runs for rep in range(reps)])
    # a sweep reads positions only
    thetas = run_states(model, specs, chain_modes, cfgs, chain_indices,
                        keep_momenta=False)[0]

    rows = []
    for cell, ((mode, n_batches), (spec, cfg)) in enumerate(runs):
        ks_vals = []
        mean_dev = np.zeros(model.dim)
        var_dev = np.zeros(model.dim)
        # chains that grow huge without leaving the finite range overflow
        # their cell's summary: no warnings, the check below reports it
        with np.errstate(all="ignore"):
            for th in thetas[cell * reps:(cell + 1) * reps]:
                tail = th[-min(n_ks, cfg.n_samples):, 0]
                ks_vals.append(ks_vs_gaussian(EmpiricalSample(tail),
                                              post.mean[0], post.cov[0, 0]))
                mean_dev += th.mean(axis=0) - post.mean
                var_dev += th.var(axis=0) - np.diag(post.cov)
            # signed deviations pooled over replicas and coordinates before
            # taking magnitude: the bias is shared, the noise averages out
            summary = {"ks": float(np.mean(ks_vals)),
                       "mean_err": float(abs(np.mean(mean_dev / reps))),
                       "var_err": float(abs(np.mean(var_dev / reps)))}
        if not np.all(np.isfinite(list(summary.values()))):
            raise DivergenceError("cell summary is not finite", eta=spec.eta,
                                  scheme=spec.scheme)
        rows.append({"scheme": str(spec.scheme.value), "eta": spec.eta, "K": int(n_batches),
                     "mode": mode.value, "n": int(cfg.n_samples), **summary})
    per_mode = [rows[m * len(cells):(m + 1) * len(cells)] for m in range(len(modes))]
    return [SweepResult(rows=r, slopes=_fit_slope(r)) for r in per_mode]


def _fit_slope(rows: list) -> list:
    """The var_err slope row of one plan pair's cells in one mode; none
    below 3 cells."""
    if len(rows) < 3:
        return []
    # floored so an error that hits machine zero cannot blow up the fit
    errs = [max(r["var_err"], 1e-15) for r in rows]
    slope, r2 = error_order_slope([r["eta"] for r in rows], errs)
    return [{"scheme": rows[0]["scheme"], "K": rows[0]["K"], "mode": rows[0]["mode"],
             "metric": "var_err", "slope": float(slope), "r_squared": float(r2),
             "n_points": len(rows)}]


def _model_batches(modes) -> int:
    """The batch count of the model a sweep's modes share: the one K above
    1 among them, or 1. Every mini-batch mode runs on the model's K; a
    full-batch chain sees the full potential, which does not depend on K,
    so a full mode may also give 1."""
    if any(k < 1 for _, k in modes):
        raise ValueError("n_batches must be >= 1")
    if len({k for mode, k in modes if k > 1 or mode is not BatchMode.FULL}) > 1:
        raise ValueError("modes of one sweep must share n_batches; a full-batch mode may give 1")
    return max(k for _, k in modes)


# exact-posterior draws behind a sweep's self-distance calibration
_ORACLE_N = 100_000


@functools.lru_cache(maxsize=16)
def _self_distance_levels(seed: int, mean: float, var: float, n_ks: int) -> tuple:
    """A sweep's self-distance calibration, (q05, q95): the KS levels two
    independent n_ks-subsamples of the exact posterior's first marginal,
    N(mean, var), show against each other. A pure function of its key, so
    sweeps that share one (the gap report's two, the inner-loop report's
    two) compute it once."""
    oracle_rng = RngStream(seed, 3_000_001)
    oracle = EmpiricalSample(mean + np.sqrt(var) * oracle_rng.normal(_ORACLE_N))
    q05, _, q95 = self_distance(oracle, n_ks, 20, RngStream(seed, 3_000_002))
    return float(q05), float(q95)


def run_sweeps(
    model_name: str,
    plan: list,
    modes: list,
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
) -> list:
    """Run every (scheme, eta) cell of the plan in each batch mode and fit
    per-scheme slopes; one SweepResult per (mode, n_batches) in `modes`.

    `plan` is a list of (scheme, eta_grid) pairs. Each pair runs as one
    ensemble of len(modes) x len(eta_grid) x reps chains, every mode's
    chains on the same cell seeds, so a mode's result does not depend on
    the other modes swept with it; `jobs` > 1 spreads the pairs over worker
    processes. A mode is a `BatchMode` or its value, and rows spell it by
    value. Modes whose n_batches is above 1 must share it. Every mode, cell
    and fitted grid is checked before the model or any chain. Raises the
    model's analytic-posterior error for models without a closed-form
    posterior, and the DivergenceError of the first diverging chain in (plan
    pair, mode, cell, replica) order or, failing that, of the first cell
    whose summary is not finite. Output rows are deterministic in (config,
    seed) regardless of `jobs`.
    """
    # checked before any chain runs, not where the values are first used
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 1 <= n_ks <= _ORACLE_N:
        raise ValueError(f"n_ks must be in [1, {_ORACLE_N}]")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if not plan or not all(len(etas) for _, etas in plan):
        raise ValueError("a sweep needs at least one scheme and a step size for each")
    modes = [(BatchMode(mode), int(k)) for mode, k in modes]
    if not modes:
        raise ValueError("a sweep needs at least one batch mode")
    # each cell's spec and config, and so their checks, and run_loop's on eta
    cell_seeds = (_derive_cell_seed(seed, i) for i in itertools.count())
    cells = [[(IntegratorSpec(scheme, eta, friction, n_inner, v_hat),
               ChainConfig(n, burn_in, thin, seed=next(cell_seeds))) for eta in etas]
             for scheme, etas in plan]
    _check_etas(spec.eta for pair in cells for spec, _ in pair)
    # the slope fit's precondition on a grid it fits
    if any(len(pair) >= 3 and len({spec.eta for spec, _ in pair}) == 1 for pair in cells):
        raise ValueError("eta grid is degenerate (all equal)")
    model = build_model(model_name, _model_batches(modes))
    post = model.analytic_posterior()
    run = functools.partial(_run_cells, model=model, post=post, modes=modes, reps=reps, n_ks=n_ks)
    if jobs > 1 and len(cells) > 1:
        # imported here: the process machinery costs start-up time that a
        # single-process run never repays
        from concurrent.futures import ProcessPoolExecutor

        # a forked pool starts all of its workers at once, and a worker
        # beyond one per plan entry would get no work
        with ProcessPoolExecutor(max_workers=min(jobs, len(cells))) as pool:
            per_pair = list(pool.map(run, cells))
    else:
        per_pair = list(map(run, cells))

    # the posterior's numpy scalars as they are: float() of them changes how
    # numpy allocates the oracle's temporaries, which raised the gap
    # report's peak RSS by about 0.4 MB
    q05, q95 = _self_distance_levels(seed, post.mean[0], post.cov[0, 0], n_ks)
    results = []
    for m in range(len(modes)):
        rows = [row for pair in per_pair for row in pair[m].rows]
        for row in rows:
            row["ks_q05_self"] = q05
            row["ks_q95_self"] = q95
        results.append(SweepResult(rows=rows,
                                   slopes=[s for pair in per_pair for s in pair[m].slopes]))
    return results


SWEEP_ROW_FIELDS = ["scheme", "eta", "K", "mode", "n", "ks",
                    "ks_q05_self", "ks_q95_self", "mean_err", "var_err"]
SLOPE_ROW_FIELDS = ["scheme", "K", "mode", "metric", "slope", "r_squared",
                    "n_points"]


# ---------------------------------------------------------------------------
# exact-kernel runs


# the exact-kernel outputs' labels and the batch modes their chains run in
_EXACT_MODES = {"full": BatchMode.FULL, "minibatch": BatchMode.IID_UNIFORM}
# the friction of the exact-kernel outputs' chains
_EXACT_FRICTION = 2.0


def exact_histograms(runs, n: int, burn_in: int = 2000, thin: int = 1) -> list:
    """Exact-kernel chains, full and iid mini-batch, with marginal histograms:
    one {"full" | "minibatch": {"edges", "counts", "ks", "n"}} per (eta,
    seed) in runs, in order.

    128 bins span the analytic posterior mean +- 6 posterior standard
    deviations. Each pair's chains run on chain index 0 of its seed, and
    all of them as one exact ensemble; n is checked before any chain runs.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    P = build_model("toy", 2)
    post = P.analytic_posterior()
    mean, var = post.mean[0], post.cov[0, 0]
    sig = float(np.sqrt(var))
    edges = np.linspace(mean - 6 * sig, mean + 6 * sig, 129)
    etas, chain_modes, cfgs = zip(*[
        (eta, mode, ChainConfig(n_samples=n, burn_in=burn_in, thinning=thin, seed=seed))
        for eta, seed in runs for mode in _EXACT_MODES.values()])
    thetas = run_exact_states(P, etas, chain_modes, cfgs, [0] * len(cfgs),
                              keep_momenta=False, friction=_EXACT_FRICTION)[0]
    out = []
    for positions in thetas.reshape(len(runs), len(_EXACT_MODES), n):
        hists = {}
        for label, th in zip(_EXACT_MODES, positions):
            counts, _ = np.histogram(th, bins=edges)
            ks = ks_vs_gaussian(EmpiricalSample(th), mean, var)
            hists[label] = {"edges": edges, "counts": counts, "ks": float(ks),
                            "n": int(n)}
        out.append(hists)
    return out


def histogram_table(hist: dict) -> tuple[list, list]:
    """(fields, rows) of one mode of `exact_histograms`: one row per bin."""
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
    """The frozen reference numbers shipped in data/goldens.json, by key."""
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
    return _check(f"golden:{name}", abs(value - rec.value) <= rec.tolerance, float(value),
                  f"{rec.value:.6g} +- {rec.tolerance:.2g}")


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
    """One report check: its value, the target it is held to, and its status."""

    name: str
    status: str
    value: float
    target: str


def _check(name: str, passed: bool, value: float, target: str) -> CheckResult:
    return CheckResult(name, ("fail", "pass")[bool(passed)], value, target)


def overall_status(checks: list) -> str:
    """A report's status: fail if any check fails, else inconclusive if any
    check is, else pass."""
    statuses = {c.status for c in checks}
    return next((s for s in ("fail", "inconclusive") if s in statuses), "pass")


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
    for c in checks:
        mark = {"pass": "PASS", "fail": "FAIL", "inconclusive": "INCONCLUSIVE"}[c.status]
        md.append(f"- **{mark}** `{c.name}`: value {c.value:.6g}, target {c.target}")
    md += ["", f"Overall: **{overall_status(checks).upper()}**", ""]
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
        return CheckResult(name, "inconclusive", slope, f"{criterion} (r2 {r2:.3f} < 0.9)")
    return _check(name, passed, slope, criterion)


def report_exact_bottleneck(out_dir, n: int = 100_000, seed: int = 11,
                            regen_golden: bool = False) -> list:
    """Exact-kernel check: full-batch mode matches the analytic posterior
    while mini-batch mode keeps a step-size-dependent distribution error
    that decays as the step shrinks."""
    coarse, fine = exact_histograms([(0.4, seed), (0.01, seed + 1)], n)
    ks_full = coarse["full"]["ks"]
    ks_mb = coarse["minibatch"]["ks"]
    ks_full_fine = fine["full"]["ks"]
    ks_mb_fine = fine["minibatch"]["ks"]

    golden_checks, candidate = _golden_checks(
        {"toy_full_ks_eta0.4": ks_full, "toy_minibatch_ks_eta0.4": ks_mb,
         "toy_minibatch_ks_eta0.01": ks_mb_fine}, regen_golden)
    checks = [
        _check("full_ks_small", ks_full < 0.012, ks_full, "< 0.012"),
        _check("minibatch_ks_large", ks_mb > 0.05, ks_mb, "> 0.05"),
        _check("minibatch_over_full", ks_mb > 10 * ks_full, ks_mb / ks_full, "> 10x full"),
        _check("fine_step_closes_gap", ks_mb_fine < 3 * ks_full_fine,
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
                         seed: int = 5, regen_golden: bool = False) -> list:
    """Paired full-batch vs K=8 sweeps: the third-order scheme's fitted
    variance-error slope collapses under mini-batching, the second-order
    inner-loop scheme's does not."""
    plans = {"mt3": [("mt3", GAP_GRID_MT3)], "lie-trotter": [("lie-trotter", GAP_GRID_LT)]}
    modes = [("full", 1), ("perm", GAP_BATCHES)]
    slopes = {}
    r2s = {}
    all_rows = []
    all_slope_rows = []
    # one sweep per scheme, both modes in one ensemble; the schemes stay
    # separate sweeps, as a two-pair plan would give the second scheme's
    # cells other seeds
    for label, plan in plans.items():
        results = run_sweeps("lingauss", plan, modes, friction=GAP_FRICTION, n=n,
                             reps=reps, seed=seed)
        for (mode, _), res in zip(modes, results):
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
                            n: int = 20_000, reps: int = 2,
                            regen_golden: bool = False) -> list:
    """Operator-splitting order verification plus inner-loop-count
    independence of the sampler's fitted convergence order."""
    # the sweeps' sizes, checked before the splitting trials run
    if n < 1:
        raise ValueError("n must be >= 1")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    trials = run_order_trials(n_trials, RngStream(seed, 0))
    frac = band_fraction(trials)

    # K = 1 splitting degenerates to the exact exponential
    G = GeneratorSet((np.array([[0.0, 1.0], [-1.0, 0.0]]),))
    degenerate = spectral_norm(
        splitting_product(G, 0.1, "forward") - matrix_exp(0.1 * G.total))

    lt_slopes = {}
    lt_r2 = {}
    for n_inner in (1, 10):
        res = run_sweeps("lingauss", [("lie-trotter", GAP_GRID_LT)], [("full", 1)],
                         friction=GAP_FRICTION, n=n, reps=reps, seed=seed,
                         n_inner=n_inner)[0]
        lt_slopes[n_inner] = res.slopes[0]["slope"]
        lt_r2[n_inner] = res.slopes[0]["r_squared"]
    nl_gap = abs(lt_slopes[1] - lt_slopes[10])

    golden_checks, candidate = _golden_checks(
        {"orders_forward_fraction": frac["forward"],
         "orders_averaged_fraction": frac["averaged"]}, regen_golden)
    checks = [
        *(_check(f"{mode}_band_fraction", f >= 0.95, f,
                 ">= 0.95 in [{}, {}]".format(*slope_band(mode))) for mode, f in frac.items()),
        _check("single_part_degenerate", degenerate < 1e-12, degenerate, "< 1e-12"),
        _slope_check("inner_loop_count_independence", nl_gap,
                     min(lt_r2[1], lt_r2[10]), "<= 0.4", nl_gap <= 0.4),
    ] + golden_checks
    trial_errors, trial_slopes = trial_tables(trials)
    write_report_files(
        out_dir, "Splitting-order verification", checks,
        extra_csv={"trials.csv": trial_errors, "trial_slopes.csv": trial_slopes},
        candidate_goldens=candidate)
    return checks
