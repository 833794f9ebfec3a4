"""Command-line front end.

Each command writes its outputs into a run directory (default
``runs/<command>-<timestamp>-<seed>``, override with ``--out``) containing
``trace.csv`` (sample) or ``summary.csv`` (everything else, some commands
add auxiliary tables) plus a ``meta.txt`` that echoes every resolved
parameter. CSV contents are a pure function of the configuration and seed,
so a rerun with ``--out`` pointed elsewhere produces byte-identical CSVs;
wall time lives only in ``meta.txt``.

Options may come from a ``--config`` file of ``key = value`` lines (``#``
comments allowed); keys may be parameter names (``friction``) or flag
spellings (``C``). Flags given on the command line win over the file;
unknown keys are rejected.

Exit codes: 0 success, 2 invalid configuration or arguments, 3 chain
divergence, 4 filesystem errors.
"""

from __future__ import annotations

import dataclasses
import inspect
import os
import sys
import time
from datetime import datetime

import click
import numpy as np

from . import repro
from .chain import ChainConfig, DivergenceError, run_chain, save_trace
from .core import MassMatrix, RngStream, format_float, write_columns
from .geometry import (
    check_eps,
    det_target_leapfrog,
    det_target_lie_trotter,
    jacobian_fd,
    symplectic_residual,
)
from .integrators import IntegratorSpec, Scheme, noise_draws
from .metrics import EmpiricalSample, ks_vs_gaussian, moment_errors
from .operator_lab import run_order_trials, slope_band
from .potentials import AnalyticPosteriorUnavailable
from .toy_exact import ExactMode, reference_params, run_exact_chain

_MODELS = click.Choice(["toy", "lingauss", "logistic2d"])
# a sweep scores every cell against the closed-form posterior
_SWEEP_MODELS = click.Choice(["toy", "lingauss"])
_SCHEMES = click.Choice([s.value for s in Scheme] + ["exact"])
_MODES = click.Choice(["full", "perm", "iid"])

EXIT_BAD_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_IO = 4


# ---------------------------------------------------------------------------
# config file and run-directory plumbing


def _load_config_file(path: str) -> dict:
    entries = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise click.UsageError(
                    f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, value = line.split("=", 1)
            entries[key.strip().replace("-", "_")] = value.strip()
    return entries


def _apply_config(ctx: click.Context, config: str | None) -> None:
    """Fill parameters from the config file wherever the command line left
    the default in place; reject keys that match no option."""
    if config is None:
        return
    params = {}
    for p in ctx.command.params:
        params[p.name] = p
        for decl in p.opts + p.secondary_opts:
            if decl.startswith("--"):
                params[decl[2:].replace("-", "_")] = p
    entries = _load_config_file(config)
    for key, text in entries.items():
        if key in ("config", "out") or key not in params:
            raise click.UsageError(f"unknown config key {key!r} in {config}")
        param = params[key]
        if ctx.get_parameter_source(param.name) is not click.core.ParameterSource.DEFAULT:
            continue
        if param.multiple:
            values = [v.strip() for v in text.split(",") if v.strip()]
            ctx.params[param.name] = tuple(
                param.type.convert(v, param, ctx) for v in values)
        else:
            ctx.params[param.name] = param.type.convert(text, param, ctx)


def _run_dir(out: str | None, command: str, seed: int, made: list) -> str:
    """The run directory, made if missing; each directory made here is
    appended to `made`, outermost first, as soon as it exists."""
    if out is None:
        stamp = datetime.now().strftime("%Y%m%d-%H%M%S")
        out = os.path.join("runs", f"{command}-{stamp}-{seed}")
    missing = []
    head = os.path.normpath(out)
    while head and not os.path.exists(head):
        missing.append(head)
        head = os.path.dirname(head)
    for path in reversed(missing):
        os.mkdir(path)
        made.append(path)
    os.makedirs(out, exist_ok=True)  # raises where out names a file
    return out


def _write_meta(out_dir: str, command: str, params: dict, wall: float,
                extra: dict | None = None) -> None:
    merged = {"command": command}
    merged.update(params)
    if extra:
        merged.update(extra)
    merged["wall_time_s"] = f"{wall:.3f}"
    with open(os.path.join(out_dir, "meta.txt"), "w") as fh:
        for key in sorted(merged):
            value = merged[key]
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            fh.write(f"{key} = {value}\n")


def _execute(ctx: click.Context, command: str, body) -> None:
    """Shared run harness: config merge, run dir, timing, exit codes."""
    _apply_config(ctx, ctx.params.get("config"))
    kw = dict(ctx.params)
    kw.pop("config", None)
    out = kw.pop("out", None)
    t0 = time.perf_counter()
    made = []
    try:
        try:
            out_dir = _run_dir(out, command, kw.get("seed", 0), made)
            extra = body(out_dir, **kw)
            _write_meta(out_dir, command, kw, time.perf_counter() - t0, extra)
        except ValueError as err:
            raise click.UsageError(str(err))
        except DivergenceError as err:
            click.echo(f"error: {err}", err=True)
            sys.exit(EXIT_DIVERGED)
        except OSError as err:
            click.echo(f"error: {err}", err=True)
            sys.exit(EXIT_IO)
    except BaseException:
        # a failed run leaves behind none of the directories it made that
        # are still empty, innermost first, and never removes one that was
        # there before
        for path in reversed(made):
            try:
                os.rmdir(path)
            except OSError:
                break
        raise
    click.echo(out_dir)


def _common_options(fn):
    fn = click.option("--seed", type=int, default=0, show_default=True,
                      help="Base seed; every RNG stream derives from it.")(fn)
    fn = click.option("--out", type=click.Path(), default=None,
                      help="Run directory (default runs/<command>-<stamp>-<seed>).")(fn)
    fn = click.option("--config", type=click.Path(exists=True, dir_okay=False),
                      default=None,
                      help="key = value file supplying defaults for any option.")(fn)
    return fn


@click.group()
def main():
    """Posterior sampling via Hamiltonian SDE integrators, with built-in
    convergence-order verification against analytic oracles."""


# ---------------------------------------------------------------------------
# sample


@main.command()
@click.option("--model", type=_MODELS, default="toy", show_default=True)
@click.option("--scheme", type=_SCHEMES, default="leapfrog", show_default=True)
@click.option("--eta", type=float, default=0.1, show_default=True,
              help="Step size.")
@click.option("--C", "-C", "friction", type=float, default=2.0,
              show_default=True, help="Friction coefficient.")
@click.option("--K", "-K", "batches", type=int, default=1, show_default=True,
              help="Number of gradient mini-batches.")
@click.option("--mode", type=_MODES, default="full", show_default=True,
              help="Batch schedule: full gradient, per-epoch permutations, "
                   "or independent draws.")
@click.option("--nl", "n_inner", type=int, default=1, show_default=True,
              help="Inner deterministic steps (lie-trotter / hmc).")
@click.option("--vhat", "v_hat", type=float, default=0.0, show_default=True,
              help="Friction credited to gradient noise (sghmc).")
@click.option("--n", type=int, default=1000, show_default=True,
              help="Kept samples.")
@click.option("--burn-in", type=int, default=2000, show_default=True)
@click.option("--thin", type=int, default=1, show_default=True)
@_common_options
@click.pass_context
def sample(ctx, **_kw):
    """Run one chain and write trace.csv."""
    _execute(ctx, "sample", _do_sample)


def _do_sample(out_dir, model, scheme, eta, friction, batches, mode, n_inner,
               v_hat, n, burn_in, thin, seed):
    if n < 1:  # before the run, so no header-only trace.csv is left behind
        raise click.UsageError("--n must be >= 1")
    cfg = ChainConfig(n_samples=n, burn_in=burn_in, thinning=thin, seed=seed)
    if scheme == "exact":
        if model != "toy":
            raise click.UsageError("the exact kernel exists only for the toy model")
        if mode == "perm":
            raise click.UsageError(
                "the exact kernel has no permutation variant; use full or iid")
        inherent = 1 if mode == "full" else 2
        if batches not in (1, inherent):
            raise click.UsageError(
                f"the exact {mode} kernel implies --K {inherent}")
        emode = ExactMode.FULL if mode == "full" else ExactMode.MINIBATCH
        p = dataclasses.replace(reference_params(), friction=friction)
        trace = run_exact_chain(p, eta, emode, cfg)
    else:
        potential = repro.build_model(model, batches)
        spec = IntegratorSpec(scheme=Scheme(scheme), eta=eta, friction=friction,
                              mass=MassMatrix.identity(potential.dim),
                              n_inner=n_inner, v_hat=v_hat)
        trace = run_chain(potential, spec, mode, cfg)
    extra = {"effective_time": format_float(trace.effective_time),
             "kept": trace.n_samples}
    try:
        post = repro.build_model(model, 1).analytic_posterior()
    except AnalyticPosteriorUnavailable:
        post = None
    if post is not None:
        # a chain that grows huge without leaving the finite range overflows
        # its summary: no warnings, it is reported as a divergence before
        # any output is written
        with np.errstate(all="ignore"):
            mean_err, var_err = moment_errors(trace, post)
            ks = ks_vs_gaussian(EmpiricalSample(trace.thetas[:, 0]),
                                post.mean[0], post.cov[0, 0])
        summary = (ks, mean_err.max(), var_err.max())
        if not np.all(np.isfinite(summary)):
            raise DivergenceError("chain summary is not finite", eta=eta, scheme=scheme)
        extra.update(zip(("ks_coord0", "mean_err", "var_err"), map(format_float, summary)))
    save_trace(trace, os.path.join(out_dir, "trace.csv"))
    return extra


# ---------------------------------------------------------------------------
# sweep


@main.command()
@click.option("--model", type=_SWEEP_MODELS, default="lingauss", show_default=True)
@click.option("--scheme", type=_SCHEMES, multiple=True,
              default=("leapfrog",), show_default=True,
              help="May be given several times; each scheme runs the grid.")
@click.option("--eta-grid", type=str, default="0.4,0.283,0.2,0.141",
              show_default=True, help="Comma-separated step sizes.")
@click.option("--C", "-C", "friction", type=float, default=2.0,
              show_default=True)
@click.option("--K", "-K", "batches", type=int, default=1, show_default=True)
@click.option("--mode", type=_MODES, default="full", show_default=True)
@click.option("--nl", "n_inner", type=int, default=1, show_default=True)
@click.option("--vhat", "v_hat", type=float, default=0.0, show_default=True)
@click.option("--n", type=int, default=2000, show_default=True)
@click.option("--reps", type=int, default=4, show_default=True,
              help="Replicate chains per cell.")
@click.option("--burn-in", type=int, default=2000, show_default=True)
@click.option("--thin", type=int, default=1, show_default=True)
@click.option("--n-ks", type=int, default=200, show_default=True,
              help="Tail length for the per-cell distribution distance.")
@click.option("--jobs", type=int, default=1, show_default=True)
@_common_options
@click.pass_context
def sweep(ctx, **_kw):
    """Step-size sweep: summary.csv (one row per cell) + slopes.csv."""
    _execute(ctx, "sweep", _do_sweep)


def _do_sweep(out_dir, model, scheme, eta_grid, friction, batches, mode,
              n_inner, v_hat, n, reps, burn_in, thin, n_ks, jobs, seed):
    if "exact" in scheme:
        raise click.UsageError("sweeps cover the discretized schemes; "
                               "use the toy command for the exact kernel")
    try:
        etas = tuple(float(tok) for tok in eta_grid.split(",") if tok.strip())
    except ValueError:
        raise click.UsageError(f"could not parse --eta-grid {eta_grid!r}")
    if not etas:
        raise click.UsageError("--eta-grid is empty")
    plan = [(s, etas) for s in scheme]
    res = repro.run_sweeps(model, plan, [(mode, batches)],
                           friction=friction, n=n, reps=reps, burn_in=burn_in,
                           thin=thin, seed=seed, n_ks=n_ks, jobs=jobs,
                           n_inner=n_inner, v_hat=v_hat)[0]
    repro.write_csv(os.path.join(out_dir, "summary.csv"),
                    repro.SWEEP_ROW_FIELDS, res.rows)
    repro.write_csv(os.path.join(out_dir, "slopes.csv"),
                    repro.SLOPE_ROW_FIELDS, res.slopes)
    return {"cells": len(res.rows)}


# ---------------------------------------------------------------------------
# toy


@main.command()
@click.option("--eta", type=float, default=0.4, show_default=True)
@click.option("--n", type=int, default=100_000, show_default=True)
@click.option("--burn-in", type=int, default=2000, show_default=True)
@click.option("--thin", type=int, default=1, show_default=True)
@_common_options
@click.pass_context
def toy(ctx, **_kw):
    """Exact-kernel chains in both batch modes; histograms + distances."""
    _execute(ctx, "toy", _do_toy)


def _do_toy(out_dir, eta, n, burn_in, thin, seed):
    hists = repro.exact_histograms([(eta, seed)], n, burn_in, thin)[0]
    summary = []
    for mode, data in hists.items():
        repro.write_csv(os.path.join(out_dir, f"hist_{mode}.csv"),
                        *repro.histogram_table(data))
        summary.append({"mode": mode, "ks": data["ks"], "n": data["n"]})
    repro.write_csv(os.path.join(out_dir, "summary.csv"),
                    ["mode", "ks", "n"], summary)
    return {f"ks_{row['mode']}": format_float(row["ks"]) for row in summary}


# ---------------------------------------------------------------------------
# opcheck


@main.command()
@click.option("--trials", type=int, default=100, show_default=True)
@click.option("--K", "-K", "parts", type=str, default="2,3,4",
              show_default=True,
              help="Candidate generator counts, comma-separated.")
@click.option("--n", "dims", type=str, default="2,3,4", show_default=True,
              help="Candidate matrix dimensions, comma-separated.")
@_common_options
@click.pass_context
def opcheck(ctx, **_kw):
    """Random splitting-order trials; summary.csv + slopes.csv."""
    _execute(ctx, "opcheck", _do_opcheck)


def _do_opcheck(out_dir, trials, parts, dims, seed):
    try:
        k_choices = tuple(int(tok) for tok in parts.split(",") if tok.strip())
        n_choices = tuple(int(tok) for tok in dims.split(",") if tok.strip())
    except ValueError:
        raise click.UsageError("--K and --n take comma-separated integers")
    results = run_order_trials(trials, RngStream(seed, 0),
                               k_choices=k_choices, n_choices=n_choices)
    errors, slopes = repro.trial_tables(results)
    repro.write_csv(os.path.join(out_dir, "summary.csv"), *errors)
    repro.write_csv(os.path.join(out_dir, "slopes.csv"), *slopes)
    extra = {}
    for mode in ("forward", "averaged", "randomized"):
        vals = [t.slope for t in results if t.mode == mode]
        if not vals:
            continue
        lo, hi = slope_band(mode)
        frac = float(np.mean([lo <= v <= hi for v in vals]))
        extra[f"{mode}_band_fraction"] = format_float(frac)
    return extra


# ---------------------------------------------------------------------------
# geom


# the most bytes of probe points and their images one `jacobian_fd` call
# steps: a few hundred states at once, and working memory does not grow
# with --states
_GEOM_PASS_BYTES = 1 << 19
_GEOM_SCHEMES = click.Choice(["euler", "leapfrog", "sghmc", "spv", "symmetric",
                              "lie-trotter", "hmc"])


@main.command()
@click.option("--scheme", type=_GEOM_SCHEMES, default="leapfrog",
              show_default=True)
@click.option("--model", type=_MODELS, default="lingauss", show_default=True)
@click.option("--eta", type=float, default=0.1, show_default=True)
@click.option("--C", "-C", "friction", type=float, default=2.0,
              show_default=True)
@click.option("--nl", "n_inner", type=int, default=1, show_default=True)
@click.option("--states", type=int, default=10, show_default=True,
              help="Number of random probe states.")
@click.option("--eps", type=float, default=1e-5, show_default=True,
              help="Finite-difference step for the Jacobian.")
@_common_options
@click.pass_context
def geom(ctx, **_kw):
    """Frozen-noise step Jacobians: volume factors vs closed-form targets,
    plus the symplectic-structure residual."""
    _execute(ctx, "geom", _do_geom)


def _do_geom(out_dir, scheme, model, eta, friction, n_inner, states, eps, seed):
    if states < 1:
        raise click.UsageError("--states must be >= 1")
    check_eps(eps)
    potential = repro.build_model(model, 1)
    d = potential.dim
    mass = MassMatrix.identity(d)
    spec = IntegratorSpec(scheme=Scheme(scheme), eta=eta, friction=friction,
                          mass=mass, n_inner=n_inner)
    grad, hess = potential.gradient_many, potential.hessian_vec_many
    n_draws = noise_draws(spec.scheme)
    draw = RngStream(seed, 1)
    # 4d points of 2d floats per state, in and out
    per_pass = max(1, _GEOM_PASS_BYTES // (128 * d * d))
    dets, symps = [], []
    for lo in range(0, states, per_pass):
        count = min(per_pass, states - lo)
        # each state's r then its theta, in draw order: one call reads what
        # 2 * count calls of normal(d) read
        z = draw.normal(2 * d * count).reshape(count, 2 * d)
        # each state's step draws from its own stream, (n_draws, count, d)
        noise = np.stack([RngStream(seed, 4 * idx).normal(n_draws * d).reshape(n_draws, d)
                          for idx in range(lo, lo + count)], axis=1)
        J = jacobian_fd(spec, grad, hess, z, noise, eps=eps)
        dets.append(np.linalg.det(J))
        symps.append(symplectic_residual(J))
    det = np.concatenate(dets)
    # exact OU sub-steps contract volume by exp(-eta C / M_ii) per unit of
    # simulated time; linear-friction kicks contract by (1 - eta C / M_ii).
    # Worked out once every step is known to be finite, so a step size that
    # diverges reports its error alone
    if scheme in ("euler", "leapfrog", "sghmc"):
        target = det_target_leapfrog(eta, friction, mass)
    elif scheme in ("spv", "symmetric"):
        target = det_target_lie_trotter(eta, friction, mass, 1)
    else:
        target = det_target_lie_trotter(eta, friction, mass, n_inner)
    residual = np.abs(det - target)
    # one row per probe state, in draw order
    write_columns(os.path.join(out_dir, "summary.csv"),
                  ["scheme", "eta", "C", "det_J", "det_target", "det_residual",
                   "symp_residual"],
                  [[scheme] * states, np.full(states, eta), np.full(states, friction), det,
                   np.full(states, target), residual, np.concatenate(symps)])
    return {"max_det_residual": format_float(residual.max())}


# ---------------------------------------------------------------------------
# report


@main.command()
@click.option("--which", type=click.Choice(["bottleneck", "gap", "orders"]),
              required=True)
@click.option("--n", type=int, default=None,
              help="Kept samples per chain (default depends on the report).")
@click.option("--reps", type=int, default=None,
              help="Replicate chains per cell where applicable.")
@click.option("--trials", type=int, default=100, show_default=True,
              help="Random generator sets (orders report).")
@click.option("--jobs", type=int, default=1, show_default=True,
              help="Checked (>= 1) and otherwise ignored: every report sweep has "
                   "one plan pair, so no report starts a worker pool.")
@click.option("--regen-golden", is_flag=True, default=False,
              help="Also write goldens_candidate.json with the fresh values.")
@_common_options
@click.pass_context
def report(ctx, **_kw):
    """Verification reports: report.md + checks.csv (+ raw cell CSVs).

    The command exits 0 once the report is written; pass or fail lives in
    the report itself.
    """
    _execute(ctx, "report", _do_report)


def _do_report(out_dir, which, n, reps, trials, jobs, regen_golden, seed):
    if jobs < 1:
        raise click.UsageError("jobs must be >= 1")
    fn = {"bottleneck": repro.report_exact_bottleneck, "gap": repro.report_minibatch_gap,
          "orders": repro.report_splitting_orders}[which]
    params = inspect.signature(fn).parameters
    # a report ignores options it does not take, and n, reps and seed left
    # unset keep its defaults: seed 0 (the default) selects the frozen
    # protocol seed the golden values were produced with
    given = {"n": n, "reps": reps, "n_trials": trials, "seed": seed or None}
    kw = {key: value for key, value in given.items() if key in params and value is not None}
    eff_seed = kw.setdefault("seed", params["seed"].default)
    checks = fn(out_dir, regen_golden=regen_golden, **kw)
    for c in checks:
        click.echo(f"{c.status.upper():12s} {c.name}: {c.value:.6g} "
                   f"(target {c.target})")
    return {"overall": repro.overall_status(checks), "checks": len(checks),
            "protocol_seed": eff_seed}


if __name__ == "__main__":
    main()
