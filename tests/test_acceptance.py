"""End-to-end acceptance suite.

One test per claim, in order, each printing a single PASS/FAIL line with the
measured values and wall time. Protocols (grids, seeds, sample counts) are
frozen; the bars come with generous margins measured during calibration, so
a failure here means behavior changed, not luck.

Slowest tests are the 10^5-sample sweeps (a few minutes each on one core).
"""

import glob
import os
import time

import numpy as np
from click.testing import CliRunner

from hsde import repro
from hsde.chain import ChainConfig, run_chain
from hsde.cli import main as cli_main
from hsde.core import MassMatrix, RngStream
from hsde.geometry import (
    det_target_leapfrog,
    det_target_lie_trotter,
    jacobian_fd,
    symplectic_residual,
)
from hsde.integrators import IntegratorSpec, Scheme
from hsde.metrics import EmpiricalSample, ks_vs_gaussian
from hsde.operator_lab import (
    bch_truncated,
    error_order_slope,
    matrix_exp,
    run_order_trials,
    slope_band,
    spectral_norm,
)
from hsde.toy_exact import ExactMode, reference_params, run_exact_chain, toy_posterior


def _report(idx: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {idx:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_01_exact_full_chain_matches_posterior():
    t0 = time.perf_counter()
    p = reference_params()
    mean, var = toy_posterior(p)
    cfg = ChainConfig(n_samples=100_000, burn_in=2000, thinning=1, seed=11)
    trace = run_exact_chain(p, 0.4, ExactMode.FULL, cfg)
    ks = ks_vs_gaussian(EmpiricalSample(trace.thetas[:, 0]), mean, var)
    dt = time.perf_counter() - t0
    ok = ks < 0.012 and dt < 10.0
    _report(1, ok, f"exact full-batch KS {ks:.5f} < 0.012 ({dt:.1f}s < 10s)")


def test_02_minibatch_bottleneck_at_zero_discretization_error():
    t0 = time.perf_counter()
    coarse, fine = repro.exact_histograms([(0.4, 11), (0.01, 12)], n=100_000)
    ks_f, ks_m = coarse["full"]["ks"], coarse["minibatch"]["ks"]
    ks_ff, ks_mf = fine["full"]["ks"], fine["minibatch"]["ks"]
    dt = time.perf_counter() - t0
    ok = (ks_m > 0.05 and ks_m > 10 * ks_f and ks_mf < 3 * ks_ff
          and dt < 60.0)
    _report(2, ok,
            f"minibatch KS {ks_m:.4f} > 0.05 and {ks_m / ks_f:.1f}x full; "
            f"at eta=0.01 ratio {ks_mf / ks_ff:.2f} < 3 ({dt:.1f}s < 60s)")


SLOPE_GRID_LOW = (0.4, 0.283, 0.2, 0.141)
SLOPE_GRID_HIGH = (0.566, 0.4, 0.283, 0.2)


def test_03_full_batch_convergence_order_slopes():
    t0 = time.perf_counter()
    plan = [("euler", SLOPE_GRID_LOW), ("lie-trotter", SLOPE_GRID_HIGH),
            ("spv", SLOPE_GRID_HIGH), ("symmetric", SLOPE_GRID_HIGH),
            ("mt3", SLOPE_GRID_HIGH)]
    res, = repro.run_sweeps("lingauss", plan, [("full", 1)], friction=3.5,
                            n=100_000, reps=4, burn_in=2000, seed=707, n_ks=200)
    bars = {"euler": 0.8, "lie-trotter": 1.6, "spv": 1.6, "symmetric": 1.6,
            "mt3": 2.5}
    dt = time.perf_counter() - t0
    parts = []
    ok = dt < 1200.0
    for row in res.slopes:
        bar = bars[row["scheme"]]
        good = row["slope"] >= bar and row["r_squared"] >= 0.9
        ok = ok and good
        parts.append(f"{row['scheme']} {row['slope']:.2f}>={bar}"
                     f"(r2 {row['r_squared']:.3f})")
    _report(3, ok, "; ".join(parts) + f" ({dt:.0f}s < 1200s)")


def test_04_minibatch_slope_gap_at_k8():
    t0 = time.perf_counter()
    slopes = {}
    modes = [("full", 1), ("perm", repro.GAP_BATCHES)]
    # one sweep per scheme, its full and K=8 chains in one ensemble
    for scheme, grid in (("mt3", repro.GAP_GRID_MT3),
                         ("lie-trotter", repro.GAP_GRID_LT)):
        results = repro.run_sweeps("lingauss", [(scheme, grid)], modes,
                                   friction=repro.GAP_FRICTION, n=20_000, reps=4,
                                   burn_in=2000, seed=5, n_ks=200)
        for (mode, _), res in zip(modes, results):
            slopes[(scheme, mode)] = res.slopes[0]
    mt3_gap = (slopes[("mt3", "full")]["slope"]
               - slopes[("mt3", "perm")]["slope"])
    lt_gap = abs(slopes[("lie-trotter", "full")]["slope"]
                 - slopes[("lie-trotter", "perm")]["slope"])
    r2_min = min(v["r_squared"] for v in slopes.values())
    dt = time.perf_counter() - t0
    ok = mt3_gap >= 0.4 and lt_gap <= 0.4 and r2_min >= 0.9 and dt < 1200.0
    _report(4, ok,
            f"mt3 K=8 perm slope {slopes[('mt3', 'perm')]['slope']:.2f} vs "
            f"full {slopes[('mt3', 'full')]['slope']:.2f} (gap {mt3_gap:.2f} "
            f">= 0.4); lie-trotter gap {lt_gap:.2f} <= 0.4 "
            f"(min r2 {r2_min:.3f}; {dt:.0f}s < 1200s)")


def test_05_splitting_order_bands_over_random_generators():
    t0 = time.perf_counter()
    trials = run_order_trials(100, RngStream(3, 0))
    frac = {}
    for mode in ("forward", "averaged", "randomized"):
        lo, hi = slope_band(mode)
        frac[mode] = float(np.mean(
            [lo <= t.slope <= hi for t in trials if t.mode == mode]))
    dt = time.perf_counter() - t0
    ok = all(f >= 0.95 for f in frac.values()) and dt < 60.0
    _report(5, ok,
            f"band fractions forward {frac['forward']:.2f}, averaged "
            f"{frac['averaged']:.2f}, randomized {frac['randomized']:.2f} "
            f"all >= 0.95 ({dt:.1f}s < 60s)")


def test_06_bch_second_order_truncation_scales_cubically():
    t0 = time.perf_counter()
    rng = RngStream(606, 0)
    eps_grid = (0.04, 0.02, 0.01, 0.005)
    slopes = []
    for _ in range(20):
        A = rng.uniform(-1.0, 1.0, 9).reshape(3, 3)
        B = rng.uniform(-1.0, 1.0, 9).reshape(3, 3)
        A *= 0.5 / spectral_norm(A)
        B *= 0.5 / spectral_norm(B)
        errs = [spectral_norm(matrix_exp(e * A) @ matrix_exp(e * B)
                              - matrix_exp(bch_truncated(e * A, e * B, order=2)))
                for e in eps_grid]
        slopes.append(error_order_slope(eps_grid, errs)[0])
    worst = float(np.abs(np.array(slopes) - 3.0).max())
    dt = time.perf_counter() - t0
    ok = worst <= 0.1 and dt < 5.0
    _report(6, ok, f"20 random pairs, max |slope - 3.0| = {worst:.3f} <= 0.1 "
                   f"({dt:.2f}s < 5s)")


def test_07_quasi_symplecticity_identities():
    t0 = time.perf_counter()
    eta, friction, n_inner = 0.1, 1.5, 3
    worst_lf = 0.0
    worst_lt = 0.0
    for model_name in ("lingauss", "logistic2d"):
        model = repro.build_model(model_name, 1)
        d = model.dim
        mass = MassMatrix.identity(d)
        lf_target = det_target_leapfrog(eta, friction, mass)
        lt_target = det_target_lie_trotter(eta, friction, mass, n_inner)
        # 10 states, each r then theta, and each state's pinned draw from
        # its own stream
        z = RngStream(70, 0).normal(2 * d * 10).reshape(10, 2 * d)
        noise = [np.stack([RngStream(70, 4 * idx).normal(d) for idx in range(10)])]
        for scheme, n_in, target, sink in (
                (Scheme.LEAPFROG, 1, lf_target, "lf"),
                (Scheme.LIE_TROTTER, n_inner, lt_target, "lt")):
            spec = IntegratorSpec(scheme=scheme, eta=eta, friction=friction,
                                  mass=mass, n_inner=n_in)
            J = jacobian_fd(spec, model.gradient_many, model.hessian_vec_many, z, noise)
            rel = float(np.max(np.abs(np.linalg.det(J) - target))) / abs(target)
            if sink == "lf":
                worst_lf = max(worst_lf, rel)
            else:
                worst_lt = max(worst_lt, rel)

    # frictionless limit: the structure residual separates the schemes
    model = repro.build_model("lingauss", 1)
    mass = MassMatrix.identity(model.dim)
    z = np.concatenate([RngStream(71, 0).normal(model.dim),
                        RngStream(71, 1).normal(model.dim)])[None]
    noise = [RngStream(71, 2).normal(model.dim)[None]]
    resid = {}
    for scheme in (Scheme.EULER, Scheme.LEAPFROG):
        spec = IntegratorSpec(scheme=scheme, eta=0.1, friction=0.0, mass=mass)
        J = jacobian_fd(spec, model.gradient_many, model.hessian_vec_many, z, noise)
        resid[scheme] = symplectic_residual(J[0])
    ratio = resid[Scheme.EULER] / max(resid[Scheme.LEAPFROG], 1e-300)
    dt = time.perf_counter() - t0
    ok = worst_lf < 1e-6 and worst_lt < 1e-6 and ratio >= 10.0 and dt < 10.0
    _report(7, ok,
            f"leapfrog det rel err {worst_lf:.2e} < 1e-6, inner-loop det rel "
            f"err {worst_lt:.2e} < 1e-6 (10 states x 2 potentials); euler/"
            f"leapfrog structure residual ratio {ratio:.1e} >= 10 "
            f"({dt:.1f}s < 10s)")


def test_08_hmc_equals_lie_trotter_and_inner_count_free_slopes():
    t0 = time.perf_counter()
    model = repro.sweep_model(1)
    traces = {}
    for scheme in (Scheme.LIE_TROTTER, Scheme.HMC_PARTIAL):
        spec = IntegratorSpec(scheme=scheme, eta=0.15, friction=2.5,
                              mass=MassMatrix.identity(4), n_inner=5)
        cfg = ChainConfig(n_samples=2000, burn_in=200, thinning=1, seed=31)
        traces[scheme] = run_chain(model, spec, "full", cfg)
    same = (np.array_equal(traces[Scheme.LIE_TROTTER].thetas,
                           traces[Scheme.HMC_PARTIAL].thetas)
            and np.array_equal(traces[Scheme.LIE_TROTTER].momenta,
                               traces[Scheme.HMC_PARTIAL].momenta))

    slopes = {}
    for n_inner in (1, 10):
        res, = repro.run_sweeps("lingauss", [("lie-trotter", SLOPE_GRID_HIGH)],
                                [("full", 1)], friction=3.5, n=20_000, reps=4,
                                burn_in=2000, seed=505, n_ks=200, n_inner=n_inner)
        slopes[n_inner] = res.slopes[0]
    gap = abs(slopes[1]["slope"] - slopes[10]["slope"])
    r2_min = min(slopes[1]["r_squared"], slopes[10]["r_squared"])
    dt = time.perf_counter() - t0
    ok = same and gap <= 0.4 and r2_min >= 0.9 and dt < 1200.0
    _report(8, ok,
            f"hmc/lie-trotter traces bit-identical: {same}; inner-count "
            f"slopes {slopes[1]['slope']:.2f} vs {slopes[10]['slope']:.2f} "
            f"(gap {gap:.2f} <= 0.4, min r2 {r2_min:.3f}; {dt:.0f}s < 1200s)")


def test_09_stationary_momentum_variance():
    t0 = time.perf_counter()
    model = repro.sweep_model(1)
    spec = IntegratorSpec(scheme=Scheme.LEAPFROG, eta=0.005, friction=5.0,
                          mass=MassMatrix.identity(4))
    cfg = ChainConfig(n_samples=100_000, burn_in=2000, thinning=1, seed=909)
    trace = run_chain(model, spec, "full", cfg)
    r = trace.momenta
    var = r.var(axis=0)
    acf1 = np.array([np.corrcoef(r[:-1, j], r[1:, j])[0, 1]
                     for j in range(r.shape[1])])
    n_eff = len(r) * (1.0 - acf1) / (1.0 + acf1)
    band = 4.0 * var * np.sqrt(2.0 / n_eff)
    dev = np.abs(var - 1.0)
    dt = time.perf_counter() - t0
    ok = bool(np.all(dev <= band)) and dt < 300.0
    _report(9, ok,
            f"momentum variance {np.array2string(var, precision=3)} within "
            f"4-sigma bands +-{np.array2string(band, precision=3)} of 1 "
            f"({dt:.1f}s < 300s)")


CLI_CASES = [
    (["sample", "--model", "lingauss", "--scheme", "leapfrog", "--eta", "0.3",
      "--n", "40", "--burn-in", "20", "--seed", "4"], ["trace.csv"]),
    (["sweep", "--model", "lingauss", "--scheme", "leapfrog", "--eta-grid",
      "0.4,0.3,0.2", "--n", "40", "--reps", "1", "--burn-in", "20",
      "--n-ks", "20", "--seed", "3"], ["summary.csv", "slopes.csv"]),
    (["toy", "--eta", "0.4", "--n", "400", "--burn-in", "50", "--seed", "2"],
     ["hist_full.csv", "hist_minibatch.csv", "summary.csv"]),
    (["opcheck", "--trials", "4", "--seed", "1"],
     ["summary.csv", "slopes.csv"]),
    (["geom", "--scheme", "leapfrog", "--eta", "0.1", "-C", "1.5",
      "--states", "3", "--seed", "6"], ["summary.csv"]),
    (["report", "--which", "bottleneck", "--n", "1500"],
     ["checks.csv", "hist_full.csv", "hist_minibatch.csv"]),
]


def test_10_every_command_is_byte_deterministic(tmp_path):
    t0 = time.perf_counter()
    runner = CliRunner()
    failures = []
    for args, csvs in CLI_CASES:
        dirs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{args[0]}-{tag}"
            result = runner.invoke(cli_main, args + ["--out", str(out)])
            assert result.exit_code == 0, result.output
            dirs.append(out)
        produced = sorted(os.path.basename(p)
                          for p in glob.glob(str(dirs[0] / "*.csv")))
        assert set(csvs) <= set(produced), (args[0], produced)
        for name in produced:
            bytes_a = (dirs[0] / name).read_bytes()
            bytes_b = (dirs[1] / name).read_bytes()
            if bytes_a != bytes_b:
                failures.append(f"{args[0]}/{name}")
    dt = time.perf_counter() - t0
    ok = not failures and dt < 60.0
    _report(10, ok,
            f"all 6 commands rerun byte-identical across "
            f"{sum(len(c) for _, c in CLI_CASES)}+ CSVs"
            + (f"; mismatches: {failures}" if failures else "")
            + f" ({dt:.1f}s < 60s)")
