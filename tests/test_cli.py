"""Command-line behavior: flags, config files, outputs, exit codes.

Uses click's in-process runner; chains are kept tiny since the physics is
covered elsewhere. Exit-code contract: 0 success, 2 bad configuration,
3 divergence, 4 filesystem trouble.
"""

import csv
import hashlib
import io
import os
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hsde.chain import ChainConfig
from hsde.cli import main

from .oracles import REFERENCE_TOY, reference_exact_chain, reference_ks_vs_gaussian


@pytest.fixture()
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return result


def read_meta(out_dir):
    entries = {}
    with open(os.path.join(out_dir, "meta.txt")) as fh:
        for line in fh:
            key, value = line.split(" = ", 1)
            entries[key] = value.strip()
    return entries


SAMPLE_FAST = ["sample", "--model", "lingauss", "--scheme", "leapfrog",
               "--eta", "0.3", "--n", "50", "--burn-in", "20", "--seed", "4"]


class TestSample:
    def test_writes_trace_and_meta(self, runner, tmp_path):
        out = str(tmp_path / "run")
        run_ok(runner, SAMPLE_FAST + ["--out", out])
        with open(os.path.join(out, "trace.csv")) as fh:
            header = fh.readline().strip()
            n_rows = sum(1 for _ in fh)
        assert header == "step,time,theta_0,theta_1,theta_2,theta_3,r_0,r_1,r_2,r_3"
        assert n_rows == 50
        meta = read_meta(out)
        assert meta["command"] == "sample"
        assert meta["scheme"] == "leapfrog"
        assert meta["eta"] == "0.3"
        assert meta["kept"] == "50"
        assert "ks_coord0" in meta and "wall_time_s" in meta

    def test_ks_of_a_50000_sample_trace_is_the_reference_value(self, runner, tmp_path):
        # the KS of a long trace is pruned to the blocks that can hold the
        # sup; meta.txt alone carries it, and no digest pins meta.txt
        from hsde import repro

        args = ["sample", "--model", "lingauss", "--scheme", "leapfrog", "--K", "8",
                "--mode", "iid", "--n", "50000", "--thin", "1", "--seed", "0"]
        run_ok(runner, args + ["--out", str(tmp_path)])
        theta0 = np.sort(np.loadtxt(tmp_path / "trace.csv", delimiter=",", skiprows=1,
                                    usecols=2))
        post = repro.build_model("lingauss", 8).analytic_posterior()
        want = reference_ks_vs_gaussian(theta0, post.mean[0], post.cov[0, 0])
        assert theta0.size == 50_000
        assert float(read_meta(tmp_path)["ks_coord0"]) == want

    @pytest.mark.parametrize("args", [
        ["--model", "toy", "--scheme", "exact", "--mode", "iid"],
        ["--model", "lingauss", "--scheme", "mt3", "--K", "8", "--mode", "perm"],
        ["--model", "logistic2d", "--scheme", "spv", "--K", "4", "--mode", "iid"]],
        ids=["exact", "lingauss", "logistic2d"])
    def test_one_model_is_built(self, runner, tmp_path, monkeypatch, args):
        # the posterior the summary is scored against does not depend on the
        # batching, so it comes from the model the chain runs on
        from hsde import repro

        built = []
        build = repro.build_model
        monkeypatch.setattr(repro, "build_model",
                            lambda name, k=1: built.append((name, k)) or build(name, k))
        run_ok(runner, ["sample", *args, "--n", "20", "--burn-in", "10",
                        "--out", str(tmp_path / "run")])
        assert len(built) == 1
        name, k = built[0]
        if name != "logistic2d":
            ref, got = build(name, 1).analytic_posterior(), build(name, k).analytic_posterior()
            assert got.mean.tobytes() == ref.mean.tobytes()
            assert got.cov.tobytes() == ref.cov.tobytes()

    def test_rerun_is_byte_identical(self, runner, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        run_ok(runner, SAMPLE_FAST + ["--out", a])
        run_ok(runner, SAMPLE_FAST + ["--out", b])
        with open(os.path.join(a, "trace.csv"), "rb") as fh:
            bytes_a = fh.read()
        with open(os.path.join(b, "trace.csv"), "rb") as fh:
            bytes_b = fh.read()
        assert bytes_a == bytes_b

    def test_seed_changes_trace(self, runner, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        run_ok(runner, SAMPLE_FAST[:-1] + ["4", "--out", a])
        run_ok(runner, SAMPLE_FAST[:-1] + ["5", "--out", b])
        assert (open(os.path.join(a, "trace.csv")).read()
                != open(os.path.join(b, "trace.csv")).read())

    def test_exact_full_kernel(self, runner, tmp_path):
        out = str(tmp_path / "run")
        run_ok(runner, ["sample", "--model", "toy", "--scheme", "exact",
                        "--eta", "0.4", "--n", "40", "--burn-in", "10",
                        "--out", out])
        with open(os.path.join(out, "trace.csv")) as fh:
            assert fh.readline().strip() == "step,time,theta_0,r_0"
        meta = read_meta(out)
        assert meta["mode"] == "full"
        assert "var_err" in meta

    def test_exact_iid_kernel(self, runner, tmp_path):
        out = str(tmp_path / "run")
        run_ok(runner, ["sample", "--model", "toy", "--scheme", "exact",
                        "--mode", "iid", "--eta", "0.4", "--n", "40",
                        "--burn-in", "10", "--out", out])
        assert os.path.exists(os.path.join(out, "trace.csv"))

    # meta.txt names the K the chain ran on, which an exact kernel implies
    @pytest.mark.parametrize("mode, K", [("iid", "2"), ("perm", "2"), ("full", "1")])
    def test_exact_meta_names_the_batches_it_ran_on(self, runner, tmp_path, mode, K):
        out = str(tmp_path / "run")
        run_ok(runner, ["sample", "--model", "toy", "--scheme", "exact", "--mode", mode,
                        "--n", "20", "--burn-in", "5", "--out", out])
        assert read_meta(out)["batches"] == K

    def test_exact_perm_implies_two_batches(self, runner, tmp_path):
        out = tmp_path / "x"
        result = runner.invoke(main, ["sample", "--model", "toy", "--scheme",
                                      "exact", "--mode", "perm", "--K", "3",
                                      "--out", str(out)])
        assert result.exit_code == 2
        assert "the exact perm kernel implies --K 2" in result.output
        assert not os.path.exists(out)

    def test_exact_perm_kernel(self, runner, tmp_path):
        args = ["sample", "--model", "toy", "--scheme", "exact", "--mode", "perm",
                "--K", "2", "--eta", "0.4", "--n", "40", "--burn-in", "10", "--seed", "3"]
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        run_ok(runner, args + ["--out", a])
        run_ok(runner, args + ["--out", b])
        with open(os.path.join(a, "trace.csv"), "rb") as fh:
            text = fh.read()
        with open(os.path.join(b, "trace.csv"), "rb") as fh:
            assert fh.read() == text
        # the rows are the one-step reference chain's, bit for bit: .17g
        # round-trips every float64
        thetas, momenta, steps, times, _ = reference_exact_chain(
            REFERENCE_TOY, 0.4, "perm",
            ChainConfig(n_samples=40, burn_in=10, thinning=1, seed=3), friction=2.0)
        rows = np.loadtxt(io.StringIO(text.decode()), delimiter=",", skiprows=1)
        for got, want in zip(rows.T, (steps, times, thetas[:, 0], momenta[:, 0])):
            assert got.tobytes() == want.astype(np.float64).tobytes()
        assert read_meta(a)["mode"] == "perm"

    @pytest.mark.parametrize("args, message", [
        (["--model", "lingauss"], "one-parameter linear-Gaussian"),
        (["--model", "logistic2d"], "one-parameter linear-Gaussian"),
        (["--model", "lingauss", "--mode", "perm", "--K", "2"], "one-parameter linear-Gaussian"),
        (["-C", "0"], "finite friction > 0"),
        (["-C", "-1"], "finite friction > 0"),
        (["-C", "inf"], "finite friction > 0"),
        (["-C", "nan"], "finite friction > 0"),
        (["--mode", "iid", "-C", "inf"], "finite friction > 0"),
        (["-C", "1e155"], "no exact kernel at friction"),
        (["--mode", "perm", "--K", "2", "-C", "1e300"], "no exact kernel at friction"),
    ])
    def test_exact_kernel_refuses_before_running(self, runner, tmp_path, args, message):
        out = tmp_path / "x"
        result = runner.invoke(main, ["sample", "--model", "toy", "--scheme", "exact",
                                      "--n", "5", "--burn-in", "5", *args, "--out", str(out)])
        assert result.exit_code == 2
        assert message in result.output
        assert not os.path.exists(out)

    @pytest.mark.parametrize("friction", ["2e4", "1e6", "1e10"])
    def test_exact_kernel_runs_strongly_overdamped(self, runner, tmp_path, friction):
        # cosh(q eta) overflows here, the transition does not: no warning,
        # a finite trace and exit 0
        out = tmp_path / "x"
        run_ok(runner, ["sample", "--model", "toy", "--scheme", "exact", "-C", friction,
                        "--eta", "0.1", "--n", "5", "--burn-in", "5", "--out", str(out)])
        rows = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1)
        assert rows.shape == (5, 4) and np.all(np.isfinite(rows))

    @pytest.mark.parametrize("args", [["--nl", "0"], ["--nl", "3"], ["--vhat", "nan"],
                                      ["--vhat", "0.5"], ["--vhat", "nan", "--nl", "0"]])
    def test_exact_refuses_integrator_options(self, runner, tmp_path, args):
        # the exact kernel has no inner steps and credits no friction to
        # gradient noise, so neither option can be echoed as if it were used
        out = tmp_path / "x"
        result = runner.invoke(main, ["sample", "--model", "toy", "--scheme", "exact",
                                      "--n", "5", "--burn-in", "5", *args, "--out", str(out)])
        assert result.exit_code == 2
        assert "the exact kernel takes neither --nl nor --vhat" in result.output
        assert not os.path.exists(out)

    def test_exact_rejects_contradictory_batches(self, runner, tmp_path):
        result = runner.invoke(main, ["sample", "--model", "toy", "--scheme",
                                      "exact", "--mode", "iid", "-K", "5",
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 2

    def test_validation_errors_exit_2(self, runner, tmp_path):
        result = runner.invoke(main, SAMPLE_FAST[:-4] + ["--eta", "-1",
                                                         "--out", str(tmp_path / "x")])
        assert result.exit_code == 2

    @pytest.mark.parametrize("scheme", ["leapfrog", "exact"])
    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_rejects_no_kept_samples_before_running(self, runner, tmp_path, n, scheme):
        out = tmp_path / "x"
        result = runner.invoke(main, ["sample", "--model", "toy", "--scheme", scheme,
                                      "--n", n, "--burn-in", "10", "--out", str(out)])
        assert result.exit_code == 2
        assert "--n" in result.output
        assert not os.path.exists(out / "trace.csv")

    # the chain overflows on purpose before the divergence check trips
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exits_3(self, runner, tmp_path):
        result = runner.invoke(main, ["sample", "--model", "lingauss",
                                      "--scheme", "euler", "--eta", "3.0",
                                      "-C", "0.1", "--n", "400",
                                      "--burn-in", "0",
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 3
        assert "diverged" in result.output

    # MT3's noise amplitudes times C and C^2 overflow to inf when its
    # constants are formed, before any step: no warning may escape
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_mt3_constants_exit_3_without_warnings(self, runner, tmp_path):
        result = runner.invoke(main, ["sample", "--model", "lingauss", "--scheme", "mt3",
                                      "--eta", "1e-8", "-C", "1e300", "--n", "30",
                                      "--burn-in", "0", "--out", str(tmp_path / "x")])
        assert result.exit_code == 3, result.output
        assert result.stderr.splitlines() == [
            "error: chain diverged step=1 scheme=mt3 eta=1e-08"]
        assert os.listdir(tmp_path) == []


class TestConfigFile:
    def test_config_supplies_defaults(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment line\nmodel = lingauss\nscheme = spv\n"
                       "eta = 0.25\nn = 30\nburn-in = 10\nseed = 9\n")
        out = str(tmp_path / "run")
        run_ok(runner, ["sample", "--config", str(cfg), "--out", out])
        meta = read_meta(out)
        assert meta["scheme"] == "spv"
        assert meta["eta"] == "0.25"
        assert meta["burn_in"] == "10"
        assert meta["seed"] == "9"

    def test_flag_beats_config(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = lingauss\neta = 0.25\nn = 30\nburn_in = 10\n")
        out = str(tmp_path / "run")
        run_ok(runner, ["sample", "--config", str(cfg), "--eta", "0.5",
                        "--out", out])
        assert read_meta(out)["eta"] == "0.5"

    def test_unknown_key_rejected(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mystery = 1\n")
        result = runner.invoke(main, ["sample", "--config", str(cfg),
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 2
        assert "unknown config key" in result.output

    def test_malformed_line_rejected(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n")
        result = runner.invoke(main, ["sample", "--config", str(cfg),
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 2

    def test_bad_value_rejected_with_key_type(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eta = fast\n")
        result = runner.invoke(main, ["sample", "--config", str(cfg),
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 2

    def test_multi_valued_key_in_config(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scheme = leapfrog, euler\neta_grid = 0.4,0.3,0.2\n"
                       "n = 40\nburn_in = 20\nreps = 1\nn_ks = 20\n")
        out = str(tmp_path / "run")
        run_ok(runner, ["sweep", "--config", str(cfg), "--out", out])
        with open(os.path.join(out, "slopes.csv")) as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("leapfrog,")
        assert lines[2].startswith("euler,")

    # a multi-valued key left empty names no scheme: the sweep is refused
    # before any chain runs and leaves no run directory
    def test_empty_scheme_key_rejected(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scheme =\nn = 40\nburn_in = 20\nreps = 1\nn_ks = 20\n")
        out = tmp_path / "run"
        result = runner.invoke(main, ["sweep", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "at least one scheme" in result.output
        assert not out.exists()

    def test_flag_spelling_keys_accepted(self, runner, tmp_path):
        # config keys may use the flag spellings (C, K, nl, vhat) as well
        # as the parameter names they map to
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = lingauss\nC = 3.5\nK = 2\nmode = perm\n"
                       "nl = 1\nvhat = 0.0\nn = 30\nburn-in = 10\n")
        out = str(tmp_path / "run")
        run_ok(runner, ["sample", "--config", str(cfg), "--out", out])
        meta = read_meta(out)
        assert meta["friction"] == "3.5"
        assert meta["batches"] == "2"
        assert meta["mode"] == "perm"

    def test_flag_beats_multi_valued_config(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scheme = leapfrog, euler\neta_grid = 0.4,0.3,0.2\n"
                       "n = 40\nburn_in = 20\nreps = 1\nn_ks = 20\n")
        out = str(tmp_path / "run")
        run_ok(runner, ["sweep", "--config", str(cfg), "--scheme", "spv", "--out", out])
        assert read_meta(out)["scheme"] == "spv"

    @pytest.mark.parametrize("key", ["out", "config"])
    def test_out_and_config_keys_rejected(self, runner, tmp_path, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = x\n")
        out = tmp_path / "x"
        result = runner.invoke(main, ["sample", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 2
        assert "unknown config key" in result.output
        assert not out.exists()

    def test_bad_choice_names_its_option(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = nope\n")
        out = tmp_path / "x"
        result = runner.invoke(main, ["sample", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 2
        assert "--model" in result.output
        assert not out.exists()

    def test_flag_key_in_config(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trials = 3\nn = 10\nreps = 1\nregen-golden = true\n")
        out = tmp_path / "run"
        run_ok(runner, ["report", "--which", "orders", "--config", str(cfg),
                        "--out", str(out)])
        assert (out / "goldens_candidate.json").exists()
        assert read_meta(str(out))["regen_golden"] == "True"

    # the file supplies defaults, so it may also supply a required option
    def test_config_supplies_a_required_option(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("which = orders\ntrials = 3\nn = 10\nreps = 1\n")
        out = str(tmp_path / "run")
        run_ok(runner, ["report", "--config", str(cfg), "--out", out])
        assert read_meta(out)["which"] == "orders"

    def test_last_of_a_repeated_key_wins(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = lingauss\neta = 0.25\nn = 30\nburn-in = 10\neta = 0.3\n")
        out = str(tmp_path / "run")
        run_ok(runner, ["sample", "--config", str(cfg), "--out", out])
        assert read_meta(out)["eta"] == "0.3"

    def test_config_sweep_matches_flag_sweep(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scheme = leapfrog, euler\neta-grid = 0.4,0.3,0.2\n"
                       "n = 40\nburn-in = 20\nreps = 1\nn-ks = 20\n")
        a, b = tmp_path / "a", tmp_path / "b"
        run_ok(runner, ["sweep", "--config", str(cfg), "--out", str(a)])
        run_ok(runner, ["sweep", "--scheme", "leapfrog", "--scheme", "euler",
                        "--eta-grid", "0.4,0.3,0.2", "--n", "40", "--burn-in", "20",
                        "--reps", "1", "--n-ks", "20", "--out", str(b)])
        for name in ("summary.csv", "slopes.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestMetaEcho:
    def test_single_flag_diff_shows_only_in_that_key(self, runner, tmp_path):
        base = ["sample", "--model", "lingauss", "--scheme", "leapfrog",
                "--n", "30", "--burn-in", "10", "--seed", "4"]
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        run_ok(runner, base + ["--eta", "0.3", "--out", a])
        run_ok(runner, base + ["--eta", "0.2", "--out", b])
        meta_a, meta_b = read_meta(a), read_meta(b)
        assert meta_a.keys() == meta_b.keys()
        derived = {"eta", "wall_time_s", "effective_time", "ks_coord0",
                   "mean_err", "var_err"}
        for key in meta_a.keys() - derived:
            assert meta_a[key] == meta_b[key], key
        assert meta_a["eta"] == "0.3" and meta_b["eta"] == "0.2"


class TestSweep:
    ARGS = ["sweep", "--model", "lingauss", "--scheme", "leapfrog",
            "--eta-grid", "0.4,0.3,0.2", "--n", "40", "--reps", "1",
            "--burn-in", "20", "--n-ks", "20", "--seed", "3"]

    def test_outputs(self, runner, tmp_path):
        out = str(tmp_path / "run")
        run_ok(runner, self.ARGS + ["--out", out])
        with open(os.path.join(out, "summary.csv")) as fh:
            cells = fh.read().splitlines()
        assert cells[0] == "scheme,eta,K,mode,n,ks,ks_q05_self,ks_q95_self,mean_err,var_err"
        assert len(cells) == 4
        with open(os.path.join(out, "slopes.csv")) as fh:
            slopes = fh.read().splitlines()
        assert slopes[0] == "scheme,K,mode,metric,slope,r_squared,n_points"
        assert read_meta(out)["cells"] == "3"

    def test_deterministic(self, runner, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        run_ok(runner, self.ARGS + ["--out", a])
        run_ok(runner, self.ARGS + ["--out", b])
        for name in ("summary.csv", "slopes.csv"):
            assert (open(os.path.join(a, name)).read()
                    == open(os.path.join(b, name)).read())

    # exact-kernel runs go through toy and sample: click refuses the scheme
    # before a run directory exists
    def test_rejects_exact_scheme(self, runner, tmp_path):
        result = runner.invoke(main, ["sweep", "--scheme", "exact",
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 2
        assert "Invalid value for '--scheme'" in result.output
        assert not (tmp_path / "x").exists()

    # the whole plan is checked before any chain steps: a bad later scheme
    # and a grid the slope fit cannot use exit 2 without running a chain
    @pytest.mark.parametrize("args, message", [
        (["--scheme", "leapfrog", "--scheme", "sghmc", "--vhat", "5"],
         "SGHMC needs v_hat <= friction"),
        (["--eta-grid", "0.2,0.2,0.2"], "eta grid is degenerate")],
        ids=["later-scheme", "degenerate-grid"])
    def test_refuses_a_bad_plan_before_any_chain(self, runner, tmp_path, chunks_taken, args,
                                                 message):
        out = tmp_path / "x"
        result = runner.invoke(main, ["sweep", *args, "--n", "50", "--burn-in", "10",
                                      "--out", str(out)])
        assert result.exit_code == 2
        assert message in result.output
        assert chunks_taken == []
        assert not out.exists()

    def test_rejects_bad_grid(self, runner, tmp_path):
        result = runner.invoke(main, ["sweep", "--eta-grid", "a,b",
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 2

    # a sweep scores its cells against the closed-form posterior, which the
    # logistic model lacks: click rejects it before a run directory exists
    def test_rejects_model_without_posterior(self, runner, tmp_path):
        out = tmp_path / "x"
        result = runner.invoke(main, ["sweep", "--model", "logistic2d",
                                      "--eta-grid", "0.1", "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "logistic2d" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert not os.path.exists(out)

    # zero replicas leave nothing to average: no NaN row and no warning
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_zero_reps(self, runner, tmp_path):
        result = runner.invoke(main, ["sweep", "--reps", "0", "--eta-grid", "0.1",
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 2
        assert "reps" in result.output
        assert not os.path.exists(tmp_path / "x" / "summary.csv")

    @pytest.mark.parametrize("flag, value, message", [
        ("--n-ks", "0", "n_ks must"), ("--n-ks", "-4", "n_ks must"), ("--n", "0", "n must"),
        ("--jobs", "0", "jobs must"), ("--jobs", "-2", "jobs must"),
    ])
    def test_rejects_bad_sizes_before_any_chain(self, runner, tmp_path, monkeypatch,
                                                flag, value, message):
        from hsde import repro

        def no_chains(*args, **kw):
            raise AssertionError("a chain or trial ran before the sizes were checked")

        monkeypatch.setattr(repro, "run_states", no_chains)
        result = runner.invoke(main, ["sweep", flag, value, "--eta-grid", "0.1",
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert not os.path.exists(tmp_path / "x" / "summary.csv")

    # an ensemble steps its diverging chains under np.errstate, so no
    # overflow warning escapes before the exit
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_exits_3(self, runner, tmp_path):
        result = runner.invoke(main, ["sweep", "--scheme", "leapfrog",
                                      "--eta-grid", "0.1,6.0", "-C", "0.1",
                                      "--n", "300", "--burn-in", "0",
                                      "--reps", "2",
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 3
        assert "diverged" in result.output

    # the process pool re-raises the first diverging plan pair's error, so
    # the error line does not depend on the worker count
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_line_does_not_depend_on_jobs(self, runner, tmp_path):
        lines = []
        for jobs in ("1", "2"):
            result = runner.invoke(main, ["sweep", "--scheme", "leapfrog", "--scheme", "euler",
                                          "--eta-grid", "0.1,2.0,6.0", "-C", "0.1",
                                          "--n", "300", "--burn-in", "0", "--reps", "2",
                                          "--jobs", jobs, "--out", str(tmp_path / jobs)])
            assert result.exit_code == 3, result.output
            lines.append(result.output.strip().splitlines()[-1])
        assert lines[0] == lines[1]
        assert lines[0].startswith("error: chain diverged") and "scheme=leapfrog" in lines[0]


# --help lists each command's model and mode choices in their order, the
# sources the CLI builds them from (MODEL_NAMES, BatchMode) included
@pytest.mark.parametrize("command, choices", [
    ("sample", "--model [toy|lingauss|logistic2d]"), ("sample", "--mode [full|perm|iid]"),
    ("sweep", "--model [toy|lingauss]"), ("sweep", "--mode [full|perm|iid]"),
], ids=["sample-model", "sample-mode", "sweep-model", "sweep-mode"])
def test_help_lists_the_choices_in_order(runner, command, choices):
    lines = run_ok(runner, [command, "--help"]).output.splitlines()
    assert any(line.strip().startswith(choices) for line in lines)


# bad input exits 2 without leaving an empty run directory, and never
# removes a run directory that was there before
@pytest.mark.parametrize("command", [["sweep", "--reps", "0", "--eta-grid", "0.1"],
                                     ["toy", "--n", "0"]], ids=["sweep", "toy"])
def test_exit_2_leaves_no_empty_run_dir(runner, tmp_path, command):
    result = runner.invoke(main, command + ["--out", str(tmp_path / "new")])
    assert result.exit_code == 2, result.output
    assert not os.path.exists(tmp_path / "new")
    (tmp_path / "old").mkdir()
    result = runner.invoke(main, command + ["--out", str(tmp_path / "old")])
    assert result.exit_code == 2, result.output
    assert os.path.isdir(tmp_path / "old")


# a failed run leaves none of the directories it made behind while they
# are empty, whatever its exit code, and never removes one that was there
class TestFailedRunCleanup:
    # the chains overflow on purpose before the divergence check trips
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("command", [
        ["sweep", "--scheme", "leapfrog", "--eta-grid", "0.1,2.0,6.0", "-C", "0.1",
         "--n", "300", "--burn-in", "0", "--reps", "2"],
        ["sample", "--model", "lingauss", "--eta", "50", "--n", "100"],
    ], ids=["sweep", "sample"])
    def test_divergence(self, runner, tmp_path, command):
        result = runner.invoke(main, command + ["--out", str(tmp_path / "new")])
        assert result.exit_code == 3, result.output
        assert os.listdir(tmp_path) == []

    # chains that grow to about 1e260 stay finite but overflow the summary's
    # variance: a divergence, reported before any output is written and
    # without numpy's overflow warning
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command, line", [
        (["sample", "--model", "lingauss", "--scheme", "euler", "--eta", "3.0", "--K", "8",
          "--mode", "iid", "--n", "300", "--burn-in", "50", "--seed", "1"],
         "error: chain summary is not finite scheme=euler eta=3.0"),
        (["sweep", "--model", "lingauss", "--scheme", "euler", "--eta-grid", "3.0,2.9,2.8",
          "--n", "300", "--burn-in", "50", "--seed", "1"],
         "error: cell summary is not finite scheme=euler eta=3.0"),
        # a finite first cell; the first of two overflowing cells in grid
        # order is named, not the largest eta
        (["sweep", "--model", "lingauss", "--scheme", "euler", "--eta-grid", "0.5,2.9,3.0",
          "--n", "300", "--burn-in", "50", "--seed", "1"],
         "error: cell summary is not finite scheme=euler eta=2.9"),
    ], ids=["sample", "sweep", "sweep-first-overflowing-cell"])
    def test_overflowing_summary(self, runner, tmp_path, command, line):
        result = runner.invoke(main, command + ["--out", str(tmp_path / "new")])
        assert result.exit_code == 3, result.output
        assert result.output.strip() == line
        assert os.listdir(tmp_path) == []

    # a non-finite v_hat is bad input, whatever the scheme, and is rejected
    # before any chain runs
    @pytest.mark.parametrize("command", [
        ["sample", "--model", "lingauss", "--scheme", "sghmc", "--vhat", "nan"],
        ["sample", "--model", "lingauss", "--scheme", "leapfrog", "--vhat", "nan"],
        ["sample", "--model", "lingauss", "--scheme", "sghmc", "--vhat", "inf"],
        ["sweep", "--scheme", "sghmc", "--vhat", "nan"],
    ], ids=["sample-sghmc", "sample-leapfrog", "sample-sghmc-inf", "sweep-sghmc"])
    def test_non_finite_vhat(self, runner, tmp_path, command):
        result = runner.invoke(main, command + ["--n", "5", "--burn-in", "5",
                                                "--out", str(tmp_path / "new")])
        assert result.exit_code == 2, result.output
        assert "v_hat must be finite and >= 0" in result.output
        assert os.listdir(tmp_path) == []

    def test_io_error(self, runner, tmp_path, monkeypatch):
        from hsde import cli

        def full_disk(*args, **kw):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "save_trace", full_disk)
        result = runner.invoke(main, SAMPLE_FAST + ["--out", str(tmp_path / "new")])
        assert result.exit_code == 4, result.output
        assert os.listdir(tmp_path) == []

    def test_default_out_parent(self, runner, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = runner.invoke(main, ["toy", "--n", "0"])
        assert result.exit_code == 2, result.output
        assert os.listdir(tmp_path) == []
        (tmp_path / "runs").mkdir()
        result = runner.invoke(main, ["toy", "--n", "0"])
        assert result.exit_code == 2, result.output
        assert os.listdir(tmp_path / "runs") == []

    def test_nested_out(self, runner, tmp_path):
        result = runner.invoke(main, ["toy", "--n", "0", "--out", str(tmp_path / "new/a/b")])
        assert result.exit_code == 2, result.output
        assert os.listdir(tmp_path) == []
        (tmp_path / "new").mkdir()
        result = runner.invoke(main, ["toy", "--n", "0", "--out", str(tmp_path / "new/a/b")])
        assert result.exit_code == 2, result.output
        assert os.listdir(tmp_path / "new") == []

    def test_nonempty_directory_stays(self, runner, tmp_path, monkeypatch):
        from hsde import cli

        def half_written(trace, path):
            open(path, "w").close()
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "save_trace", half_written)
        result = runner.invoke(main, SAMPLE_FAST + ["--out", str(tmp_path / "new/a")])
        assert result.exit_code == 4, result.output
        assert os.listdir(tmp_path / "new/a") == ["trace.csv"]


class TestToy:
    ARGS = ["toy", "--eta", "0.4", "--n", "500", "--burn-in", "50",
            "--seed", "2"]

    def test_outputs(self, runner, tmp_path):
        out = str(tmp_path / "run")
        run_ok(runner, self.ARGS + ["--out", out])
        for name in ("hist_full.csv", "hist_minibatch.csv", "summary.csv"):
            assert os.path.exists(os.path.join(out, name))
        with open(os.path.join(out, "summary.csv")) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "mode,ks,n"
        assert lines[1].startswith("full,") and lines[2].startswith("minibatch,")
        meta = read_meta(out)
        assert "ks_full" in meta and "ks_minibatch" in meta

    def test_deterministic(self, runner, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        run_ok(runner, self.ARGS + ["--out", a])
        run_ok(runner, self.ARGS + ["--out", b])
        for name in ("hist_full.csv", "hist_minibatch.csv", "summary.csv"):
            assert (open(os.path.join(a, name)).read()
                    == open(os.path.join(b, name)).read())


    def test_rejects_zero_n_before_any_chain(self, runner, tmp_path, monkeypatch):
        from hsde import repro

        def no_chains(*args, **kw):
            raise AssertionError("a chain ran before n was checked")

        monkeypatch.setattr(repro, "run_exact_states", no_chains)
        result = runner.invoke(main, ["toy", "--n", "0", "--out", str(tmp_path / "x")])
        assert result.exit_code == 2, result.output
        assert "n must" in result.output
        assert not os.path.exists(tmp_path / "x" / "summary.csv")


# five 1024-row CSV blocks, with one cell below 1e-4 written in e-notation
TRACE_5000 = (["sample", "--model", "lingauss", "--scheme", "leapfrog", "--K", "8",
               "--mode", "iid", "--n", "5000", "--thin", "1", "--seed", "2"], {
    "trace.csv": "e654c17ef4c2c44f20dbc3d4c340f70d3024c15712d714f95b85f30ee75eda18"})

# sha256 of each CSV of a few runs. The toy_*_ks goldens (tolerance 1e-6)
# cannot see a last-bit drift of the exact kernel tables, and no golden at
# all sees one of an integrator step or a det_target formula
FROZEN_CSVS = [
    (["toy", "--n", "2000", "--seed", "3"], {
        "hist_full.csv": "41ff7d6991b520c832cb5fba1ecbc74cd1191fbdecd032dd289e7193211648e8",
        "hist_minibatch.csv": "a170d465024ceba58e8491c4072e341947cf1f7e3a4f2292e20d2cfcf08f2d4e",
        "summary.csv": "a7f5dba12b8c546b0eeb6131f588ba62c915663c8b7f5910b25f24fda817c975"}),
    (["sample", "--model", "toy", "--scheme", "exact", "--mode", "perm", "--K", "2",
      "-C", "3.5", "--n", "500", "--seed", "5"], {
        "trace.csv": "14e5dc057e8af15860a1f309a4614a06189c0d9c8356adafee62553679e0de21"}),
    # the same chain kept from its first step: 2,000 burn-in steps contract
    # the start below rounding, so only this run pins the start and its stream
    (["sample", "--model", "toy", "--scheme", "exact", "--mode", "perm", "--K", "2",
      "-C", "3.5", "--n", "500", "--seed", "5", "--burn-in", "0"], {
        "trace.csv": "9e6f2102e2e15b2d6cc4c530a6979d653577c88562f2469d619ee7e7eb2d783d"}),
    (["sample", "--model", "lingauss", "--scheme", "mt3", "--K", "8", "--mode", "perm",
      "--n", "300"], {
        "trace.csv": "0e8853f3bac8d5af8b2e39c902d573d816109a3e2952051887d1b13f724639b1"}),
    (["sample", "--model", "logistic2d", "--scheme", "spv", "--n", "300"], {
        "trace.csv": "77be765dbfc302dc46100f1052b33dd005e81df5c741ae05c4a286cb65167518"}),
    (["sample", "--model", "toy", "--scheme", "hmc", "--nl", "5", "--K", "2", "--mode", "iid",
      "--n", "300"], {
        "trace.csv": "fd40872c54709f1f2681d4bc38b03c867b70564a65742f37c9908a1991fded54"}),
    (["sweep", "--scheme", "euler", "--scheme", "symmetric", "--scheme", "sghmc",
      "--vhat", "0.5", "--K", "4", "--mode", "iid", "--n", "200", "--burn-in", "200"], {
        "slopes.csv": "534d7023e171f244bb42ff433081daf66fcf8277e37464eb225a356c327c38c3",
        "summary.csv": "88c974c4fcececfad590e2d40469497fb415f5c9959bdcbd92d65bea442e3282"}),
    (["geom", "--scheme", "lie-trotter", "--nl", "3", "--states", "20"], {
        "summary.csv": "fb4a3626f9aa03b7418b9e67df6801c01ada37443d5ec9c3e6d780ab1028cbad"}),
    (["geom", "--scheme", "leapfrog", "--states", "20"], {
        "summary.csv": "a883a41faecec391a8f44ee8daef8cc89cbccc99ae1b59bd1b2cea3bfadb16a4"}),
    # a lone chain on unequal 11/11/10-row blocks
    (["sample", "--model", "lingauss", "--scheme", "lie-trotter", "--nl", "3", "--K", "3",
      "--mode", "perm", "--n", "300", "--seed", "4"], {
        "trace.csv": "e947584e85f64922f7bcf53ae5578fbb3233cd4f35ee58934849dffecaacc568"}),
    (["sample", "--model", "lingauss", "--scheme", "leapfrog", "--K", "8", "--mode", "iid",
      "--n", "300", "--seed", "1"], {
        "trace.csv": "822c471fc69adc0b6c404ec4fd9c5789acedf4f71b28609bb38235df1312fc75"}),
    # the frictionless spv kick
    (["sample", "--model", "toy", "--scheme", "spv", "-C", "0", "--n", "300"], {
        "trace.csv": "7bec3920612202063400ac751168c0db6563476f70e4ef69241dde59e509929a"}),
    # the half refresh
    (["sample", "--model", "lingauss", "--scheme", "symmetric", "--K", "4", "--mode", "perm",
      "--n", "300"], {
        "trace.csv": "4916bbb47173417bcdba3cee2385d62357b252b202e0b0087057409b5b8a4c86"}),
    (["report", "--which", "orders", "--trials", "10", "--n", "200", "--reps", "2"], {
        "checks.csv": "9ec75152a52185fb58319bae58494d6a5dea060214b05ddff45b38be89ae8481",
        "trial_slopes.csv": "25423f0d76e9d7109be620ca70e758c689808dc8f0744ab63e940bf4380fc553",
        "trials.csv": "dd7ab4849721eee8097b2641eb33d4ca7c1f0f11c9d133003e1dedb136473bb9"}),
    # one case per layout of LinearGaussian's providers: full and block rows
    # in two stacked groups
    (["report", "--which", "gap", "--n", "200", "--reps", "4"], {
        "cells.csv": "17651a259ffb93efeda7546f46976b21c1842315ca972d365d33e75f39058394",
        "checks.csv": "b2a79e4b45f95050c5ecdb62b2677592e2bd82bc26fc98266f26ed7e5a47ffeb",
        "slopes.csv": "0dfb2c292ee899b95bceadcea57dfefef3ce59fe9d57f0c18492442076e18d48"}),
    # block rows only
    (["sweep", "--scheme", "mt3", "--scheme", "spv", "--K", "8", "--mode", "perm",
      "--n", "200"], {
        "slopes.csv": "abe6c0194f63b06978aae2838dabb33335219f0dced5cdba3c222b538d53dcd3",
        "summary.csv": "7836724374d4b9ca6e29175df45dadd8b77ad7052e9ba7b51cf0722f10dbe34c"}),
    # full rows only
    (["sweep", "--scheme", "leapfrog", "--scheme", "lie-trotter", "--nl", "2",
      "--n", "200"], {
        "slopes.csv": "93e58a73c5a645d20c13c4801f5704ae076279a7a307c888e89e20f787b584d9",
        "summary.csv": "22b074959b97829dbc5b21e8754dbb6d9cb89333594de0d7134b74be3762c5d6"}),
    # block rows on unequal blocks, served per row
    (["sweep", "--scheme", "euler", "--K", "3", "--mode", "perm", "--n", "100",
      "--burn-in", "100", "--reps", "2"], {
        "slopes.csv": "dcbf7833e57bd8a1b6ac83abd831c221ad1c5f15cd48c1db13e0f466903a3f4e",
        "summary.csv": "e188c4d984abb01ed85dc2d8a4e8c48f485e4e465f46e38aea794c1ea0d2b608"}),
    # a lone chain on unequal blocks, with Hessian-vector products
    (["sample", "--model", "lingauss", "--scheme", "mt3", "--K", "3", "--mode", "iid",
      "--n", "300"], {
        "trace.csv": "0766dade0f4ee0e3897e78ca75ec19276614256fee73705b16042ffb2d536a21"}),
    # the exact-kernel bottleneck report: checks and histograms
    (["report", "--which", "bottleneck", "--n", "2000"], {
        "checks.csv": "83746ff553b29c8bc42a4ffa68118afbf1ec2244977606b95ee06f4c17fd8cbe",
        "hist_full.csv": "460668a2a283e7a8c4334f12a0790a0f0b830d9bfcf25d6ecddb9af2ca57e36f",
        "hist_minibatch.csv": "9fbbe22a15a66c0dd09fdb83041e3b1139d4a3ef20874187b9263d53d7fa26c6"}),
    (["opcheck", "--trials", "40"], {
        "slopes.csv": "17e9fe54fbf3b487526631477b05effd541d20e162e223c7546f0bbf114cd731",
        "summary.csv": "8a2995311683bc910e0a7c3f7f33bab77da8993c8057dc6592eece94b9c88d1f"}),
    TRACE_5000,
]


FROZEN_IDS = [
    "toy", "sample-perm", "sample-perm-start", "sample-mt3", "sample-spv-logistic", "sample-hmc",
    "sweep-euler-symmetric-sghmc", "geom-lie-trotter", "geom-leapfrog",
    "sample-lie-trotter-unequal", "sample-leapfrog-iid", "sample-spv-frictionless",
    "sample-symmetric", "report-orders", "report-gap", "sweep-block-rows",
    "sweep-full-rows", "sweep-unequal-blocks", "sample-mt3-unequal",
    "report-bottleneck", "opcheck", "sample-leapfrog-blocks"]


def csv_digests(out_dir):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out_dir.glob("*.csv")}


def read_csv(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def frozen_run(tmp_path_factory):
    # each frozen command runs once; the tests below read its output
    outs = {}

    def run(args):
        key = tuple(args)
        if key not in outs:
            out = tmp_path_factory.mktemp("frozen")
            run_ok(CliRunner(), args + ["--out", str(out)])
            outs[key] = out
        return outs[key]
    return run


@pytest.mark.parametrize("args, digests", FROZEN_CSVS, ids=FROZEN_IDS)
def test_csvs_keep_their_frozen_bytes(frozen_run, args, digests):
    assert csv_digests(frozen_run(args)) == digests


@pytest.mark.parametrize("args, digests", FROZEN_CSVS, ids=FROZEN_IDS)
def test_every_csv_reads_as_wide_as_its_header(frozen_run, args, digests):
    # a cell that holds a comma is quoted, so a CSV reader splits no cell
    out = frozen_run(args)
    for name in digests:
        header, *rows = read_csv(out / name)
        assert rows and {len(row) for row in rows} == {len(header)}, name


# one command of each kind
@pytest.mark.parametrize("name", [
    "sample-leapfrog-blocks", "sweep-euler-symmetric-sghmc", "toy", "geom-leapfrog",
    "opcheck", "report-gap", "report-orders", "report-bottleneck"])
def test_every_table_takes_the_numpy_path(runner, tmp_path, monkeypatch, name):
    # a table written row by row or cell by cell keeps every byte and loses
    # the speed, so the blocks numpy writes must hold every data row of every
    # CSV, and count the cells it leaves to format_float
    from hsde import core
    block, blocks, delegated = core._numeric_block, [], []

    def counted_block(parts):
        blocks.append(block(parts))
        return blocks[-1]

    def counted_float(x):
        delegated.append(x)
        return format(float(x), ".17g")

    monkeypatch.setattr(core, "_numeric_block", counted_block)
    monkeypatch.setattr(core, "format_float", counted_float)
    args, digests = FROZEN_CSVS[FROZEN_IDS.index(name)]
    run_ok(runner, args + ["--out", str(tmp_path)])
    assert csv_digests(tmp_path) == digests
    rows = [row for p in tmp_path.glob("*.csv") for row in p.read_text().splitlines()[1:]]
    assert sorted("".join(blocks).splitlines()) == sorted(rows)
    # a trace's cells in e-notation are few
    if args[0] == "sample":
        assert len(delegated) <= 0.01 * sum(row.count(",") + 1 for row in rows)


@pytest.mark.parametrize("eta", ["inf", "nan"])
@pytest.mark.parametrize("command", [["sample", "--model", "toy", "--scheme", "exact"],
                                     ["toy"]], ids=["sample", "toy"])
def test_exact_rejects_non_finite_eta_before_any_chain(runner, tmp_path, command, eta):
    out = tmp_path / "x"
    result = runner.invoke(main, command + ["--eta", eta, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "finite eta" in result.output
    assert not list(tmp_path.glob("**/*.csv"))


class TestOpcheck:
    def test_outputs_and_fractions(self, runner, tmp_path):
        out = str(tmp_path / "run")
        run_ok(runner, ["opcheck", "--trials", "4", "--seed", "1",
                        "--out", out])
        with open(os.path.join(out, "summary.csv")) as fh:
            trials = fh.read().splitlines()
        assert trials[0] == "trial,K,n,mode,eta,error"
        # 4 trials x 3 modes x 4-point grid
        assert len(trials) == 1 + 4 * 3 * 4
        with open(os.path.join(out, "slopes.csv")) as fh:
            slopes = fh.read().splitlines()
        assert slopes[0] == "trial,K,n,mode,slope,r_squared"
        assert len(slopes) == 1 + 4 * 3
        meta = read_meta(out)
        for mode in ("forward", "averaged", "randomized"):
            assert 0.0 <= float(meta[f"{mode}_band_fraction"]) <= 1.0

    def test_k_and_n_flags(self, runner, tmp_path):
        out = str(tmp_path / "run")
        run_ok(runner, ["opcheck", "--trials", "3", "--K", "2",
                        "--n", "5", "--seed", "1", "--out", out])
        with open(os.path.join(out, "slopes.csv")) as fh:
            rows = fh.read().splitlines()[1:]
        assert all(row.split(",")[1] == "2" and row.split(",")[2] == "5"
                   for row in rows)

    # the CLI's tables are the one-trial-at-a-time reference's, to the byte
    @pytest.mark.parametrize("seed, parts, dims", [
        (0, (2, 3, 4), (2, 3, 4)), (3, (2, 5, 6), (2, 3, 8)),
    ])
    def test_csvs_match_reference_trials(self, runner, tmp_path, seed, parts, dims):
        from hsde import repro
        from hsde.core import RngStream
        from hsde.operator_lab import OrderTrial

        from .oracles import reference_order_trials

        out = tmp_path / "run"
        run_ok(runner, ["opcheck", "--seed", str(seed), "--K", ",".join(map(str, parts)),
                        "--n", ",".join(map(str, dims)), "--out", str(out)])
        etas = (0.1, 0.05, 0.025, 0.0125)
        rows = reference_order_trials(100, RngStream(seed, 0), etas,
                                      ("forward", "averaged", "randomized"), parts, dims)
        trials = [OrderTrial(trial=t, n_parts=k, dim=n, mode=mode, etas=etas,
                             errors=errs, slope=slope, r_squared=r2)
                  for t, k, n, mode, errs, slope, r2 in rows]
        errors, slopes = repro.trial_tables(trials)
        repro.write_csv(tmp_path / "summary.csv", *errors)
        repro.write_csv(tmp_path / "slopes.csv", *slopes)
        for name in ("summary.csv", "slopes.csv"):
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes()

    def test_oversized_k_rejected(self, runner, tmp_path):
        result = runner.invoke(main, ["opcheck", "--K", "7",
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 2
        assert "1..6" in result.output

    def test_rejects_garbled_k(self, runner, tmp_path):
        result = runner.invoke(main, ["opcheck", "--K", "two",
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 2

    # each choice is named in the message, and no trial starts
    @pytest.mark.parametrize("flag, value, cause", [
        ("--K", ",", "at least one"), ("--n", " , ", "at least one"),
        ("--K", "1", "K = 1"), ("--K", "3,1", "K = 1"), ("--n", "1", "n = 1"),
    ])
    def test_degenerate_choices_exit_2_before_any_trial(self, runner, tmp_path,
                                                        monkeypatch, flag, value, cause):
        from hsde import operator_lab

        def no_trials(*args, **kw):
            raise AssertionError("a trial ran before the choices were checked")

        monkeypatch.setattr(operator_lab, "GeneratorSet", no_trials)
        monkeypatch.setattr(operator_lab, "_factor_exps", no_trials)
        monkeypatch.setattr(operator_lab, "matrix_exp", no_trials)
        result = runner.invoke(main, ["opcheck", flag, value,
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 2, result.output
        assert cause in result.output
        assert not os.path.exists(tmp_path / "x" / "summary.csv")


class TestGeom:
    HEADER = "scheme,eta,C,det_J,det_target,det_residual,symp_residual"

    def test_leapfrog_target_hit(self, runner, tmp_path):
        out = str(tmp_path / "run")
        run_ok(runner, ["geom", "--scheme", "leapfrog", "--model", "lingauss",
                        "--eta", "0.1", "-C", "1.5", "--states", "3",
                        "--seed", "6", "--out", out])
        with open(os.path.join(out, "summary.csv")) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == self.HEADER
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 3
        for row in rows:
            assert row[0] == "leapfrog"
            assert float(row[5]) < 1e-6
        assert float(read_meta(out)["max_det_residual"]) < 1e-6

    def test_exact_refresh_schemes_use_exponential_target(self, runner, tmp_path):
        out = str(tmp_path / "run")
        run_ok(runner, ["geom", "--scheme", "spv", "--model", "lingauss",
                        "--eta", "0.2", "-C", "1.7", "--states", "2",
                        "--seed", "6", "--out", out])
        import math
        with open(os.path.join(out, "summary.csv")) as fh:
            row = fh.read().splitlines()[1].split(",")
        assert float(row[4]) == pytest.approx(math.exp(-4 * 0.2 * 1.7), rel=1e-12)
        assert float(row[5]) < 1e-6

    def test_states_must_be_positive(self, runner, tmp_path):
        result = runner.invoke(main, ["geom", "--states", "0",
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 2

    # the step overflows on purpose before the finiteness check trips
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_step_exits_3(self, runner, tmp_path):
        result = runner.invoke(main, ["geom", "--eta", "1e200", "--states", "2",
                                      "--out", str(tmp_path / "new")])
        assert result.exit_code == 3, result.output
        errors = [line for line in result.output.splitlines() if line.startswith("error:")]
        assert len(errors) == 1
        assert "non-finite" in errors[0] and "scheme=leapfrog eta=1e+200" in errors[0]
        assert os.listdir(tmp_path) == []

    def test_nonfinite_step_prints_no_warnings(self, tmp_path):
        # a fresh interpreter: numpy warns once per call site, so an earlier
        # test could hide a warning from an in-process run
        import subprocess
        import sys

        import hsde

        src = os.path.dirname(os.path.dirname(os.path.abspath(hsde.__file__)))
        env = dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="default")
        done = subprocess.run([sys.executable, "-m", "hsde.cli", "geom", "--eta", "1e200",
                               "--states", "2", "--out", str(tmp_path / "new")],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 3
        assert "RuntimeWarning" not in done.stderr
        assert done.stderr.strip().splitlines() == [
            "error: frozen step produced non-finite output scheme=leapfrog eta=1e+200"]

    def test_rejects_eps_before_any_draw(self, runner, tmp_path, monkeypatch):
        from hsde.core import RngStream

        def no_draws(*args, **kw):
            raise AssertionError("a probe state was drawn before eps was checked")

        monkeypatch.setattr(RngStream, "normal", no_draws)
        result = runner.invoke(main, ["geom", "--eps", "1e-2", "--out", str(tmp_path / "x")])
        assert result.exit_code == 2, result.output
        assert "eps must lie in" in result.output
        assert not os.path.exists(tmp_path / "x")

    @staticmethod
    def count_stepper_calls(monkeypatch):
        """Record the row count of every stepper call geometry makes."""
        from hsde import geometry

        compile_step = geometry.compile_step
        calls = []

        def counting(spec):
            stepper = compile_step(spec)

            def step(r, *rest):
                calls.append(len(r))
                return stepper(r, *rest)
            return step

        monkeypatch.setattr(geometry, "compile_step", counting)
        return calls

    # the CSV is the per-state loop's, to the byte, with passes of three
    # states so that seven straddle two pass boundaries
    @pytest.mark.parametrize("model", ["lingauss", "toy", "logistic2d"])
    @pytest.mark.parametrize("scheme", ["euler", "leapfrog", "sghmc", "spv", "symmetric",
                                        "lie-trotter", "hmc"])
    def test_csv_matches_the_per_state_loop(self, runner, tmp_path, monkeypatch,
                                            scheme, model):
        from hsde import cli, repro
        from hsde.core import format_float
        from hsde.integrators import IntegratorSpec

        from .oracles import reference_geom_states

        potential = repro.build_model(model, 1)
        d = potential.dim
        monkeypatch.setattr(cli, "_GEOM_PASS_BYTES", 3 * 128 * d * d)
        calls = self.count_stepper_calls(monkeypatch)
        out = tmp_path / "run"
        run_ok(runner, ["geom", "--scheme", scheme, "--model", model, "--nl", "2",
                        "--eta", "0.15", "-C", "1.1", "--states", "7", "--seed", "3",
                        "--out", str(out)])
        assert calls == [3 * 4 * d, 3 * 4 * d, 4 * d]
        spec = IntegratorSpec(scheme=scheme, eta=0.15, friction=1.1, n_inner=2)
        want = reference_geom_states(spec, potential, 3, 7)
        rows = [line.split(",") for line in (out / "summary.csv").read_text().splitlines()[1:]]
        assert [(row[3], row[6]) for row in rows] == [
            (format_float(det), format_float(symp)) for det, symp in want]
        assert [row[5] for row in rows] == [
            format_float(abs(det - float(row[4]))) for (det, _), row in zip(want, rows)]

    def test_one_stepper_call_per_pass(self, runner, tmp_path, monkeypatch):
        calls = self.count_stepper_calls(monkeypatch)
        run_ok(runner, ["geom", "--states", "100", "--out", str(tmp_path / "a")])
        assert calls == [100 * 4 * 4]
        del calls[:]
        run_ok(runner, ["geom", "--states", "600", "--out", str(tmp_path / "b")])
        assert calls == [256 * 16, 256 * 16, 88 * 16]

    def test_memory_does_not_grow_with_states(self, runner, tmp_path):
        import tracemalloc

        run_ok(runner, ["geom", "--states", "10", "--out", str(tmp_path / "warm")])
        tracemalloc.start()
        try:
            run_ok(runner, ["geom", "--states", "1200", "--out", str(tmp_path / "run")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about 3.3 MB in passes of 256 states; one pass of all 1,200 takes 14 MB
        assert peak < 6e6


class TestReport:
    def test_bottleneck_report_writes_files_and_exits_zero(self, runner, tmp_path):
        # tiny n: golden rows will fail (they pin the full protocol), but
        # the command still exits 0 because pass/fail is report content
        out = str(tmp_path / "run")
        result = run_ok(runner, ["report", "--which", "bottleneck",
                                 "--n", "2000", "--out", out])
        for name in ("report.md", "checks.csv", "hist_full.csv",
                     "hist_minibatch.csv"):
            assert os.path.exists(os.path.join(out, name))
        assert "golden:" in result.output
        meta = read_meta(out)
        assert meta["overall"] in ("pass", "fail", "inconclusive")
        assert meta["protocol_seed"] == "11"

    def test_regen_golden_writes_candidate(self, runner, tmp_path):
        out = str(tmp_path / "run")
        run_ok(runner, ["report", "--which", "bottleneck", "--n", "1000",
                        "--regen-golden", "--out", out])
        assert os.path.exists(os.path.join(out, "goldens_candidate.json"))

    # an explicit 0 is a bad size, never a request for the default
    @pytest.mark.parametrize("which, flag", [
        ("bottleneck", "--n"), ("bottleneck", "--jobs"), ("gap", "--n"), ("gap", "--reps"),
        ("gap", "--jobs"),
        ("orders", "--n"), ("orders", "--reps"), ("orders", "--jobs"),
    ])
    def test_explicit_zero_exits_2_before_any_chain(self, runner, tmp_path,
                                                    monkeypatch, which, flag):
        from hsde import repro

        def no_chains(*args, **kw):
            raise AssertionError("a chain or trial ran before the sizes were checked")

        monkeypatch.setattr(repro, "run_states", no_chains)
        monkeypatch.setattr(repro, "run_exact_states", no_chains)
        monkeypatch.setattr(repro, "run_order_trials", no_chains)
        result = runner.invoke(main, ["report", "--which", which, flag, "0",
                                      "--trials", "2", "--out", str(tmp_path / "x")])
        assert result.exit_code == 2, result.output
        assert f"{flag[2:]} must" in result.output
        assert not os.path.exists(tmp_path / "x" / "report.md")

    @pytest.mark.parametrize("which, protocol_seed", [
        ("bottleneck", 11), ("gap", 5), ("orders", 3),
    ])
    def test_sizes_and_seed_passed_only_when_given(self, runner, tmp_path,
                                                  monkeypatch, which, protocol_seed):
        import functools

        from hsde import repro

        name = {"bottleneck": "report_exact_bottleneck", "gap": "report_minibatch_gap",
                "orders": "report_splitting_orders"}[which]
        seen = []

        # keeps the report's signature, where its defaults live
        @functools.wraps(getattr(repro, name))
        def spy(out_dir, **kw):
            seen.append(kw)
            return []

        monkeypatch.setattr(repro, name, spy)
        run_ok(runner, ["report", "--which", which, "--out", str(tmp_path / "a")])
        assert read_meta(tmp_path / "a")["protocol_seed"] == str(protocol_seed)
        run_ok(runner, ["report", "--which", which, "--n", "7", "--reps", "3",
                        "--seed", "9", "--out", str(tmp_path / "b")])
        assert read_meta(tmp_path / "b")["protocol_seed"] == "9"
        default, given = seen
        assert not {"n", "reps"} & set(default)
        assert default["seed"] == protocol_seed
        assert given["n"] == 7 and given["seed"] == 9
        assert given.get("reps") == (None if which == "bottleneck" else 3)

    def test_which_is_required(self, runner):
        result = runner.invoke(main, ["report"])
        assert result.exit_code == 2


# ---------------------------------------------------------------------------
# the exit-code contract over every command


FLOAT_EDGE = ["0", "-1", "nan", "inf", "-inf", "1e300", "-1e300", "1e-300"]
INT_EDGE = ["0", "-1", "-7"]
LIST_EDGE = ["", ",", "2,2", "1", "0", "-1", "x"]
SCHEMES = ["euler", "leapfrog", "sghmc", "spv", "symmetric", "lie-trotter", "mt3", "hmc"]
# each option as (flag, valid values, edge values): a tuple value repeats the
# flag, True gives it alone and None leaves it out
CHAIN = [("-C", [2.0, 0.5], FLOAT_EDGE), ("--nl", [1, 2], INT_EDGE)]
BATCHES = [("--K", [1, 2, 8], ["0", "-1", "3", "1000"]),
           ("--mode", ["full", "perm", "iid"], []), ("--vhat", [0, 0.5], FLOAT_EDGE)]
COMMANDS = {
    # eta 1000 runs a chain away
    "sample": [("--model", ["toy", "lingauss", "logistic2d"], []),
               ("--scheme", SCHEMES + ["exact"], []), ("--eta", [0.1, 0.3, 1000], FLOAT_EDGE),
               *CHAIN, *BATCHES, ("--n", [1, 20], INT_EDGE),
               ("--burn-in", [0, 10], INT_EDGE), ("--thin", [1, 2], INT_EDGE)],
    "sweep": [("--model", ["toy", "lingauss"], []),
              ("--scheme", [(s,) for s in SCHEMES] + [("mt3", "hmc")], [("spv", "spv")]),
              ("--eta-grid", ["0.3,0.2", "0.4,0.283,0.2", "1000,0.2"],
               ["", ",", "0.2", "0.2,0.2", "nan,0.1", "-0.1,0.2", "inf", "1e300,0.1",
                "1e-300,0.1", "x"]),
              *CHAIN, *BATCHES, ("--n", [20, 50], INT_EDGE), ("--reps", [1, 2], INT_EDGE),
              ("--burn-in", [0, 20], INT_EDGE), ("--thin", [1], INT_EDGE),
              ("--n-ks", [10, 20], INT_EDGE + ["10000000"]), ("--jobs", [1], INT_EDGE)],
    "geom": [("--scheme", [s for s in SCHEMES if s != "mt3"], []),
             ("--model", ["toy", "lingauss", "logistic2d"], []),
             ("--eta", [0.1, 0.3, 1000], FLOAT_EDGE), *CHAIN,
             ("--states", [1, 5], INT_EDGE), ("--eps", [1e-5, 1e-4], FLOAT_EDGE)],
    "opcheck": [("--trials", [2, 4], INT_EDGE), ("--K", ["2,3", "2"], LIST_EDGE),
                ("--n", ["2,3", "3"], LIST_EDGE)],
    "toy": [("--eta", [0.4, 0.1, 1000], FLOAT_EDGE), ("--n", [50, 200], INT_EDGE),
            ("--burn-in", [0, 50], INT_EDGE), ("--thin", [1, 2], INT_EDGE)],
    # the gap and orders reports take about 0.2 s each, so they are edge values
    "report": [("--which", ["bottleneck"], ["gap", "orders"]),
               ("--n", [50, 200], INT_EDGE), ("--reps", [1, 2], INT_EDGE),
               ("--trials", [2, 4], INT_EDGE), ("--jobs", [1], INT_EDGE),
               ("--regen-golden", [None, True], [])],
}
SEED = ("--seed", [0, 1, 2**64 - 1], ["-1", str(2**64)])


@st.composite
def invocations(draw):
    """A command and a value for each of its options: valid values, but for
    at most two options that take an edge value."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    options = [SEED, *COMMANDS[name]]
    edged = draw(st.sets(st.sampled_from([o[0] for o in options if o[2]]), max_size=2))
    args = [name]
    for flag, valid, edge in options:
        value = draw(st.sampled_from(edge if flag in edged else valid))
        if isinstance(value, tuple):
            args += [a for v in value for a in (flag, v)]
        elif value is not None:
            args += [flag] if value is True else [flag, str(value)]
    return args


# the words a CSV cell may hold where it is not a number
WORDS = {
    "scheme": set(SCHEMES),
    "mode": {"full", "perm", "iid", "minibatch", "forward", "averaged", "randomized"},
    "status": {"pass", "fail", "inconclusive"},
    "metric": {"var_err"},
    "check": re.compile(r"(golden:)?[a-z0-9_.]+"),
    "target": re.compile(r".+"),
}


def assert_cells_are_numbers_or_words(path):
    names, *rows = read_csv(path)
    for cells in rows:
        assert len(cells) == len(names), (path.name, cells)
        for name, cell in zip(names, cells):
            word = WORDS.get(name)
            if word is None:
                float(cell)
            else:
                assert (word.fullmatch(cell) if isinstance(word, re.Pattern)
                        else cell in word), (path.name, name, cell)


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(args=invocations())
def test_every_command_keeps_the_exit_code_contract(runner, tmp_path, chunks_taken, args):
    # exit 0, 2, 3 or 4 with no traceback and no warning; a failed run
    # leaves none of the directories it made, a refused one steps no chain,
    # and a run that succeeds leaves its meta.txt and CSVs of numbers and
    # named words
    out = Path(tempfile.mkdtemp(dir=tmp_path)) / "run" / "out"
    chunks_taken.clear()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = runner.invoke(main, args + ["--out", str(out)])
    assert result.exit_code in (0, 2, 3, 4), (args, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), args
    assert not caught, (args, [str(w.message) for w in caught])
    assert "Traceback" not in result.output and "Warning" not in result.output, args
    if result.exit_code:
        assert not out.parent.exists(), args
        assert result.exit_code != 2 or not chunks_taken, args
        return
    assert (out / "meta.txt").is_file(), args
    for path in out.glob("*.csv"):
        assert_cells_are_numbers_or_words(path)

