"""Command-line behavior: flags, config files, outputs, exit codes.

Uses click's in-process runner; chains are kept tiny since the physics is
covered elsewhere. Exit-code contract: 0 success, 2 bad configuration,
3 divergence, 4 filesystem trouble.
"""

import os

import pytest
from click.testing import CliRunner

from hsde.cli import main


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

    def test_exact_rejects_perm(self, runner, tmp_path):
        result = runner.invoke(main, ["sample", "--model", "toy", "--scheme",
                                      "exact", "--mode", "perm",
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 2
        assert "no permutation variant" in result.output

    def test_exact_needs_toy_model(self, runner, tmp_path):
        result = runner.invoke(main, ["sample", "--model", "lingauss",
                                      "--scheme", "exact",
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 2

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

    def test_rejects_exact_scheme(self, runner, tmp_path):
        result = runner.invoke(main, ["sweep", "--scheme", "exact",
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 2

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
        from hsde.core import MassMatrix, format_float
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
        spec = IntegratorSpec(scheme=scheme, eta=0.15, friction=1.1,
                              mass=MassMatrix.identity(d), n_inner=2)
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
