"""Sweep engine, golden store, and report plumbing.

The expensive physics claims live in test_acceptance.py; here the sweeps run
at small sizes and the assertions target mechanics: determinism, row schema,
seed separation, golden bookkeeping, and report file layout.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsde import repro
from hsde.batching import BatchMode, BatchSchedule
from hsde.chain import ChainConfig
from hsde.core import MassMatrix, RngStream
from hsde.integrators import DivergenceError, IntegratorSpec
from hsde.metrics import EmpiricalSample, ks_vs_gaussian
from hsde.potentials import AnalyticPosteriorUnavailable
from hsde.toy_exact import reference_params, toy_posterior

from .oracles import (
    reference_chain,
    reference_checks_csv,
    reference_exact_chain,
    reference_ks_vs_gaussian,
    reference_write_csv,
)

# signed zero, the smallest subnormal, huge values, binary fractions with no
# short form, non-finite values, numpy scalars, and cells that are not floats
AWKWARD = [-0.0, 5e-324, 1e300, 0.1, 0.1 + 0.2, -1e-310, float("inf"), float("nan"),
           np.float64(0.1), np.float64(-0.0), np.int64(7), np.float32(0.1), 3, True,
           "name", "", None]


class TestModels:
    def test_model_names_build(self):
        for name in repro.MODEL_NAMES:
            model = repro.build_model(name)
            assert model.n_batches == 1
            assert model.dim >= 1

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            repro.build_model("mystery")

    def test_toy_model_posterior(self):
        post = repro.build_model("toy").analytic_posterior()
        assert post.mean[0] == pytest.approx(2.0 / 15.0, rel=1e-12)
        assert post.cov[0, 0] == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_sweep_model_posterior_is_isotropic(self):
        # cycled basis: feature Gram = 3 I, plus unit prior precision
        post = repro.sweep_model(8).analytic_posterior()
        np.testing.assert_allclose(post.cov, np.eye(4) / 4.0, atol=1e-12)

    def test_sweep_model_batches_pull_differently(self):
        # frozen targets shift each batch's center; gradient noise at the
        # posterior mean is what the mini-batch bottleneck feeds on
        model = repro.sweep_model(8)
        center = model.analytic_posterior().mean
        grads = [model.gradient(center, batch=b) for b in range(8)]
        spread = np.ptp([g[0] for g in grads])
        assert spread > 0.1

    def test_sweep_model_targets_frozen(self):
        a = repro.sweep_model(4)
        b = repro.sweep_model(4)
        np.testing.assert_array_equal(a.targets, b.targets)


class TestRunSweep:
    PLAN = [("leapfrog", (0.4, 0.283, 0.2))]

    def run(self, mode="full", n_batches=1, **kw):
        args = dict(friction=2.0, n=120, reps=2, burn_in=100, seed=17, n_ks=60)
        args.update(kw)
        return repro.run_sweeps("lingauss", self.PLAN, [(mode, n_batches)], **args)[0]

    def test_row_schema(self):
        res = self.run()
        assert len(res.rows) == 3
        for row in res.rows:
            assert set(row) == set(repro.SWEEP_ROW_FIELDS)
        assert len(res.slopes) == 1
        assert set(res.slopes[0]) == set(repro.SLOPE_ROW_FIELDS)

    def test_deterministic(self):
        a = self.run()
        b = self.run()
        assert a.rows == b.rows
        assert a.slopes == b.slopes

    def test_cells_use_distinct_seeds(self):
        plan = [("leapfrog", (0.3, 0.3))]
        res = repro.run_sweeps("lingauss", plan, [("full", 1)], n=80, reps=1,
                               burn_in=50, seed=17, n_ks=40)[0]
        assert res.rows[0]["ks"] != res.rows[1]["ks"]

    def test_short_grid_fits_no_slope(self):
        res = repro.run_sweeps("lingauss", [("leapfrog", (0.4, 0.2))], [("full", 1)],
                               n=80, reps=1, burn_in=50, seed=17, n_ks=40)[0]
        assert len(res.rows) == 2
        assert res.slopes == []

    def test_self_distance_attached_to_every_row(self):
        res = self.run()
        q05 = {row["ks_q05_self"] for row in res.rows}
        q95 = {row["ks_q95_self"] for row in res.rows}
        assert len(q05) == 1 and len(q95) == 1
        assert 0.0 < q05.pop() < q95.pop() < 1.0

    def test_no_closed_form_posterior_rejected(self):
        with pytest.raises(AnalyticPosteriorUnavailable):
            repro.run_sweeps("logistic2d", self.PLAN, [("full", 1)], n=50, reps=1,
                             burn_in=20, seed=0)

    @pytest.mark.parametrize("bad, match", [
        (dict(n=0), "n must"), (dict(n=-3), "n must"),
        (dict(n_ks=0), "n_ks"), (dict(n_ks=-1), "n_ks"), (dict(n_ks=100_001), "n_ks"),
        (dict(reps=0), "reps"),
    ])
    def test_rejects_bad_sizes_before_any_chain(self, monkeypatch, bad, match):
        def no_chains(*args, **kw):
            raise AssertionError("a chain ran before the sizes were checked")

        monkeypatch.setattr(repro, "run_states", no_chains)
        with pytest.raises(ValueError, match=match):
            self.run(**bad)

    def test_n_ks_at_oracle_size_accepted(self):
        res = repro.run_sweeps("lingauss", [("leapfrog", (0.4,))], [("full", 1)], n=20,
                               reps=1, burn_in=5, seed=17, n_ks=100_000)[0]
        assert res.rows[0]["n"] == 20

    def test_perm_mode_builds_batched_model(self):
        res = self.run(mode="perm", n_batches=8)
        assert all(row["mode"] == "perm" and row["K"] == 8
                   for row in res.rows)


class TestSweepEnsembles:
    """A sweep runs each plan entry as one ensemble; its rows must be the
    rows the one-chain reference loop gives, cell by cell."""

    def reference_thetas(self, scheme, eta, cell, rep, seed=23, friction=2.0,
                         n=40, burn_in=30):
        model = repro.build_model("lingauss", 8)
        cell_seed = repro._derive_cell_seed(seed, cell)
        spec = IntegratorSpec(scheme, eta, friction, MassMatrix.identity(model.dim))
        cfg = ChainConfig(n_samples=n, burn_in=burn_in, thinning=1, seed=cell_seed)
        sched = BatchSchedule("perm", 8, RngStream(cell_seed, 4 * rep + 2))
        return reference_chain(model, spec, sched, cfg, rep)[0]

    def test_rows_match_reference_loop(self):
        plan = [("mt3", (0.4, 0.2)), ("leapfrog", (0.3,))]
        res = repro.run_sweeps("lingauss", plan, [("perm", 8)], friction=2.0, n=40,
                               reps=2, burn_in=30, seed=23, n_ks=25)[0]
        post = repro.build_model("lingauss", 8).analytic_posterior()
        cells = [(scheme, eta) for scheme, etas in plan for eta in etas]
        for cell, ((scheme, eta), row) in enumerate(zip(cells, res.rows)):
            ks = []
            mean_dev = np.zeros(4)
            var_dev = np.zeros(4)
            for rep in range(2):
                thetas = self.reference_thetas(scheme, eta, cell, rep)
                ks.append(ks_vs_gaussian(EmpiricalSample(thetas[-25:, 0]),
                                         post.mean[0], post.cov[0, 0]))
                mean_dev += thetas.mean(axis=0) - post.mean
                var_dev += thetas.var(axis=0) - np.diag(post.cov)
            assert (row["scheme"], row["eta"]) == (scheme, eta)
            assert row["ks"] == float(np.mean(ks))
            assert row["mean_err"] == float(abs(np.mean(mean_dev / 2)))
            assert row["var_err"] == float(abs(np.mean(var_dev / 2)))

    def test_jobs_do_not_change_rows_or_slopes(self):
        plan = [("leapfrog", (0.4, 0.283, 0.2)), ("spv", (0.4, 0.283, 0.2))]
        args = dict(n=60, reps=2, burn_in=40, seed=17, n_ks=30)
        one = repro.run_sweeps("lingauss", plan, [("full", 1)], jobs=1, **args)[0]
        two = repro.run_sweeps("lingauss", plan, [("full", 1)], jobs=2, **args)[0]
        assert one.rows == two.rows
        assert one.slopes == two.slopes
        assert len(one.slopes) == 2

    def test_pool_has_at_most_one_worker_per_plan_entry(self, monkeypatch):
        import concurrent.futures

        sizes = []

        # stands in for the pool without starting a process
        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        plan = [("leapfrog", (0.4,)), ("spv", (0.4,))]
        args = dict(n=20, reps=1, burn_in=10, seed=17, n_ks=10)
        many = repro.run_sweeps("lingauss", plan, [("full", 1)], jobs=10_000, **args)
        assert sizes == [2]
        assert many == repro.run_sweeps("lingauss", plan, [("full", 1)], jobs=1, **args)

    def test_divergence_raises_first_chain_in_cell_replica_order(self):
        etas = (0.1, 2.0, 6.0)
        first = None
        steps = {}
        for cell, eta in enumerate(etas):
            for rep in range(2):
                try:
                    with np.errstate(all="ignore"):
                        self.reference_thetas("leapfrog", eta, cell, rep, seed=4,
                                              friction=0.1, n=300, burn_in=0)
                except DivergenceError as err:
                    steps[(cell, rep)] = err.step_index
                    first = first or ((cell, rep), err)
        (cell, rep), expected = first
        # a later chain diverges sooner, so lockstep order alone would pick it
        assert min(steps.values()) < expected.step_index
        with pytest.raises(DivergenceError) as info:
            repro.run_sweeps("lingauss", [("leapfrog", etas)], [("perm", 8)],
                             friction=0.1, n=300, reps=2, burn_in=0, seed=4)
        err = info.value
        assert (err.step_index, err.eta) == (expected.step_index, etas[cell])
        assert err.partial[0].tobytes() == expected.partial[0].tobytes()


class TestMergedSweeps:
    """`run_sweeps` runs a plan pair's modes as one ensemble; each mode's
    result must equal a sweep of that mode alone."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("model, modes", [
        ("lingauss", [("full", 1), ("perm", 8)]),
        ("lingauss", [("perm", 8), ("iid", 8), ("full", 8)]),
        ("toy", [("full", 1), ("perm", 2)]),
    ])
    def test_equals_separate_sweeps(self, model, modes, jobs):
        plan = [("mt3", (0.4, 0.283, 0.2)), ("lie-trotter", (0.4, 0.2, 0.1))]
        args = dict(friction=2.0, n=60, reps=2, burn_in=40, seed=19, n_ks=30, jobs=jobs)
        merged = repro.run_sweeps(model, plan, modes, **args)
        assert len(merged) == len(modes)
        for (mode, k), res in zip(modes, merged):
            alone, = repro.run_sweeps(model, plan, [(mode, k)], **args)
            assert res.rows == alone.rows
            assert res.slopes == alone.slopes
            assert all(row["mode"] == mode and row["K"] == k for row in res.rows)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_divergence_equals_separate_sweeps(self, jobs):
        # leapfrog with light friction diverges at eta 2 and 6 in both modes
        plan = [("leapfrog", (0.1,)), ("leapfrog", (2.0, 6.0))]
        args = dict(friction=0.1, n=300, reps=2, burn_in=0, seed=4, jobs=jobs)
        with pytest.raises(DivergenceError) as alone:
            repro.run_sweeps("lingauss", plan, [("full", 1)], **args)
        with pytest.raises(DivergenceError) as merged:
            repro.run_sweeps("lingauss", plan, [("full", 1), ("perm", 8)], **args)
        err, ref = merged.value, alone.value
        assert (err.step_index, err.scheme, err.eta) == (ref.step_index, ref.scheme, ref.eta)
        assert err.partial[0].tobytes() == ref.partial[0].tobytes()
        assert err.partial[1] is ref.partial[1] is None

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_first_divergence_in_pair_then_mode_order(self, monkeypatch, jobs):
        # the first pair diverges in its second mode only, the second pair in
        # its first: the first pair's error wins, as it comes first in the plan
        def fake_states(P, specs, modes, cfgs, idx, keep_momenta=True):
            for c, (spec, mode) in enumerate(zip(specs, modes)):
                if (spec.scheme.value, BatchMode(mode).value) in (("leapfrog", "perm"),
                                                                  ("spv", "full")):
                    err = DivergenceError("chain diverged", step_index=10 + c,
                                          eta=spec.eta, scheme=spec.scheme)
                    err.chain, err.partial = c, (np.zeros((0, P.dim)), None)
                    raise err
            return np.zeros((len(specs), cfgs[0].n_samples, P.dim)), None

        monkeypatch.setattr(repro, "run_states", fake_states)
        plan = [("leapfrog", (0.3, 0.2)), ("spv", (0.3, 0.2))]
        args = dict(n=5, reps=2, burn_in=0, seed=1, jobs=jobs)
        with pytest.raises(DivergenceError) as info:
            repro.run_sweeps("lingauss", plan, [("full", 1), ("perm", 8)], **args)
        # chain 4 of the first pair's ensemble: its first perm chain
        assert (info.value.scheme.value, info.value.step_index) == ("leapfrog", 14)

    def test_modes_must_share_batch_count(self, monkeypatch):
        def no_chains(*args, **kw):
            raise AssertionError("a chain ran before the modes were checked")

        monkeypatch.setattr(repro, "run_states", no_chains)
        plan = [("leapfrog", (0.4,))]
        for modes, match in (([("perm", 8), ("iid", 4)], "share"),
                             ([("iid", 1), ("perm", 8)], "share"),
                             ([("full", 1), ("perm", 0)], "n_batches"),
                             ([], "mode")):
            with pytest.raises(ValueError, match=match):
                repro.run_sweeps("lingauss", plan, modes, n=10, reps=1)

    def test_gap_report_sweeps_each_scheme_once(self, tmp_path, monkeypatch):
        calls = []
        run_sweeps = repro.run_sweeps

        def counted(*args, **kw):
            calls.append(args[1])
            return run_sweeps(*args, **kw)

        monkeypatch.setattr(repro, "run_sweeps", counted)
        repro.report_minibatch_gap(tmp_path, n=30, reps=1)
        assert calls == [[("mt3", repro.GAP_GRID_MT3)],
                         [("lie-trotter", repro.GAP_GRID_LT)]]


class TestToyHistograms:
    def test_structure_and_counts(self):
        out, = repro.exact_histograms([(0.4, 5)], n=3000, burn_in=300)
        assert set(out) == {"full", "minibatch"}
        for data in out.values():
            assert len(data["edges"]) == 129
            assert data["counts"].sum() == 3000
            assert 0.0 < data["ks"] < 1.0

    def test_modes_differ_at_coarse_step(self):
        out, = repro.exact_histograms([(0.4, 5)], n=3000, burn_in=300)
        assert out["minibatch"]["ks"] > out["full"]["ks"]

    def test_bottleneck_report_equals_reference_loop(self, tmp_path):
        # the report's histogram bytes and KS values, rebuilt from one-step-
        # at-a-time exact chains: a one-bit drift on the exact path fails here
        n, seed = 3000, 11
        checks = {c.name: c.value for c in
                  repro.report_exact_bottleneck(tmp_path, n=n, seed=seed)}
        p = reference_params()
        mean, var = toy_posterior(p)
        sig = float(np.sqrt(var))
        edges = np.linspace(mean - 6 * sig, mean + 6 * sig, 129)
        ks = {}
        for eta, s in ((0.4, seed), (0.01, seed + 1)):
            for mode in ("full", "minibatch"):
                cfg = ChainConfig(n_samples=n, burn_in=2000, thinning=1, seed=s)
                th = reference_exact_chain(p, eta, mode, cfg)[0][:, 0]
                ks[eta, mode] = reference_ks_vs_gaussian(np.sort(th), mean, var)
                if eta == 0.4:
                    counts, _ = np.histogram(th, bins=edges)
                    lines = ["bin_left,bin_right,count"] + [
                        f"{edges[i]:.17g},{edges[i + 1]:.17g},{counts[i]}"
                        for i in range(128)]
                    got = (tmp_path / f"hist_{mode}.csv").read_text()
                    assert got == "\n".join(lines) + "\n"
        assert checks["full_ks_small"] == ks[0.4, "full"]
        assert checks["minibatch_ks_large"] == ks[0.4, "minibatch"]
        assert checks["golden:toy_minibatch_ks_eta0.01"] == ks[0.01, "minibatch"]
        assert checks["fine_step_closes_gap"] == ks[0.01, "minibatch"] / ks[0.01, "full"]


class TestGoldens:
    def test_load_goldens_schema(self):
        goldens = repro.load_goldens()
        assert len(goldens) >= 7
        for key, rec in goldens.items():
            assert rec.key == key
            assert np.isfinite(rec.value)
            assert rec.tolerance > 0
            assert rec.provenance

    def test_golden_check_pass_and_fail(self):
        goldens = repro.load_goldens()
        rec = goldens["orders_forward_fraction"]
        ok = repro._golden_check("orders_forward_fraction", rec.value, goldens)
        assert ok.status == "pass"
        bad = repro._golden_check("orders_forward_fraction",
                                  rec.value + 10 * rec.tolerance, goldens)
        assert bad.status == "fail"

    def test_golden_checks_and_candidates(self):
        goldens = repro.load_goldens()
        values = {"gap_mt3_full_slope": 2.5, "gap_mt3_perm_slope": 0.125}
        checks, candidate = repro._golden_checks(values, regen=True)
        assert checks == [repro._golden_check(k, v, goldens) for k, v in values.items()]
        assert list(candidate) == list(values)
        for key, rec in candidate.items():
            assert rec == repro.GoldenRecord(key, values[key], goldens[key].provenance,
                                             goldens[key].tolerance)
        assert repro._golden_checks(values, regen=False) == (checks, None)


class TestReportFiles:
    def test_write_report_files_layout(self, tmp_path):
        checks = [
            repro.CheckResult("alpha", "pass", 1.0, "> 0"),
            repro.CheckResult("beta", "fail", -2.0, "> 0"),
            repro.CheckResult("gamma", "inconclusive", 0.0, "fit too loose"),
        ]
        rows = [{"x": 1, "y": 0.5}, {"x": 2, "y": 0.25}]
        cand = {"k": repro.GoldenRecord("k", 1.25, "somehow", 1e-3)}
        repro.write_report_files(tmp_path, "Demo", checks,
                                 extra_csv={"extra.csv": (["x", "y"], rows)},
                                 candidate_goldens=cand)
        text = (tmp_path / "checks.csv").read_text().splitlines()
        assert text[0] == "check,status,value,target"
        assert len(text) == 4
        md = (tmp_path / "report.md").read_text()
        assert "Overall: **FAIL**" in md
        assert "**INCONCLUSIVE** `gamma`" in md
        extra = (tmp_path / "extra.csv").read_text().splitlines()
        assert extra[0] == "x,y"
        assert extra[1] == "1,0.5"
        regen = json.loads((tmp_path / "goldens_candidate.json").read_text())
        assert regen["k"]["value"] == 1.25

    def test_overall_pass_when_all_pass(self, tmp_path):
        repro.write_report_files(
            tmp_path, "Demo", [repro.CheckResult("a", "pass", 1.0, "> 0")])
        assert "Overall: **PASS**" in (tmp_path / "report.md").read_text()

    # fail outranks inconclusive, which outranks pass; report.md and the
    # CLI's meta.txt both read this one status
    @pytest.mark.parametrize("statuses, want", [
        (("pass", "inconclusive", "fail"), "fail"), (("inconclusive", "pass"), "inconclusive"),
        (("pass",), "pass"), ((), "pass")])
    def test_overall_status(self, tmp_path, statuses, want):
        checks = [repro.CheckResult(f"c{i}", s, 0.0, "") for i, s in enumerate(statuses)]
        assert repro.overall_status(checks) == want
        repro.write_report_files(tmp_path, "Demo", checks)
        assert f"Overall: **{want.upper()}**" in (tmp_path / "report.md").read_text()

    def test_slope_check_inconclusive_on_poor_fit(self):
        res = repro._slope_check("s", 2.0, 0.5, ">= 1", True)
        assert res.status == "inconclusive"
        assert "r2" in res.target
        res = repro._slope_check("s", 2.0, 0.95, ">= 1", True)
        assert res.status == "pass"


class TestWriteCsv:
    def test_float_formatting_roundtrips(self, tmp_path):
        path = tmp_path / "t.csv"
        value = 0.1 + 0.2
        repro.write_csv(path, ["v"], [{"v": value}])
        back = float(path.read_text().splitlines()[1])
        assert back == value

    def test_non_floats_pass_through(self, tmp_path):
        path = tmp_path / "t.csv"
        repro.write_csv(path, ["a", "b"], [{"a": "name", "b": 3}])
        assert path.read_text().splitlines()[1] == "name,3"


    def test_bytes_match_row_writer(self, tmp_path):
        # every awkward value in every column, each row shifted by one
        fields = ["a", "b", "c"]
        rows = [{f: AWKWARD[(i + j) % len(AWKWARD)] for j, f in enumerate(fields)}
                for i in range(len(AWKWARD))]
        for k, some in enumerate((rows, rows[:1], [])):
            repro.write_csv(tmp_path / f"new{k}.csv", fields, some)
            reference_write_csv(tmp_path / f"old{k}.csv", fields, some)
            assert (tmp_path / f"new{k}.csv").read_bytes() == (tmp_path / f"old{k}.csv").read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(width=64), max_size=12))
    def test_any_float_matches_row_writer(self, tmp_path_factory, values):
        tmp = tmp_path_factory.mktemp("csv")
        rows = [{"v": v, "w": -v, "i": i} for i, v in enumerate(values)]
        repro.write_csv(tmp / "new.csv", ["v", "w", "i"], rows)
        reference_write_csv(tmp / "old.csv", ["v", "w", "i"], rows)
        assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()

    def test_checks_match_row_writer(self, tmp_path):
        values = [v for v in AWKWARD if not isinstance(v, (str, type(None)))]
        checks = [repro.CheckResult(f"c{i}", "pass", v, "< 1") for i, v in enumerate(values)]
        repro.write_report_files(tmp_path / "new", "t", checks)
        reference_checks_csv(tmp_path / "old.csv", checks)
        assert (tmp_path / "new" / "checks.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


class TestCellSeeds:
    def test_distinct_and_stable(self):
        seeds = [repro._derive_cell_seed(7, i) for i in range(50)]
        assert len(set(seeds)) == 50
        assert seeds == [repro._derive_cell_seed(7, i) for i in range(50)]

    def test_wraps_into_uint64_range(self):
        s = repro._derive_cell_seed(2**64 - 1, 10)
        assert 0 <= s < 2**64
