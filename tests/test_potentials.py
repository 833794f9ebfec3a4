"""Tests for the potential models, their mini-batch split, and posteriors."""

import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsde.batching import BatchSchedule
from hsde.core import RngStream
from hsde.potentials import (
    AnalyticPosteriorUnavailable,
    GaussianPosterior,
    LinearGaussian,
    Logistic2D,
    Potential,
    batch_bounds,
    make_logistic_demo,
)
from hsde.repro import build_model, sweep_model

from .oracles import grad_fd, jac_fd

# canonical scalar-model parameters used throughout the verification suite
TOY_X = np.array([4.0, -3.2])
TOY_NOISE_VAR = 2.0
TOY_PRIOR_VAR = 0.5


def toy(n_batches=1):
    # each x_i ~ N(theta, noise_var) is a linear model on a column of ones
    return LinearGaussian(np.ones((2, 1)), TOY_X, TOY_NOISE_VAR, TOY_PRIOR_VAR,
                          n_batches=n_batches)


def toy_formulas(theta, v, key, K):
    """The scalar model's own gradient and Hessian-vector formulas at batch
    key (-1 for the full potential): sum(theta - x) / noise_var + w theta /
    prior_var and count / noise_var * v + w v / prior_var over the batch's
    observations x, w its prior weight."""
    lo, hi = (0, TOY_X.size) if key < 0 else batch_bounds(TOY_X.size, K)[key]
    w = 1.0 if key < 0 else 1.0 / K
    g = np.array([float(np.sum(theta[0] - TOY_X[lo:hi])) / TOY_NOISE_VAR])
    h = np.array([(hi - lo) / TOY_NOISE_VAR * v[0]])
    return g + w * (theta / TOY_PRIOR_VAR), h + w * (v / TOY_PRIOR_VAR)


def small_lingauss(n_batches=1):
    rng = np.random.default_rng(42)
    Phi = rng.normal(size=(12, 3))
    y = rng.normal(size=12)
    return LinearGaussian(Phi, y, noise_var=0.7, prior_var=[1.0, 2.0, 0.5], n_batches=n_batches)


def small_logistic(n_batches=1):
    rng = np.random.default_rng(7)
    X = rng.normal(size=(10, 2))
    labels = (rng.normal(size=10) > 0).astype(int)
    return Logistic2D(X, labels, prior_var=1.0, n_batches=n_batches)


class TestBatchBounds:
    def test_near_equal_contiguous(self):
        assert batch_bounds(10, 3) == [(0, 4), (4, 7), (7, 10)]
        assert batch_bounds(6, 3) == [(0, 2), (2, 4), (4, 6)]

    def test_covers_everything_once(self):
        for n, k in [(17, 4), (8, 8), (5, 1)]:
            bounds = batch_bounds(n, k)
            flat = [i for lo, hi in bounds for i in range(lo, hi)]
            assert flat == list(range(n))

    def test_too_many_batches_rejected(self):
        with pytest.raises(ValueError):
            batch_bounds(3, 4)


class TestToyModel:
    def test_posterior_matches_conjugate_formula(self):
        # independent route: v = noise/prior + n, var = noise/v, mean = sum(x)/v
        post = toy().analytic_posterior()
        v = TOY_NOISE_VAR / TOY_PRIOR_VAR + TOY_X.size
        assert v == 6.0
        assert post.mean[0] == pytest.approx(TOY_X.sum() / v, rel=1e-14)
        assert post.mean[0] == pytest.approx(0.13333333333, rel=1e-9)
        assert post.cov[0, 0] == pytest.approx(TOY_NOISE_VAR / v, rel=1e-14)
        assert post.cov[0, 0] == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_value_hand_computed(self):
        # at theta = 0 the prior term vanishes: (16 + 10.24) / (2 * 2)
        assert toy().value(np.zeros(1)) == pytest.approx(6.56, rel=1e-14)

    def test_full_gradient_zero_at_posterior_mean(self):
        P = toy()
        mean = P.analytic_posterior().mean
        assert abs(P.gradient(mean)[0]) < 1e-13

    def test_batch_gradient_zero_at_batch_minimum(self):
        P = toy(n_batches=2)
        for i, x in enumerate(TOY_X):
            theta_star = np.array([2.0 * x / 6.0])
            assert abs(P.gradient(theta_star, batch=i)[0]) < 1e-13

    def test_full_hessian_is_posterior_precision(self):
        hv = toy().hessian_vec(np.array([0.4]), np.array([1.0]))
        assert hv[0] == pytest.approx(3.0, rel=1e-14)

    def test_rescaled_batch_curvature(self):
        # K * (sub-potential curvature) = 1.5 per batch here: K=2 times
        # (1/noise + 1/(K prior)) = 2 * (0.5 + 1.0) = 3.0, matching full
        P = toy(n_batches=2)
        hv = P.hessian_vec(np.zeros(1), np.ones(1), batch=0)
        assert 2.0 * hv[0] == pytest.approx(3.0, rel=1e-14)

    # the command line's toy model keeps the bits of the scalar formulas on
    # every gradient path: one-point calls, and a chunk's providers for one
    # chain and for three (all full, all blocks, full and block rows), times
    # the mini-batch scale K on block rows
    @pytest.mark.parametrize("K", [1, 2])
    def test_cli_model_keeps_scalar_formulas(self, K):
        P = build_model("toy", K)
        draws, m = RngStream(6, 0), 5
        blocks = (np.arange(m * 3).reshape(m, 3) + np.arange(m)[:, None]) % K
        chunks = [np.full((m, 3), -1), blocks, np.concatenate(
            [np.full((m, 1), -1), blocks[:, 1:]], axis=1)]
        chunks += [c[:, :1] for c in chunks] + [blocks[:, 2:]]
        for ids in chunks:
            R = ids.shape[1]
            grad, hess = P.step_providers(ids)
            for j, keys in enumerate(ids.tolist()):
                th, v = (4.0 * draws.normal(R).reshape(R, 1) for _ in range(2))
                want = [toy_formulas(th[c], v[c], k, K) for c, k in enumerate(keys)]
                want_g = np.stack([g for g, _ in want])
                want_h = np.stack([h for _, h in want])
                for c, k in enumerate(keys):
                    batch = None if k < 0 else k
                    assert P.gradient(th[c], batch).tobytes() == want_g[c].tobytes()
                    assert (P.hessian_vec(th[c], v[c], batch).tobytes()
                            == want_h[c].tobytes())
                scale = np.array([[1.0 if k < 0 else float(K)] for k in keys])
                want_g, want_h = scale * want_g, scale * want_h
                # shaped as a provider's state: one chain steps d-vectors
                x, u = (th[0], v[0]) if R == 1 else (th, v)
                assert grad(j, x).tobytes() == want_g.tobytes()
                assert hess(j, x, u).tobytes() == want_h.tobytes()


class TestPartitionIdentity:
    @pytest.mark.parametrize("model,ks", [("toy", [1, 2]), ("lin", [1, 3, 4, 12]), ("log", [2, 5])])
    def test_gradients_sum_to_full(self, model, ks):
        rng = np.random.default_rng(0)
        for k in ks:
            P = {"toy": toy, "lin": small_lingauss, "log": small_logistic}[model](k)
            for _ in range(3):
                th = rng.normal(size=P.dim)
                total = sum(P.gradient(th, batch=i) for i in range(k))
                full = P.gradient(th)
                np.testing.assert_allclose(total, full, rtol=1e-12, atol=1e-12)

    def test_values_sum_to_full(self):
        P = small_lingauss(4)
        th = np.array([0.3, -1.1, 0.7])
        total = sum(P.value(th, batch=i) for i in range(4))
        assert total == pytest.approx(P.value(th), rel=1e-13)

    @given(st.floats(-5, 5), st.integers(0, 1))
    @settings(max_examples=25, deadline=None)
    def test_toy_partition_property(self, th, i):
        P = toy(n_batches=2)
        theta = np.array([th])
        total = P.gradient(theta, batch=0) + P.gradient(theta, batch=1)
        np.testing.assert_allclose(total, P.gradient(theta), rtol=1e-12, atol=1e-12)
        assert P.value(theta, batch=i) <= P.value(theta) + 1e-12


class TestManyRows:
    # one step of the providers over R rows gives row c the one-point call's
    # bits at row c's batch, times K on a block row, and a second call the
    # same bits again
    @pytest.mark.parametrize("R", [1, 3])
    @pytest.mark.parametrize("make", [toy, small_lingauss, small_logistic])
    def test_rows_are_one_point_calls(self, make, R):
        P = make(2)
        ids = np.array([-1, 0, 1][-R:])
        th, v = (np.random.default_rng(R).normal(size=(R, P.dim)) for _ in range(2))
        want_g = np.stack([P.gradient(th[c]) if k < 0 else 2.0 * P.gradient(th[c], k)
                           for c, k in enumerate(ids.tolist())])
        want_h = np.stack([P.hessian_vec(th[c], v[c]) if k < 0
                           else 2.0 * P.hessian_vec(th[c], v[c], k)
                           for c, k in enumerate(ids.tolist())])
        grad, hess = P.step_providers(ids[None])
        # one chain steps d-vectors
        x, u = (th[0], v[0]) if R == 1 else (th, v)
        for provider, args, want in ((grad, (x,), want_g), (hess, (x, u), want_h)):
            for _ in range(2):
                got = provider(0, *args)
                assert got.shape == x.shape
                assert got.tobytes() == want.tobytes()


# the mini-batch scale lives in the providers alone: a block row is
# K * gradient(theta, b) and a full row gradient(theta), bit for bit (and the
# same for Hessian-vector products), for a lone chain mixing the two, an
# ensemble of full and block rows, and an ensemble whose rows switch
# between them mid-chunk
@pytest.mark.parametrize("layout", ["one-row", "ensemble", "switching"])
@pytest.mark.parametrize("model", ["toy", "lingauss-K8", "dense-unequal-blocks",
                                   "logistic2d"])
def test_providers_scale_block_rows_by_k(model, layout):
    if model == "dense-unequal-blocks":
        rng = RngStream(3, 0)
        P = LinearGaussian(rng.normal(30 * 5).reshape(30, 5), rng.normal(30),
                           noise_var=1.5, prior_var=[2.0, 0.5, 1.0, 3.0, 0.25],
                           n_batches=4)
    elif model == "logistic2d":
        P = small_logistic(5)
    else:
        P = build_model(model.split("-")[0], 2 if model == "toy" else 8)
    K, m = P.n_batches, 6
    blocks = (np.arange(m)[:, None] * 3 + np.arange(3)) % K
    ids = {"one-row": np.where(np.arange(m)[:, None] % 3 == 0, -1, blocks[:, :1]),
           "ensemble": np.concatenate([np.full((m, 1), -1), blocks[:, 1:]], axis=1),
           "switching": np.where(np.arange(m)[:, None] % 2 == 0, -1, blocks)}[layout]
    if isinstance(P, LinearGaussian) and layout != "one-row":
        stacked = layout == "ensemble" and model != "dense-unequal-blocks"
        assert (P._chunk_groups(ids) is not None) == stacked
    grad, hess = P.step_providers(ids)
    draws = RngStream(4, 0)
    for j, keys in enumerate(ids.tolist()):
        R = len(keys)
        th, v = (4.0 * draws.normal(R * P.dim).reshape(R, P.dim) for _ in range(2))
        want_g = np.stack([P.gradient(th[c]) if k < 0 else K * P.gradient(th[c], k)
                           for c, k in enumerate(keys)])
        want_h = np.stack([P.hessian_vec(th[c], v[c]) if k < 0
                           else K * P.hessian_vec(th[c], v[c], k)
                           for c, k in enumerate(keys)])
        x, u = (th[0], v[0]) if R == 1 else (th, v)
        assert grad(j, x).tobytes() == want_g.tobytes()
        assert hess(j, x, u).tobytes() == want_h.tobytes()


class TestFiniteDifferenceAgreement:
    @pytest.mark.parametrize("make", [toy, small_lingauss, small_logistic])
    def test_gradient_matches_fd(self, make):
        P = make(3 if make is not toy else 2)
        rng = np.random.default_rng(1)
        for trial in range(5):
            th = rng.normal(size=P.dim)
            for batch in [None, 0, P.n_batches - 1]:
                g = P.gradient(th, batch=batch)
                g_fd = grad_fd(lambda t: P.value(t, batch=batch), th)
                np.testing.assert_allclose(g, g_fd, rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("make", [toy, small_lingauss, small_logistic])
    def test_hessian_vec_matches_fd(self, make):
        P = make()
        rng = np.random.default_rng(2)
        th = rng.normal(size=P.dim)
        J = jac_fd(lambda t: P.gradient(t), th)
        for _ in range(3):
            v = rng.normal(size=P.dim)
            np.testing.assert_allclose(P.hessian_vec(th, v), J @ v, rtol=1e-4, atol=1e-6)


class TestLinearGaussian:
    def test_zero_observations_is_prior(self):
        P = LinearGaussian(np.zeros((0, 2)), [], noise_var=1.0, prior_var=[2.0, 0.5])
        th = np.array([1.0, 2.0])
        assert P.value(th) == pytest.approx(0.5 * (1.0 / 2.0 + 4.0 / 0.5))
        post = P.analytic_posterior()
        np.testing.assert_allclose(post.mean, np.zeros(2))
        np.testing.assert_allclose(post.cov, np.diag([2.0, 0.5]))

    def test_single_feature_replica_agrees_with_scalar_model(self):
        P = build_model("toy")
        a, b = P.analytic_posterior(), toy().analytic_posterior()
        assert abs(a.mean[0] - b.mean[0]) < 1e-12
        assert abs(a.cov[0, 0] - b.cov[0, 0]) < 1e-12

    def test_posterior_mean_is_gradient_root_one_newton_step(self):
        P = small_lingauss()
        th0 = np.array([1.0, -2.0, 0.5])
        g = P.gradient(th0)
        H = np.column_stack([P.hessian_vec(th0, e) for e in np.eye(3)])
        newton = th0 - np.linalg.solve(H, g)
        np.testing.assert_allclose(newton, P.analytic_posterior().mean, rtol=1e-10)

    def test_convexity(self):
        P = small_lingauss()
        rng = np.random.default_rng(3)
        for _ in range(10):
            v = rng.normal(size=3)
            assert v @ P.hessian_vec(np.zeros(3), v) > 0

    # a lone chain's providers take the one-row path, np.dot on d-vectors
    # and views of the design, full batch or on a chunk's blocks (equal or
    # not), and give the bits of each row of a two-copy (2, d) ensemble
    # (stacked where it serves the chunk, else per row) and of the one-point
    # calls, times the mini-batch scale K on block rows
    @pytest.mark.parametrize("mode", ["full", "perm", "iid"])
    @pytest.mark.parametrize("model", ["lingauss-K1", "lingauss-K8", "dense-equal-blocks",
                                       "dense-unequal-blocks"])
    def test_one_row_path_matches_stacked_and_per_row(self, model, mode):
        if model.startswith("dense"):
            rng = RngStream(3, 0)
            n = 32 if model == "dense-equal-blocks" else 30
            P = LinearGaussian(rng.normal(n * 5).reshape(n, 5), rng.normal(n),
                               noise_var=1.5, prior_var=[2.0, 0.5, 1.0, 3.0, 0.25],
                               n_batches=4)
        else:
            P = build_model("lingauss", int(model[-1]))
        m, K = 40, float(P.n_batches)
        ids = BatchSchedule(mode, P.n_batches, RngStream(1, 2)).take(m)
        grad, hess = P.step_providers(ids[:, None])
        # unequal blocks are served per row, the full design and equal blocks
        # stacked
        pair = np.repeat(ids[:, None], 2, axis=1)
        groups = P._chunk_groups(pair)
        assert (groups is None) == (model == "dense-unequal-blocks" and mode != "full")
        grad2, hess2 = P.step_providers(pair)
        draws = RngStream(2, 0)
        for j, b in enumerate(ids.tolist()):
            th, v = (4.0 * draws.normal(P.dim) for _ in range(2))
            key = None if b < 0 else b
            want_g, want_h = P.gradient(th, key), P.hessian_vec(th, v, key)
            if key is not None:
                want_g, want_h = K * want_g, K * want_h
            assert grad(j, th).tobytes() == want_g.tobytes()
            assert hess(j, th, v).tobytes() == want_h.tobytes()
            th2, v2 = np.stack([th, th]), np.stack([v, v])
            assert grad2(j, th2).tobytes() == np.stack([want_g, want_g]).tobytes()
            assert hess2(j, th2, v2).tobytes() == np.stack([want_h, want_h]).tobytes()

    # a lone chunk that mixes the full potential with blocks (no chain makes
    # one: a chain's batch mode is fixed) still takes the one-row path, each
    # step at its own batch's prior weight, never the base class's per-row
    # formula, a block step times K
    @pytest.mark.parametrize("model", ["lingauss-K8", "dense-unequal-blocks"])
    def test_lone_chunk_mixing_full_and_blocks(self, model, monkeypatch):
        if model == "lingauss-K8":
            P = build_model("lingauss", 8)
        else:
            P = self._unequal_blocks()
        K = float(P.n_batches)
        ids = np.array([-1, 2, -1, 0, 1, -1, 2, 1])
        want = []
        draws = RngStream(2, 3)
        for b in ids.tolist():
            th, v = (4.0 * draws.normal(P.dim) for _ in range(2))
            key = None if b < 0 else b
            g, h = P.gradient(th, key), P.hessian_vec(th, v, key)
            if key is not None:
                g, h = K * g, K * h
            want.append((th, v, g.tobytes(), h.tobytes()))

        def per_row(*args):
            raise AssertionError("a lone chain reached the per-row path")

        monkeypatch.setattr(Potential, "step_providers", per_row)
        grad, hess = P.step_providers(ids[:, None])
        for j, (th, v, want_g, want_h) in enumerate(want):
            assert grad(j, th).tobytes() == want_g
            assert hess(j, th, v).tobytes() == want_h

    @staticmethod
    def _unequal_blocks():
        rng = RngStream(3, 0)
        return LinearGaussian(rng.normal(32 * 5).reshape(32, 5), rng.normal(32),
                              noise_var=1.5, prior_var=[2.0, 0.5, 1.0, 3.0, 0.25],
                              n_batches=3)

    @staticmethod
    def _lone_chain_bits(P, ids, states):
        grad, hess = P.step_providers(ids[:, None])
        return [(grad(j, th).tobytes(), hess(j, th, v).tobytes())
                for j, (th, v) in enumerate(states)]

    # a lone chain's row operands, scratch included, belong to the model and
    # are shared by every provider it hands out: providers called in turn
    # give the bits each gives alone
    def test_lone_chain_providers_called_alternately(self):
        P = self._unequal_blocks()
        draws = RngStream(2, 0)
        states = [(4.0 * draws.normal(5), 4.0 * draws.normal(5)) for _ in range(12)]
        chunks = [BatchSchedule(mode, 3, RngStream(1, c)).take(12)
                  for c, mode in enumerate(["perm", "iid", "full"])]
        alone = [self._lone_chain_bits(P, ids, states) for ids in chunks]
        providers = [P.step_providers(ids[:, None]) for ids in chunks]
        for j, (th, v) in enumerate(states):
            for (grad, hess), want in zip(providers, alone):
                assert (grad(j, th).tobytes(), hess(j, th, v).tobytes()) == want[j]

    # a sweep's worker processes receive the model through pickle
    def test_pickled_model_keeps_lone_chain_bits(self):
        P = self._unequal_blocks()
        Q = pickle.loads(pickle.dumps(P))
        draws = RngStream(2, 1)
        states = [(4.0 * draws.normal(5), 4.0 * draws.normal(5)) for _ in range(12)]
        for c, mode in enumerate(["perm", "iid", "full"]):
            ids = BatchSchedule(mode, 3, RngStream(1, c)).take(12)
            assert (self._lone_chain_bits(Q, ids, states)
                    == self._lone_chain_bits(P, ids, states))

    # the stacked path skips a unit noise variance, unit prior variances and
    # a unit prior weight, and serves an ensemble of full and block rows as
    # one stacked group per contiguous run of each, in row order: every row
    # must keep the per-row bits times its mini-batch scale (1 or K)
    @pytest.mark.parametrize("noise_var, prior_var", [
        (1.0, 1.0), (1.5, 1.0), (1.0, [2.0, 0.5, 1.0, 3.0]), (0.7, 2.0)])
    @pytest.mark.parametrize("full", ["FFFFFF", "BBBBBB", "FFBBBB", "BBBBBF", "BFBBFB",
                                      "FBFBBF", "BFFBBF"],
                             ids=["all-full", "all-blocks", "full-then-blocks",
                                  "blocks-then-full", "interleaved", "FBFBBF", "BFFBBF"])
    def test_stacked_rows_match_per_row(self, noise_var, prior_var, full):
        rng = RngStream(5, 0)
        P = LinearGaussian(rng.normal(32 * 4).reshape(32, 4), rng.normal(32),
                           noise_var=noise_var, prior_var=prior_var, n_batches=8)
        R, m = len(full), 6
        ids = np.stack([BatchSchedule("full" if f == "F" else "perm", 8,
                                      RngStream(3, c)).take(m)
                        for c, f in enumerate(full)], axis=1)
        runs = [(r.start(), r.end()) for r in re.finditer("F+|B+", full)]
        groups = P._chunk_groups(ids)
        assert [(rows.start, rows.stop) for rows, _, _ in groups] == runs
        scale = np.array([[1.0 if f == "F" else 8.0] * 4 for f in full])
        grad, hess = P.step_providers(ids)
        for j in range(m):
            th, v = (4.0 * rng.normal(R * 4).reshape(R, 4) for _ in range(2))
            keys = ids[j].tolist()
            want_g = np.stack([P._raw_gradient(th[c], k) for c, k in enumerate(keys)])
            want_h = np.stack([P._raw_hessian_vec(th[c], v[c], k)
                               for c, k in enumerate(keys)])
            assert grad(j, th).tobytes() == (scale * want_g).tobytes()
            assert hess(j, th, v).tobytes() == (scale * want_h).tobytes()

    # the stacked providers hold one step's operands at a time: their
    # traced peak over 1,024 steps is that of 64 steps, give or take a few
    # KiB of interpreter noise
    def test_stacked_providers_peak_does_not_grow_with_steps(self):
        import tracemalloc

        rng = RngStream(5, 2)
        P = LinearGaussian(rng.normal(32 * 4).reshape(32, 4), rng.normal(32),
                           noise_var=1.5, prior_var=[2.0, 0.5, 1.0, 3.0], n_batches=8)
        full = "FFBBBB"
        th, v = (rng.normal(len(full) * 4).reshape(len(full), 4) for _ in range(2))
        peaks = []
        for m in (64, 1024):
            ids = np.stack([BatchSchedule("full" if f == "F" else "perm", 8,
                                          RngStream(3, c)).take(m)
                            for c, f in enumerate(full)], axis=1)
            assert len(P._chunk_groups(ids)) == 2
            grad, hess = P.step_providers(ids)
            grad(0, th)
            hess(0, th, v)
            tracemalloc.start()
            try:
                for j in range(m):
                    grad(j, th)
                    hess(j, th, v)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 4096, peaks

    # an ensemble row that switches between the full potential and blocks
    # within a chunk (no sweep makes one) is served per row, with the
    # per-row bits
    def test_row_switching_mid_chunk_takes_per_row_path(self):
        rng = RngStream(5, 1)
        P = LinearGaussian(rng.normal(32 * 4).reshape(32, 4), rng.normal(32),
                           noise_var=1.5, prior_var=2.0, n_batches=8)
        ids = np.array([[-1, 3, 5], [-1, -1, 0], [-1, 6, 2], [-1, 1, 7]])
        assert P._chunk_groups(ids) is None
        grad, hess = P.step_providers(ids)
        for j, keys in enumerate(ids.tolist()):
            th, v = (4.0 * rng.normal(3 * 4).reshape(3, 4) for _ in range(2))
            # each row at its own step's batch: K on a block, 1 on the full
            scale = np.array([[1.0 if k < 0 else 8.0] * 4 for k in keys])
            want_g = np.stack([P._raw_gradient(th[c], k) for c, k in enumerate(keys)])
            want_h = np.stack([P._raw_hessian_vec(th[c], v[c], k)
                               for c, k in enumerate(keys)])
            assert grad(j, th).tobytes() == (scale * want_g).tobytes()
            assert hess(j, th, v).tobytes() == (scale * want_h).tobytes()

    # each group holds its own operands: a full group the whole design, a
    # block group each step's equal blocks (the prior weights, 1 and 1/K,
    # are applied over all rows at once, see test_stacked_rows_match_per_row)
    @pytest.mark.parametrize("full", ["FFBBBB", "BBBBBF", "FBBBBB", "BBBBFF", "FBFBBF"])
    def test_chunk_groups_split_at_the_cut(self, full):
        rng = RngStream(5, 0)
        P = LinearGaussian(rng.normal(32 * 4).reshape(32, 4), rng.normal(32),
                           noise_var=1.5, prior_var=2.0, n_batches=8)
        m = 6
        ids = np.stack([BatchSchedule("full" if f == "F" else "perm", 8,
                                      RngStream(3, c)).take(m)
                        for c, f in enumerate(full)], axis=1)
        cols = np.arange(len(full))
        for rows, size, step_ops in P._chunk_groups(ids):
            kinds = {full[c] for c in cols[rows]}
            assert len(kinds) == 1
            n_rows = len(cols[rows])
            for j in range(m):
                F, FT, y = step_ops(j)
                if kinds == {"F"}:
                    assert size == 32
                    np.testing.assert_array_equal(F[0], P.features)
                    np.testing.assert_array_equal(FT[0], P.features.T)
                    np.testing.assert_array_equal(y, np.tile(P.targets, (n_rows, 1)))
                    continue
                blocks = ids[j, rows]
                assert size == 4
                np.testing.assert_array_equal(F, P.features.reshape(8, 4, 4)[blocks])
                np.testing.assert_array_equal(FT, F.swapaxes(1, 2))
                np.testing.assert_array_equal(y, P.targets.reshape(8, 4)[blocks])

    # the model copies its design C-ordered: a Fortran-ordered or strided
    # design gives the bits of a C-ordered one on every gradient path, and a
    # later write to the caller's array does not reach the model
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_design_layout_keeps_bits(self, layout):
        rng = RngStream(8, 0)
        Phi, y = rng.normal(32 * 4).reshape(32, 4), rng.normal(32)
        src = {"C": Phi.copy(), "F": np.asfortranarray(Phi),
               "strided": np.repeat(Phi, 2, axis=1)[:, ::2]}[layout]
        assert src.flags.c_contiguous == (layout == "C")
        kw = dict(noise_var=1.5, prior_var=[2.0, 0.5, 1.0, 3.0], n_batches=8)
        ref, P = LinearGaussian(Phi, y, **kw), LinearGaussian(src, y, **kw)
        src[:] = 0.0
        assert P.features.flags.c_contiguous
        m = 5
        ids = np.stack([BatchSchedule(mode, 8, RngStream(4, c)).take(m)
                        for c, mode in enumerate(["full", "perm", "iid"])], axis=1)
        for chunk in (ids, ids[:, 1:], ids[:, :1], ids[:, 2:]):
            R = chunk.shape[1]
            pairs = [M.step_providers(chunk) for M in (ref, P)]
            for j, keys in enumerate(chunk.tolist()):
                th, v = (4.0 * rng.normal(R * 4).reshape(R, 4) for _ in range(2))
                x, u = (th[0], v[0]) if R == 1 else (th, v)
                (g_ref, h_ref), (g, h) = pairs
                assert g(j, x).tobytes() == g_ref(j, x).tobytes()
                assert h(j, x, u).tobytes() == h_ref(j, x, u).tobytes()
                # step j alone, from providers made for it
                for M in (ref, P):
                    g_one, _ = M.step_providers(chunk[j:j + 1])
                    assert g_one(0, x).tobytes() == g_ref(j, x).tobytes()
                for c, k in enumerate(keys):
                    batch = None if k < 0 else k
                    assert (P.gradient(th[c], batch).tobytes()
                            == ref.gradient(th[c], batch).tobytes())
                    assert (P.hessian_vec(th[c], v[c], batch).tobytes()
                            == ref.hessian_vec(th[c], v[c], batch).tobytes())

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LinearGaussian(np.zeros((3, 2)), np.zeros(4), 1.0, 1.0)
        with pytest.raises(ValueError):
            LinearGaussian(np.zeros(3), np.zeros(3), 1.0, 1.0)


class TestLogistic2D:
    def test_gradient_at_origin_is_half_signed_sum(self):
        P = small_logistic()
        expected = -0.5 * (P.signs[:, None] * P.features).sum(axis=0)
        np.testing.assert_allclose(P.gradient(np.zeros(2)), expected, rtol=1e-12)

    def test_symmetric_dataset_zero_gradient_at_origin(self):
        # mirroring features while keeping labels flips every margin's sign,
        # so the potential is even in theta and the origin is stationary
        X = np.array([[1.0, 2.0], [0.5, -0.3]])
        Xs = np.vstack([X, -X])
        labels = np.array([1, 0, 1, 0])
        P = Logistic2D(Xs, labels)
        np.testing.assert_allclose(P.gradient(np.zeros(2)), np.zeros(2), atol=1e-14)

    def test_constant_likelihood_reduces_to_prior(self):
        P = Logistic2D(np.zeros((1, 2)), [1])
        th = np.array([0.7, -0.2])
        assert P.value(th) == pytest.approx(np.log(2.0) + 0.5 * th @ th)
        np.testing.assert_allclose(P.gradient(th), th, rtol=1e-14)

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError):
            Logistic2D(np.ones((2, 2)), [0, 2])
        with pytest.raises(ValueError):
            Logistic2D(np.ones((0, 2)), [])

    def test_no_closed_form_posterior(self):
        with pytest.raises(AnalyticPosteriorUnavailable):
            small_logistic().analytic_posterior()

    def test_extreme_margins_stay_finite(self):
        P = Logistic2D(np.array([[100.0, 0.0]]), [1])
        assert np.isfinite(P.value(np.array([50.0, 0.0])))
        assert np.isfinite(P.value(np.array([-50.0, 0.0])))
        assert np.all(np.isfinite(P.gradient(np.array([-50.0, 0.0]))))

    def test_demo_generator_reproducible(self):
        a = make_logistic_demo(40, RngStream(1, 0))
        b = make_logistic_demo(40, RngStream(1, 0))
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.signs, b.signs)
        assert set(np.unique(a.signs)) <= {-1.0, 1.0}


class TestGaussianPosterior:
    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianPosterior(np.zeros(2), np.array([[1.0, 0.2], [0.3, 1.0]]))
        with pytest.raises(ValueError):
            GaussianPosterior(np.zeros(2), -np.eye(2))
        p = GaussianPosterior(np.zeros(2), np.diag([4.0, 9.0]))
        np.testing.assert_array_equal(p.cov, np.diag([4.0, 9.0]))


class TestGenerators:
    def test_cycled_basis_uniform_batch_curvature(self):
        # the sweep benchmark's design: row i is sqrt(3/8) e_{i mod 4}
        P = sweep_model(8)
        want = np.zeros((32, 4))
        want[np.arange(32), np.arange(32) % 4] = math.sqrt(0.375)
        np.testing.assert_array_equal(P.features, want)
        # every coordinate of the full posterior has precision 4
        post = P.analytic_posterior()
        np.testing.assert_allclose(post.cov, np.eye(4) / 4.0, atol=1e-14)
        # every batch sees the same diagonal curvature
        hv = [
            np.array([P.hessian_vec(np.zeros(4), e, batch=b) for e in np.eye(4)])
            for b in range(8)
        ]
        for H in hv[1:]:
            np.testing.assert_allclose(H, hv[0], atol=1e-15)
        # K-rescaled batch curvature equals the full-batch curvature
        np.testing.assert_allclose(8.0 * hv[0], np.eye(4) * 4.0, atol=1e-13)


class TestValidationAndIO:
    def test_batch_out_of_range(self):
        P = toy(n_batches=2)
        with pytest.raises(ValueError):
            P.value(np.zeros(1), batch=2)
        with pytest.raises(ValueError):
            P.gradient(np.zeros(1), batch=-1)

    def test_theta_dimension_checked(self):
        with pytest.raises(ValueError):
            toy().value(np.zeros(2))

    def test_sample_prior_stats(self):
        P = LinearGaussian(np.zeros((0, 2)), [], 1.0, prior_var=[4.0, 0.25])
        draws = np.array([P.sample_prior(RngStream(8, 0)) for _ in range(1)])
        draws = np.array(
            [LinearGaussian(np.zeros((0, 2)), [], 1.0, prior_var=[4.0, 0.25]).sample_prior(r)
             for r in [RngStream(8, i) for i in range(2000)]]
        )
        np.testing.assert_allclose(draws.std(axis=0), [2.0, 0.5], rtol=0.1)
