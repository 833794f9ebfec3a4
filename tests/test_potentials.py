"""Tests for the potential models, their mini-batch split, and posteriors."""

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
    Toy1D,
    batch_bounds,
    make_cycled_basis_dataset,
    make_logistic_demo,
)
from hsde.repro import build_model

from .oracles import grad_fd, jac_fd

# canonical scalar-model parameters used throughout the verification suite
TOY_X = np.array([4.0, -3.2])
TOY_NOISE_VAR = 2.0
TOY_PRIOR_VAR = 0.5


def toy(n_batches=1):
    return Toy1D(TOY_X, TOY_NOISE_VAR, TOY_PRIOR_VAR, n_batches=n_batches)


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


class TestToy1D:
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
        P = LinearGaussian(
            np.ones((2, 1)), TOY_X, noise_var=TOY_NOISE_VAR, prior_var=TOY_PRIOR_VAR
        )
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

    # a lone chain's gradient and Hessian-vector calls take the stacked
    # path, full batch or on a chunk's gathered blocks, and give the
    # per-row bits: one step's `gradient_many` calls and the chunk's
    # `step_providers`, whose providers write into arrays they own
    @pytest.mark.parametrize("mode", ["full", "perm", "iid"])
    @pytest.mark.parametrize("model", ["lingauss-K1", "lingauss-K8", "dense-equal-blocks"])
    def test_lone_row_stacked_path_matches_per_row(self, model, mode):
        if model == "dense-equal-blocks":
            rng = RngStream(3, 0)
            P = LinearGaussian(rng.normal(32 * 5).reshape(32, 5), rng.normal(32),
                               noise_var=1.5, prior_var=2.0, n_batches=4)
        else:
            P = build_model("lingauss", int(model[-1]))
        m = 40
        ids = BatchSchedule(mode, P.n_batches, RngStream(1, 2)).take(m)
        assert P._chunk_groups(ids[:, None]) is not None
        batches = [None] * m if mode == "full" else ids[:, None]
        draws = RngStream(2, 0)
        for b, batch, (grad, hess) in zip(ids.tolist(), batches,
                                          P.step_providers(ids[:, None])):
            assert P._stacked(batch) is not None
            th, v = (4.0 * draws.normal(P.dim) for _ in range(2))
            key = None if b < 0 else b
            want_g = P.gradient(th, key)[None].tobytes()
            want_h = P.hessian_vec(th, v, key)[None].tobytes()
            assert P.gradient_many(th[None], batch).tobytes() == want_g
            assert P.hessian_vec_many(th[None], v[None], batch).tobytes() == want_h
            assert grad(th[None]).tobytes() == want_g
            assert hess(th[None], v[None]).tobytes() == want_h

    # the stacked path skips a unit noise variance, unit prior variances and
    # a unit prior weight, and serves an ensemble of full and block rows as
    # two stacked groups: every row must keep the per-row bits
    @pytest.mark.parametrize("noise_var, prior_var", [
        (1.0, 1.0), (1.5, 1.0), (1.0, [2.0, 0.5, 1.0, 3.0]), (0.7, 2.0)])
    @pytest.mark.parametrize("rows", [
        "all-full", "all-blocks", "full-then-blocks", "blocks-then-full", "interleaved"])
    def test_stacked_rows_match_per_row(self, noise_var, prior_var, rows):
        full = {"all-full": "FFFFFF", "all-blocks": "BBBBBB",
                "full-then-blocks": "FFBBBB", "blocks-then-full": "BBBBBF",
                "interleaved": "BFBBFB"}[rows]
        rng = RngStream(5, 0)
        P = LinearGaussian(rng.normal(32 * 4).reshape(32, 4), rng.normal(32),
                           noise_var=noise_var, prior_var=prior_var, n_batches=8)
        R, m = len(full), 6
        ids = np.stack([BatchSchedule("full" if f == "F" else "perm", 8,
                                      RngStream(3, c)).take(m)
                        for c, f in enumerate(full)], axis=1)
        assert P._chunk_groups(ids) is not None
        for j, (grad, hess) in enumerate(P.step_providers(ids)):
            assert P._stacked(ids[j]) is not None
            th, v = (4.0 * rng.normal(R * 4).reshape(R, 4) for _ in range(2))
            keys = ids[j].tolist()
            want_g = np.stack([P._raw_gradient(th[c], k) for c, k in enumerate(keys)])
            want_h = np.stack([P._raw_hessian_vec(th[c], v[c], k)
                               for c, k in enumerate(keys)])
            assert grad(th).tobytes() == want_g.tobytes()
            assert hess(th, v).tobytes() == want_h.tobytes()
            for arg in (ids[j],) + ((None,) if rows == "all-full" else ()):
                assert P.gradient_many(th, arg).tobytes() == want_g.tobytes()
                assert P.hessian_vec_many(th, v, arg).tobytes() == want_h.tobytes()

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
        Phi, y = make_cycled_basis_dataset(dim=4, n_rows=32)
        assert np.all(y == 0)
        P = LinearGaussian(Phi, y, noise_var=1.0, prior_var=1.0, n_batches=8)
        # every coordinate of the full posterior has precision 4
        post = P.analytic_posterior()
        np.testing.assert_allclose(post.cov, np.eye(4) / 4.0, atol=1e-14)
        np.testing.assert_allclose(post.mean, np.zeros(4), atol=1e-14)
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
