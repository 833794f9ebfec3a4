"""Tests for the exact scalar-model kernels against independent oracles."""

import numpy as np
import pytest
from scipy.special import erf

from hsde import chain as chain_module
from hsde.chain import ChainConfig
from hsde.core import RngStream, State
from hsde.toy_exact import (
    ExactMode,
    ToyParams,
    _kernel,
    matexp2,
    reference_params,
    run_exact_chain,
    run_exact_states,
    toy_posterior,
    toy_transition,
)

from .oracles import _expm_eig, reference_exact_chain, rk4_toy_moments, simpson_covariance

Z0 = np.array([0.7, -0.9])
ETA = 0.4

# frozen reference-parameter transition moments, computed once with the RK4
# moment-ODE oracle (8000 steps; Simpson quadrature agrees to 2e-15)
GOLDEN_MEAN = np.array([1.0058607950357403, -0.5361134636409932])
GOLDEN_COV = np.array(
    [
        [0.709121847025361, 0.12908780930047897],
        [0.12908780930047897, 0.04468153537974682],
    ]
)


def ks_to_gaussian(samples, mu, sigma):
    """One-sample Kolmogorov statistic against N(mu, sigma^2), direct formula."""
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    cdf = 0.5 * (1.0 + erf((xs - mu) / (sigma * np.sqrt(2.0))))
    grid = np.arange(n + 1) / n
    return max(np.abs(grid[1:] - cdf).max(), np.abs(grid[:-1] - cdf).max())


class TestToyParams:
    def test_reference_derived_values(self):
        p = reference_params()
        assert p.v == pytest.approx(6.0, rel=1e-15)
        assert p.sigma_l2 == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert p.center_full == pytest.approx(0.8 / 6.0, rel=1e-13)
        assert p.centers[0] == pytest.approx(8.0 / 6.0, rel=1e-13)
        assert p.centers[1] == pytest.approx(-6.4 / 6.0, rel=1e-13)
        np.testing.assert_allclose(p.drift, [[-2.0, -3.0], [1.0, 0.0]], rtol=1e-14)

    def test_lyapunov_identity_holds(self):
        p = ToyParams(1.7, 0.9, -0.3, 2.4, 0.8)
        A, S = p.drift, p.stationary_cov
        residual = A @ S + S @ A.T + np.diag([2 * p.friction, 0.0])
        assert np.abs(residual).max() < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            ToyParams(0.0, 0.5, 1.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            ToyParams(1.0, -0.5, 1.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            ToyParams(1.0, 0.5, np.inf, 2.0, 1.0)
        with pytest.raises(ValueError):
            ToyParams(1.0, 0.5, 1.0, 2.0, 0.0)


class TestMatexp2:
    def test_zero_time(self):
        np.testing.assert_array_equal(matexp2(np.array([[3.0, 1.0], [2.0, -1.0]]), 0.0),
                                      np.eye(2))

    def test_diagonal(self):
        E = matexp2(np.diag([1.0, 2.0]), 1.0)
        np.testing.assert_allclose(E, np.diag([np.e, np.e**2]), rtol=1e-14)

    def test_nilpotent(self):
        E = matexp2(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)
        np.testing.assert_allclose(E, [[1.0, 1.0], [0.0, 1.0]], rtol=1e-14)

    def test_defective_jordan_block(self):
        lam, t = -0.7, 1.3
        E = matexp2(np.array([[lam, 1.0], [0.0, lam]]), t)
        want = np.exp(lam * t) * np.array([[1.0, t], [0.0, 1.0]])
        np.testing.assert_allclose(E, want, rtol=1e-12)

    def test_against_eigendecomposition_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            A = rng.normal(size=(2, 2)) * rng.choice([0.1, 1.0, 5.0])
            t = rng.uniform(-2.0, 2.0)
            got = matexp2(A, t)
            want = _expm_eig(A, t)
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-11)

    def test_near_defective_stays_accurate(self):
        # eigengap ~ 1e-9: the eigen-decomposition route would lose digits,
        # the series fallback must not
        A = np.array([[1.0, 1.0], [1e-18, 1.0]])
        got = matexp2(A, 1.0)
        want = np.e * np.array([[1.0, 1.0], [0.0, 1.0]])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    def test_group_property(self):
        A = np.array([[-2.0, -3.0], [1.0, 0.0]])
        one = matexp2(A, 0.3) @ matexp2(A, 0.5)
        direct = matexp2(A, 0.8)
        np.testing.assert_allclose(one, direct, rtol=1e-13)


class TestToyTransition:
    def test_zero_time(self):
        p = reference_params()
        mean, cov = toy_transition(Z0, 0.0, p, p.center_full)
        np.testing.assert_allclose(mean, Z0, rtol=1e-14)
        np.testing.assert_allclose(cov, np.zeros((2, 2)), atol=1e-14)

    def test_long_time_reaches_stationary_law(self):
        p = reference_params()
        mean, cov = toy_transition(Z0, 50.0, p, p.center_full)
        np.testing.assert_allclose(mean, [0.0, p.center_full], atol=1e-12)
        np.testing.assert_allclose(cov, np.diag([1.0, p.sigma_l2]), atol=1e-12)

    def test_reference_golden_values(self):
        p = reference_params()
        mean, cov = toy_transition(Z0, ETA, p, p.center_full)
        np.testing.assert_allclose(mean, GOLDEN_MEAN, atol=1e-9)
        np.testing.assert_allclose(cov, GOLDEN_COV, atol=1e-9)

    def test_against_rk4_moment_oracle_other_params(self):
        p = ToyParams(1.3, 0.8, -1.0, 2.5, 3.1)
        for center in (p.center_full,) + p.centers:
            mean, cov = toy_transition(Z0, 0.7, p, center)
            m, S = rk4_toy_moments(Z0, 0.7, p.drift, center, 2 * p.friction)
            np.testing.assert_allclose(mean, m, atol=1e-9)
            np.testing.assert_allclose(cov, S, atol=1e-9)

    def test_covariance_matches_simpson_quadrature(self):
        p = reference_params()
        _, cov = toy_transition(Z0, ETA, p, p.center_full)
        quad = simpson_covariance(p.drift, ETA, 2 * p.friction, panels=10_000)
        np.testing.assert_allclose(cov, quad, atol=1e-8)

    def test_chapman_kolmogorov(self):
        p = reference_params()
        E = matexp2(p.drift, ETA)
        b = np.array([0.0, p.center_full])
        m1, c1 = toy_transition(Z0, ETA, p, p.center_full)
        m12 = E @ (m1 - b) + b
        _, c_step = toy_transition(Z0, ETA, p, p.center_full)
        c12 = E @ c1 @ E.T + c_step
        m2, c2 = toy_transition(Z0, 2 * ETA, p, p.center_full)
        np.testing.assert_allclose(m12, m2, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(c12, c2, atol=1e-10)

    def test_stationary_fixed_point(self):
        p = reference_params()
        E = matexp2(p.drift, ETA)
        b = np.array([0.0, p.center_full])
        mean, cov = toy_transition(b, ETA, p, p.center_full)
        np.testing.assert_allclose(mean, b, atol=1e-13)
        pushed = E @ p.stationary_cov @ E.T + cov
        np.testing.assert_allclose(pushed, p.stationary_cov, atol=1e-10)

    def test_minibatch_kernel_moves_the_posterior_mean(self):
        p = reference_params()
        b = np.array([0.0, p.center_full])
        for c in p.centers:
            mean, _ = toy_transition(b, ETA, p, c)
            assert np.linalg.norm(mean - b) > 1e-6


def one_step(p, eta, mode, seeds, start=Z0):
    """The states after one exact step from `start`, one chain per seed."""
    z0 = State(r=start[:1], theta=start[1:])
    cfgs = [ChainConfig(n_samples=1, burn_in=0, thinning=1, init=z0, seed=s)
            for s in seeds]
    thetas, momenta = run_exact_states(p, [eta] * len(seeds), [mode] * len(seeds),
                                       cfgs, [0] * len(seeds))
    return np.concatenate([momenta[:, 0], thetas[:, 0]], axis=1)


def apply_kernel(kernel, z0, xi):
    """E (z0 - b) + b + L xi for each row of xi, as the runner's arithmetic."""
    E, b, L = kernel
    return (E @ (z0 - b) + b)[None, :] + xi @ L.T


class TestToyExactStep:
    def test_zero_time_returns_input(self):
        p = reference_params()
        out = apply_kernel(_kernel(p, 0.0, p.center_full), Z0,
                           RngStream(1, 0).normal(2)[None, :])
        np.testing.assert_allclose(out[0], Z0, atol=1e-14)

    def test_deterministic_given_stream(self):
        p = reference_params()
        a = one_step(p, ETA, "minibatch", [3, 3, 4])
        b = one_step(p, ETA, "minibatch", [3])
        assert_bits(a[0], b[0])
        assert_bits(a[1], b[0])
        assert not np.array_equal(a[2], b[0])

    def test_coin_stream_separation(self):
        # the noise comes from stream 4c and the coin from stream 4c + 2:
        # each one-step output is one of the two centers' kernels applied to
        # the noise stream's draws, and across seeds both centers occur
        p = reference_params()
        seeds = list(range(8))
        outs = one_step(p, ETA, "minibatch", seeds)
        picked = set()
        for s, out in zip(seeds, outs):
            xi = RngStream(s, 0).normal(2)[None, :]
            candidates = [apply_kernel(_kernel(p, ETA, c), Z0, xi)[0] for c in p.centers]
            hits = [k for k, cand in enumerate(candidates) if np.allclose(out, cand,
                                                                         rtol=1e-13, atol=1e-15)]
            assert len(hits) == 1
            picked.add(hits[0])
        assert picked == {0, 1}

    def test_single_step_moments(self):
        p = reference_params()
        n = 200_000
        xi = RngStream(11, 0).normal(2 * n).reshape(n, 2)
        draws = apply_kernel(_kernel(p, ETA, p.center_full), Z0, xi)
        mean, cov = toy_transition(Z0, ETA, p, p.center_full)
        se = float(np.sqrt(np.diag(cov) / n).max())
        np.testing.assert_allclose(draws.mean(axis=0), mean, atol=4 * se)
        got_cov = np.cov(draws.T)
        cov_tol = 4 * float(np.abs(cov).max()) * np.sqrt(2.0 / n)
        np.testing.assert_allclose(got_cov, cov, atol=cov_tol)


class TestToyPosterior:
    def test_reference_values(self):
        mean, var = toy_posterior(reference_params())
        assert mean == pytest.approx(0.13333333333, rel=1e-9)
        assert var == pytest.approx(0.33333333333, rel=1e-9)

    def test_symmetric_observations(self):
        mean, _ = toy_posterior(ToyParams(2.0, 0.5, 1.5, -1.5, 1.0))
        assert mean == 0.0

    def test_flat_prior_limit(self):
        p = ToyParams(2.0, 1e12, 4.0, -3.2, 1.0)
        mean, var = toy_posterior(p)
        assert mean == pytest.approx((4.0 - 3.2) / 2.0, rel=1e-9)
        assert var == pytest.approx(1.0, rel=1e-9)


class TestExactChain:
    def test_trace_bookkeeping_and_determinism(self):
        p = reference_params()
        cfg = ChainConfig(n_samples=10, burn_in=7, thinning=3, seed=21)
        a = run_exact_chain(p, ETA, "full", cfg)
        b = run_exact_chain(p, ETA, "full", cfg)
        np.testing.assert_array_equal(a.thetas, b.thetas)
        np.testing.assert_array_equal(a.steps, np.arange(10, 38, 3))
        assert a.effective_time == pytest.approx((7 + 30) * ETA)

    def test_fixed_init(self):
        p = reference_params()
        z0 = State(r=np.array([0.0]), theta=np.array([5.0]))
        cfg = ChainConfig(n_samples=1, burn_in=0, thinning=1, init=z0, seed=0)
        t = run_exact_chain(p, 1e-12, "full", cfg)
        assert t.thetas[0, 0] == pytest.approx(5.0, abs=1e-5)

    def test_full_mode_samples_posterior(self):
        p = reference_params()
        cfg = ChainConfig(n_samples=4000, burn_in=500, thinning=5, seed=33)
        t = run_exact_chain(p, ETA, ExactMode.FULL, cfg)
        mean, var = toy_posterior(p)
        ks = ks_to_gaussian(t.thetas[:, 0], mean, np.sqrt(var))
        assert ks < 0.04
        # exact momentum marginal is N(0, 1)
        assert abs(t.momenta[:, 0].var() - 1.0) < 0.1

    def test_minibatch_mode_misses_posterior(self):
        p = reference_params()
        cfg = ChainConfig(n_samples=4000, burn_in=500, thinning=5, seed=33)
        t = run_exact_chain(p, ETA, "minibatch", cfg)
        mean, var = toy_posterior(p)
        ks = ks_to_gaussian(t.thetas[:, 0], mean, np.sqrt(var))
        assert ks > 0.06

    def test_eta_validation(self):
        with pytest.raises(ValueError):
            run_exact_chain(reference_params(), 0.0, "full",
                            ChainConfig(n_samples=1, seed=0))


def assert_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def check_ensemble(p, etas, modes, seeds, indices, inits=None, burn_in=31,
                   n_samples=8, thinning=5):
    """Every chain's rows of the exact ensemble and its `run_exact_chain`
    trace equal the one-chain reference loop; returns the traces."""
    inits = inits or ["prior"] * len(etas)
    cfgs = [ChainConfig(n_samples=n_samples, burn_in=burn_in, thinning=thinning,
                        seed=seed, init=init) for seed, init in zip(seeds, inits)]
    thetas, momenta = run_exact_states(p, etas, modes, cfgs, indices)
    assert thetas.shape[0] == momenta.shape[0] == len(etas)
    traces = []
    for c in range(len(etas)):
        ref_thetas, ref_momenta, steps, times, effective = reference_exact_chain(
            p, etas[c], modes[c], cfgs[c], indices[c])
        assert_bits(thetas[c], ref_thetas)
        assert_bits(momenta[c], ref_momenta)
        trace = run_exact_chain(p, etas[c], modes[c], cfgs[c], indices[c])
        assert_bits(trace.thetas, ref_thetas)
        assert_bits(trace.momenta, ref_momenta)
        assert_bits(trace.steps, steps)
        assert_bits(trace.times, times)
        assert trace.effective_time == effective
        traces.append(trace)
    return traces


@pytest.fixture
def small_chunks(monkeypatch):
    # refill noise and coins every 7 steps, so short runs cross many chunk
    # boundaries and end on a partial chunk
    monkeypatch.setattr(chain_module, "_CHUNK", 7)


@pytest.mark.usefixtures("small_chunks")
class TestExactEnsembleMatchesReference:
    @pytest.mark.parametrize("mode", ["full", "minibatch"])
    def test_single_chain(self, mode):
        check_ensemble(reference_params(), [0.15], [mode], [5], [2])

    def test_two_modes_on_one_stream(self):
        # the histogram runs: both modes on seed s, chain index 0
        check_ensemble(reference_params(), [0.4, 0.4], ["full", "minibatch"],
                       [11, 11], [0, 0])

    def test_bottleneck_report_layout(self):
        # the report's one ensemble: two etas x two modes, seeds s and s + 1,
        # all at chain index 0; each chain equals its one-chain run
        check_ensemble(reference_params(), [0.4, 0.4, 0.01, 0.01], ["full", "minibatch"] * 2,
                       [11, 11, 12, 12], [0] * 4)

    def test_mixed_etas_modes_seeds_and_indices(self):
        check_ensemble(reference_params(), [0.05, 0.4, 0.01, 1.3, 0.2],
                       ["minibatch", "full", "minibatch", "minibatch", "full"],
                       [11, 11, 12, 13, 11], [0, 1, 0, 2, 3])

    def test_fixed_starts(self):
        starts = [State(r=np.array([0.5]), theta=np.array([3.0])), "prior",
                  State(r=np.array([-1.0]), theta=np.array([-2.0]))]
        check_ensemble(ToyParams(1.3, 0.8, -1.0, 2.5, 3.1), [0.3, 0.1, 0.3],
                       ["minibatch", "full", "full"], [4, 4, 7], [0, 1, 0],
                       inits=starts, burn_in=0, n_samples=20, thinning=1)

    def test_empty_trace(self):
        traces = check_ensemble(reference_params(), [0.4, 0.2],
                                ["full", "minibatch"], [1, 2], [0, 0],
                                burn_in=9, n_samples=0)
        assert all(t.n_samples == 0 for t in traces)


class TestExactEnsembleRun:
    def test_default_chunks_and_buffer_refill(self):
        # 4300 steps draw 8600 normals per chain in many default chunks
        assert 4300 > 2 * chain_module._CHUNK
        check_ensemble(reference_params(), [0.4, 0.4, 0.07],
                       ["full", "minibatch", "minibatch"], [3, 3, 8], [0, 0, 1],
                       burn_in=4000, n_samples=100, thinning=3)

    def test_bottleneck_shape_burn_in_ends_mid_chunk(self):
        # the bottleneck report's run: both modes on one stream, every step
        # kept, the first kept step inside a default chunk
        assert 300 % chain_module._CHUNK != 0
        check_ensemble(reference_params(), [0.4, 0.4], ["full", "minibatch"],
                       [11, 11], [0, 0], burn_in=300, n_samples=500, thinning=1)

    def test_thinning_that_does_not_divide_the_chunk(self):
        assert chain_module._CHUNK % 7 != 0
        check_ensemble(reference_params(), [0.01, 0.4], ["minibatch", "full"],
                       [12, 3], [1, 0], burn_in=100, n_samples=90, thinning=7)

    def test_positions_alone_equal_the_full_run(self):
        # the histogram runs hold positions only; dropping the momenta must
        # leave every position bit where it was
        p = reference_params()
        cfg = ChainConfig(n_samples=600, burn_in=50, thinning=1, seed=11)
        args = (p, [0.4, 0.4], ["full", "minibatch"], [cfg] * 2, [0, 0])
        thetas, momenta = run_exact_states(*args)
        alone, none = run_exact_states(*args, keep_momenta=False)
        assert none is None
        assert momenta.shape == thetas.shape
        assert_bits(alone, thetas)

    def test_traces_own_their_arrays(self):
        # a trace shares no array with another trace or with itself, so
        # writing into one leaves a rerun and its own other fields alone
        cfg = ChainConfig(n_samples=5, burn_in=3, thinning=2, seed=1)
        a = run_exact_chain(reference_params(), 0.4, "minibatch", cfg)
        fields = (a.thetas, a.momenta, a.steps, a.times)
        assert not any(np.shares_memory(x, y) for i, x in enumerate(fields)
                       for y in fields[i + 1:])
        before = a.momenta.copy(), a.times.copy()
        a.steps[:] = -1
        a.thetas[:] = np.nan
        assert_bits(a.momenta, before[0])
        assert_bits(a.times, before[1])
        b = run_exact_chain(reference_params(), 0.4, "minibatch", cfg)
        assert_bits(b.momenta, before[0])
        assert not np.isnan(b.thetas).any()

    def test_validation(self):
        p = reference_params()
        cfg = ChainConfig(n_samples=3, burn_in=2, thinning=1, seed=0)
        for bad in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="eta"):
                run_exact_states(p, [0.4, bad], ["full"] * 2, [cfg] * 2, [0, 1])
        with pytest.raises(ValueError, match="one eta"):
            run_exact_states(p, [0.4, 0.4], ["full"] * 2, [cfg], [0, 1])
        with pytest.raises(ValueError, match="one eta"):
            run_exact_states(p, [], [], [], [])
        other = ChainConfig(n_samples=4, burn_in=2, thinning=1, seed=0)
        with pytest.raises(ValueError, match="share"):
            run_exact_states(p, [0.4, 0.4], ["full"] * 2, [cfg, other], [0, 1])
        with pytest.raises(ValueError):
            run_exact_states(p, [0.4], ["perm"], [cfg], [0])
