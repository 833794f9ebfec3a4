"""Tests for the exact scalar-model kernels against independent oracles."""

import warnings

import numpy as np
import pytest
from scipy.special import erf

from hsde import chain as chain_module
from hsde.chain import ChainConfig, _chunk_steps
from hsde.core import RngStream, State
from hsde.batching import BatchMode
from hsde.integrators import DivergenceError
from hsde.potentials import LinearGaussian
from hsde.repro import build_model
from hsde.toy_exact import _generator, _kernel, matexp2, run_exact_chain, run_exact_states

from .conftest import EXACT_WIDTH
from .oracles import (
    REFERENCE_TOY,
    Toy,
    _expm_eig,
    reference_exact_chain,
    rk4_toy_moments,
    simpson_covariance,
    toy_kernel_tables,
)

Z0 = np.array([0.7, -0.9])
ETA = 0.4
C = 2.0
# a toy whose constants round differently on the model's path
OTHER_TOY, OTHER_C = Toy(1.3, 0.8, -1.0, 2.5), 3.1

# frozen reference-parameter transition moments, computed once with the RK4
# moment-ODE oracle (8000 steps; Simpson quadrature agrees to 2e-15)
GOLDEN_MEAN = np.array([1.0058607950357403, -0.5361134636409932])
GOLDEN_COV = np.array(
    [
        [0.709121847025361, 0.12908780930047897],
        [0.12908780930047897, 0.04468153537974682],
    ]
)


def toy_model():
    return build_model("toy", 2)


def transition(P, friction, eta, batch, z0):
    """Mean E (z0 - b) + b and covariance L L^T of one exact step from z0."""
    E, b, L = _kernel(P, friction, eta, batch)
    return E @ (z0 - b) + b, L @ L.T


def ks_to_gaussian(samples, mu, sigma):
    """One-sample Kolmogorov statistic against N(mu, sigma^2), direct formula."""
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    cdf = 0.5 * (1.0 + erf((xs - mu) / (sigma * np.sqrt(2.0))))
    grid = np.arange(n + 1) / n
    return max(np.abs(grid[1:] - cdf).max(), np.abs(grid[:-1] - cdf).max())


class TestModelConstants:
    def test_reference_toy_is_the_command_line_model(self):
        for K in (1, 2):
            want, got = build_model("toy", K), REFERENCE_TOY.model(K)
            np.testing.assert_array_equal(got.features, want.features)
            np.testing.assert_array_equal(got.targets, want.targets)
            np.testing.assert_array_equal(got.prior_var, want.prior_var)
            assert got.noise_var == want.noise_var and got.n_batches == want.n_batches

    def test_reference_derived_values(self):
        P = toy_model()
        for batch, center in ((-1, 0.8 / 6.0), (0, 8.0 / 6.0), (1, -6.4 / 6.0)):
            A, S, c = _generator(P, C, batch)
            assert c == pytest.approx(center, rel=1e-13)
            np.testing.assert_allclose(A, [[-2.0, -3.0], [1.0, 0.0]], rtol=1e-14)
            np.testing.assert_allclose(S, np.diag([1.0, 1.0 / 3.0]), rtol=1e-15)

    @pytest.mark.parametrize("batch", [-1, 0, 1])
    def test_lyapunov_identity_holds(self, batch):
        # the model-derived law diag(1, 1/H) is stationary for its drift
        A, S, _ = _generator(Toy(1.7, 0.9, -0.3, 2.4).model(2), 0.8, batch)
        residual = A @ S + S @ A.T + np.diag([2 * 0.8, 0.0])
        assert np.abs(residual).max() < 1e-12
        assert np.all(np.linalg.eigvals(A).real < 0)


# the step sizes and frictions whose tables must keep the closed form's bits
TABLE_ETAS = [0.4, 0.3, 0.2, 0.1, 0.05, 0.01, 1.3, 3.0]
TABLE_FRICTIONS = [0.5, 1.0, 2.0, 3.5, 7.3]


class TestKernelTables:
    @pytest.mark.parametrize("friction", TABLE_FRICTIONS)
    @pytest.mark.parametrize("eta", TABLE_ETAS)
    def test_reference_toy_tables_equal_the_closed_form_bits(self, eta, friction):
        # the full kernel of the K = 1 and K = 2 models and the K = 2 block
        # kernels, read from the model, equal the closed-form tables
        want = toy_kernel_tables(REFERENCE_TOY, friction, eta)
        for K, batches in ((1, (-1, 0)), (2, (-1, 0, 1))):
            P = build_model("toy", K)
            for batch in batches:
                got = _kernel(P, friction, eta, batch)
                for g, w in zip(got, want[batch if K == 2 else -1]):
                    assert_bits(g, w)

    def test_other_toys_agree_to_rounding(self):
        # elsewhere the model's solve and the closed form round differently
        # in the last bit, so only near-equality holds
        rng = np.random.default_rng(21)
        for _ in range(45):
            toy = Toy(*rng.uniform(0.2, 5.0, 2), *rng.normal(0.0, 3.0, 2))
            friction, eta = rng.uniform(0.3, 8.0), rng.uniform(0.01, 2.0)
            want = toy_kernel_tables(toy, friction, eta)
            P = toy.model(2)
            for batch in (-1, 0, 1):
                for g, w in zip(_kernel(P, friction, eta, batch), want[batch]):
                    assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()


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

    @pytest.mark.parametrize("friction", [2e4, 1e6, 1e10, 1e100])
    def test_overdamped_step_stays_finite(self, friction):
        # q eta far past cosh's overflow at about 710, yet exp(eta A) is a
        # contraction; checked against the eigen form in 250-digit
        # arithmetic, E = (e^{l+ t} (A - l- I) - e^{l- t} (A - l+ I)) / (l+ - l-)
        import mpmath

        H, eta = 1.5, 0.1
        A = np.array([[-friction, -H], [1.0, 0.0]])
        got = matexp2(A, eta)
        with mpmath.workdps(250):
            Am = mpmath.matrix(A.tolist())
            m = -mpmath.mpf(friction) / 2
            q = mpmath.sqrt(m * m - H)
            hi, lo = m + q, m - q
            eye = mpmath.eye(2)
            want = (mpmath.exp(hi * eta) * (Am - lo * eye)
                    - mpmath.exp(lo * eta) * (Am - hi * eye)) / (hi - lo)
            want = np.array(want.tolist(), dtype=float)
        assert np.all(np.isfinite(got))
        # the slow entries, which carry theta's relaxation eta H / C, to the
        # last bits; E[0, 0], near 0, to a few 1e-17
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-16)

    def test_no_closed_form_where_the_discriminant_overflows(self):
        with pytest.raises(ValueError, match="no closed form"):
            matexp2(np.array([[-1e155, -1.0], [1.0, 0.0]]), 0.1)

    def test_overflow_branch_only_where_cosh_overflows(self):
        # just below cosh's overflow the closed form keeps its own bits
        A = np.array([[-1400.0, -1.0], [1.0, 0.0]])
        t = 1.0
        m = 0.5 * (A[0, 0] + A[1, 1])
        q2 = m * m - (A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0])
        q = np.sqrt(q2)
        assert np.isfinite(np.cosh(q * t))
        D = A - m * np.eye(2)
        want = np.exp(m * t) * (np.cosh(q * t) * np.eye(2) + np.sinh(q * t) / q * D)
        assert matexp2(A, t).tobytes() == want.tobytes()


class TestToyTransition:
    def test_zero_time(self):
        mean, cov = transition(toy_model(), C, 0.0, -1, Z0)
        np.testing.assert_allclose(mean, Z0, rtol=1e-14)
        np.testing.assert_allclose(cov, np.zeros((2, 2)), atol=1e-14)

    def test_long_time_reaches_stationary_law(self):
        t = REFERENCE_TOY
        mean, cov = transition(toy_model(), C, 50.0, -1, Z0)
        np.testing.assert_allclose(mean, [0.0, t.center_full], atol=1e-12)
        np.testing.assert_allclose(cov, np.diag([1.0, t.sigma_l2]), atol=1e-12)

    def test_reference_golden_values(self):
        mean, cov = transition(toy_model(), C, ETA, -1, Z0)
        np.testing.assert_allclose(mean, GOLDEN_MEAN, atol=1e-9)
        np.testing.assert_allclose(cov, GOLDEN_COV, atol=1e-9)

    def test_against_rk4_moment_oracle_other_params(self):
        t = OTHER_TOY
        P = t.model(2)
        for batch, center in zip((-1, 0, 1), (t.center_full,) + t.centers):
            mean, cov = transition(P, OTHER_C, 0.7, batch, Z0)
            m, S = rk4_toy_moments(Z0, 0.7, t.drift(OTHER_C), center, 2 * OTHER_C)
            np.testing.assert_allclose(mean, m, atol=1e-9)
            np.testing.assert_allclose(cov, S, atol=1e-9)

    def test_covariance_matches_simpson_quadrature(self):
        _, cov = transition(toy_model(), C, ETA, -1, Z0)
        quad = simpson_covariance(REFERENCE_TOY.drift(C), ETA, 2 * C, panels=10_000)
        np.testing.assert_allclose(cov, quad, atol=1e-8)

    def test_chapman_kolmogorov(self):
        P = toy_model()
        E, b, _ = _kernel(P, C, ETA, -1)
        m1, c1 = transition(P, C, ETA, -1, Z0)
        m12 = E @ (m1 - b) + b
        c12 = E @ c1 @ E.T + c1
        m2, c2 = transition(P, C, 2 * ETA, -1, Z0)
        np.testing.assert_allclose(m12, m2, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(c12, c2, atol=1e-10)

    def test_stationary_fixed_point(self):
        P = toy_model()
        E, b, _ = _kernel(P, C, ETA, -1)
        mean, cov = transition(P, C, ETA, -1, b)
        np.testing.assert_allclose(mean, b, atol=1e-13)
        S = REFERENCE_TOY.stationary_cov
        np.testing.assert_allclose(E @ S @ E.T + cov, S, atol=1e-10)

    def test_minibatch_kernel_moves_the_posterior_mean(self):
        P = toy_model()
        b = np.array([0.0, REFERENCE_TOY.center_full])
        for batch in (0, 1):
            mean, _ = transition(P, C, ETA, batch, b)
            assert np.linalg.norm(mean - b) > 1e-6


def one_step(P, eta, mode, seeds, start=Z0):
    """The states after one exact step from `start`, one chain per seed."""
    z0 = State(r=start[:1], theta=start[1:])
    cfgs = [ChainConfig(n_samples=1, burn_in=0, thinning=1, init=z0, seed=s)
            for s in seeds]
    thetas, momenta = run_exact_states(P, [eta] * len(seeds), [mode] * len(seeds),
                                       cfgs, [0] * len(seeds), friction=C)
    return np.concatenate([momenta[:, 0], thetas[:, 0]], axis=1)


def apply_kernel(kernel, z0, xi):
    """E (z0 - b) + b + L xi for each row of xi, as the runner's arithmetic."""
    E, b, L = kernel
    return (E @ (z0 - b) + b)[None, :] + xi @ L.T


class TestToyExactStep:
    def test_zero_time_returns_input(self):
        out = apply_kernel(_kernel(toy_model(), C, 0.0, -1), Z0,
                           RngStream(1, 0).normal(2)[None, :])
        np.testing.assert_allclose(out[0], Z0, atol=1e-14)

    def test_deterministic_given_stream(self):
        P = toy_model()
        a = one_step(P, ETA, "iid", [3, 3, 4])
        b = one_step(P, ETA, "iid", [3])
        assert_bits(a[0], b[0])
        assert_bits(a[1], b[0])
        assert not np.array_equal(a[2], b[0])

    def test_coin_stream_separation(self):
        # the noise comes from stream 4c and the coin from stream 4c + 2:
        # each one-step output is one of the two blocks' kernels applied to
        # the noise stream's draws, and across seeds both blocks occur
        P = toy_model()
        seeds = list(range(8))
        outs = one_step(P, ETA, "iid", seeds)
        picked = set()
        for s, out in zip(seeds, outs):
            xi = RngStream(s, 0).normal(2)[None, :]
            candidates = [apply_kernel(_kernel(P, C, ETA, k), Z0, xi)[0] for k in (0, 1)]
            hits = [k for k, cand in enumerate(candidates) if np.allclose(out, cand,
                                                                         rtol=1e-13, atol=1e-15)]
            assert len(hits) == 1
            picked.add(hits[0])
        assert picked == {0, 1}

    def test_single_step_moments(self):
        n = 200_000
        xi = RngStream(11, 0).normal(2 * n).reshape(n, 2)
        kernel = _kernel(toy_model(), C, ETA, -1)
        draws = apply_kernel(kernel, Z0, xi)
        mean, cov = rk4_toy_moments(Z0, ETA, REFERENCE_TOY.drift(C),
                                    REFERENCE_TOY.center_full, 2 * C)
        se = float(np.sqrt(np.diag(cov) / n).max())
        np.testing.assert_allclose(draws.mean(axis=0), mean, atol=4 * se)
        got_cov = np.cov(draws.T)
        cov_tol = 4 * float(np.abs(cov).max()) * np.sqrt(2.0 / n)
        np.testing.assert_allclose(got_cov, cov, atol=cov_tol)


class TestToyPosterior:
    """The full kernel's center c and law 1/H are the model's posterior."""

    @staticmethod
    def posterior(toy):
        _, S, center = _generator(toy.model(2), C, -1)
        return center, S[1, 1]

    def test_reference_values(self):
        mean, var = self.posterior(REFERENCE_TOY)
        assert mean == pytest.approx(0.13333333333, rel=1e-9)
        assert var == pytest.approx(0.33333333333, rel=1e-9)

    def test_symmetric_observations(self):
        assert self.posterior(Toy(2.0, 0.5, 1.5, -1.5))[0] == 0.0

    def test_flat_prior_limit(self):
        mean, var = self.posterior(Toy(2.0, 1e12, 4.0, -3.2))
        assert mean == pytest.approx((4.0 - 3.2) / 2.0, rel=1e-9)
        assert var == pytest.approx(1.0, rel=1e-9)


class TestExactChain:
    def test_trace_bookkeeping_and_determinism(self):
        P = toy_model()
        cfg = ChainConfig(n_samples=10, burn_in=7, thinning=3, seed=21)
        a = run_exact_chain(P, ETA, "full", cfg, friction=C)
        b = run_exact_chain(P, ETA, "full", cfg, friction=C)
        np.testing.assert_array_equal(a.thetas, b.thetas)
        np.testing.assert_array_equal(a.steps, np.arange(10, 38, 3))
        assert a.effective_time == pytest.approx((7 + 30) * ETA)

    def test_fixed_init(self):
        P = toy_model()
        z0 = State(r=np.array([0.0]), theta=np.array([5.0]))
        cfg = ChainConfig(n_samples=1, burn_in=0, thinning=1, init=z0, seed=0)
        t = run_exact_chain(P, 1e-12, "full", cfg, friction=C)
        assert t.thetas[0, 0] == pytest.approx(5.0, abs=1e-5)

    def test_full_mode_samples_posterior(self):
        P = toy_model()
        cfg = ChainConfig(n_samples=4000, burn_in=500, thinning=5, seed=33)
        t = run_exact_chain(P, ETA, BatchMode.FULL, cfg, friction=C)
        mean, var = REFERENCE_TOY.center_full, REFERENCE_TOY.sigma_l2
        ks = ks_to_gaussian(t.thetas[:, 0], mean, np.sqrt(var))
        assert ks < 0.04
        # exact momentum marginal is N(0, 1)
        assert abs(t.momenta[:, 0].var() - 1.0) < 0.1

    def test_minibatch_mode_misses_posterior(self):
        P = toy_model()
        cfg = ChainConfig(n_samples=4000, burn_in=500, thinning=5, seed=33)
        t = run_exact_chain(P, ETA, "iid", cfg, friction=C)
        mean, var = REFERENCE_TOY.center_full, REFERENCE_TOY.sigma_l2
        ks = ks_to_gaussian(t.thetas[:, 0], mean, np.sqrt(var))
        assert ks > 0.06

    def test_eta_validation(self):
        with pytest.raises(ValueError):
            run_exact_chain(toy_model(), 0.0, "full", ChainConfig(n_samples=1, seed=0),
                            friction=C)


def assert_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def assert_close(a, b):
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-14)


def check_ensemble(toy, etas, modes, seeds, indices, inits=None, burn_in=31,
                   n_samples=8, thinning=5, friction=C):
    """Every chain's rows of the exact ensemble on `toy`'s model equal its
    `run_exact_chain` trace, bit for bit, and the one-chain reference loop
    on the closed-form tables: bit for bit on the reference toy, to
    rounding on any other; returns the traces."""
    same = assert_bits if toy == REFERENCE_TOY else assert_close
    inits = inits or ["prior"] * len(etas)
    cfgs = [ChainConfig(n_samples=n_samples, burn_in=burn_in, thinning=thinning,
                        seed=seed, init=init) for seed, init in zip(seeds, inits)]
    P = toy.model(2)
    thetas, momenta = run_exact_states(P, etas, modes, cfgs, indices, friction=friction)
    assert thetas.shape[0] == momenta.shape[0] == len(etas)
    traces = []
    for c in range(len(etas)):
        ref_thetas, ref_momenta, steps, times, effective = reference_exact_chain(
            toy, etas[c], modes[c], cfgs[c], indices[c], friction=friction)
        same(thetas[c], ref_thetas)
        same(momenta[c], ref_momenta)
        trace = run_exact_chain(P, etas[c], modes[c], cfgs[c], indices[c], friction=friction)
        assert_bits(trace.thetas, thetas[c])
        assert_bits(trace.momenta, momenta[c])
        assert_bits(trace.steps, steps)
        assert_bits(trace.times, times)
        assert trace.effective_time == effective
        traces.append(trace)
    return traces


@pytest.mark.usefixtures("small_chunks")
class TestExactEnsembleMatchesReference:
    @pytest.mark.parametrize("mode", ["full", "iid"])
    def test_single_chain(self, mode):
        check_ensemble(REFERENCE_TOY, [0.15], [mode], [5], [2])

    @pytest.mark.parametrize("seed, index", [(0, 0), (5, 2), (11, 0), (2**40, 7)])
    @pytest.mark.parametrize("eta", [0.01, 0.15, 0.4, 1.3])
    def test_perm_rows_match_one_step_reference(self, seed, index, eta):
        # 7-step chunks end in the middle of a two-step sweep every other
        # chunk, so the schedule's carried sweep is read on every refill
        check_ensemble(REFERENCE_TOY, [eta], ["perm"], [seed], [index])

    def test_two_modes_on_one_stream(self):
        # the histogram runs: both modes on seed s, chain index 0
        check_ensemble(REFERENCE_TOY, [0.4, 0.4], ["full", "iid"],
                       [11, 11], [0, 0])

    def test_bottleneck_report_layout(self):
        # the report's one ensemble: two etas x two modes, seeds s and s + 1,
        # all at chain index 0; each chain equals its one-chain run
        check_ensemble(REFERENCE_TOY, [0.4, 0.4, 0.01, 0.01], ["full", "iid"] * 2,
                       [11, 11, 12, 12], [0] * 4)

    def test_mixed_etas_modes_seeds_and_indices(self):
        check_ensemble(REFERENCE_TOY, [0.05, 0.4, 0.01, 1.3, 0.2, 0.4, 0.01, 1.3],
                       ["iid", "full", "iid", "iid", "full", "perm", "perm",
                        BatchMode.PERMUTATION_SWEEP],
                       [11, 11, 12, 13, 11, 11, 12, 3], [0, 1, 0, 2, 3, 4, 1, 0])

    def test_fixed_starts(self):
        starts = [State(r=np.array([0.5]), theta=np.array([3.0])), "prior",
                  State(r=np.array([-1.0]), theta=np.array([-2.0]))]
        check_ensemble(OTHER_TOY, [0.3, 0.1, 0.3], ["iid", "full", "full"], [4, 4, 7],
                       [0, 1, 0], inits=starts, burn_in=0, n_samples=20, thinning=1,
                       friction=OTHER_C)

    def test_empty_trace(self):
        traces = check_ensemble(REFERENCE_TOY, [0.4, 0.2],
                                ["full", "iid"], [1, 2], [0, 0],
                                burn_in=9, n_samples=0)
        assert all(t.n_samples == 0 for t in traces)


class TestExactEnsembleRun:
    def test_default_chunks_and_buffer_refill(self, chunk_lengths):
        # 7800 steps draw 15600 normals per chain in several default chunks
        # of the ensemble
        check_ensemble(REFERENCE_TOY, [0.4, 0.4, 0.07, 0.07],
                       ["full", "iid", "iid", "perm"], [3, 3, 8, 8], [0, 0, 1, 2],
                       burn_in=7500, n_samples=100, thinning=3)
        assert 7800 > 2 * chunk_lengths[0]

    def test_bottleneck_shape_burn_in_ends_mid_chunk(self, chunk_lengths):
        # the bottleneck report's run: both modes on one stream, every step
        # kept, the first kept step inside a default chunk
        check_ensemble(REFERENCE_TOY, [0.4, 0.4], ["full", "iid"],
                       [11, 11], [0, 0], burn_in=300, n_samples=500, thinning=1)
        assert 300 % chunk_lengths[0] != 0

    def test_thinning_that_does_not_divide_the_chunk(self, chunk_lengths):
        # the kept rows cross a default chunk boundary of the ensemble, after
        # which they start at another offset
        check_ensemble(REFERENCE_TOY, [0.01, 0.4], ["iid", "full"],
                       [12, 3], [1, 0], burn_in=7400, n_samples=90, thinning=13)
        chunk = _chunk_steps(2, EXACT_WIDTH)
        assert chunk_lengths[0] == chunk
        assert chunk % 13 != 0
        assert (7400 + 13 - 1) // chunk < (7400 + 90 * 13 - 1) // chunk

    def test_divergence_in_a_long_default_chunk(self, chunk_lengths, monkeypatch):
        # from theta = 1.1e308 at light friction the momentum swings past
        # the float range at step 72, early in the lone chain's first default
        # chunk, and the chain steps on as NaN to the chunk's end; 7-step
        # chunks stop there with the same state and samples
        start = State(r=np.array([0.0]), theta=np.array([1.1e308]))
        cfg = ChainConfig(n_samples=5000, burn_in=10, thinning=3, init=start, seed=3)
        errors = []
        for small in (False, True):
            if small:
                monkeypatch.setattr(chain_module, "_chunk_steps", lambda n, width: 7)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DivergenceError) as info:
                    run_exact_chain(toy_model(), 0.01, "iid", cfg, friction=1e-3)
            errors.append(info.value)
        assert chunk_lengths == [_chunk_steps(1, EXACT_WIDTH)]
        assert 4096 <= chunk_lengths[0] < 10 + 5000 * 3
        default, small = errors
        assert (default.step_index, default.scheme) == (72, "exact")
        assert default.partial[0].shape == (20, 1)
        assert small.step_index == default.step_index
        for a, b in [(default.r, small.r), (default.theta, small.theta),
                     (default.partial[0], small.partial[0]),
                     (default.partial[1], small.partial[1])]:
            assert_bits(a, b)

    def test_positions_alone_equal_the_full_run(self):
        # the histogram runs hold positions only; dropping the momenta must
        # leave every position bit where it was
        P = toy_model()
        cfg = ChainConfig(n_samples=600, burn_in=50, thinning=1, seed=11)
        args = (P, [0.4, 0.4], ["full", "iid"], [cfg] * 2, [0, 0])
        thetas, momenta = run_exact_states(*args, friction=C)
        alone, none = run_exact_states(*args, keep_momenta=False, friction=C)
        assert none is None
        assert momenta.shape == thetas.shape
        assert_bits(alone, thetas)

    def test_traces_own_their_arrays(self):
        # a trace shares no array with another trace or with itself, so
        # writing into one leaves a rerun and its own other fields alone
        cfg = ChainConfig(n_samples=5, burn_in=3, thinning=2, seed=1)
        a = run_exact_chain(toy_model(), 0.4, "iid", cfg, friction=C)
        fields = (a.thetas, a.momenta, a.steps, a.times)
        assert not any(np.shares_memory(x, y) for i, x in enumerate(fields)
                       for y in fields[i + 1:])
        before = a.momenta.copy(), a.times.copy()
        a.steps[:] = -1
        a.thetas[:] = np.nan
        assert_bits(a.momenta, before[0])
        assert_bits(a.times, before[1])
        b = run_exact_chain(toy_model(), 0.4, "iid", cfg, friction=C)
        assert_bits(b.momenta, before[0])
        assert not np.isnan(b.thetas).any()

    def test_validation(self):
        P = toy_model()
        cfg = ChainConfig(n_samples=3, burn_in=2, thinning=1, seed=0)

        def run(*args):
            run_exact_states(P, *args, friction=C)

        for bad in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="eta"):
                run([0.4, bad], ["full"] * 2, [cfg] * 2, [0, 1])
        with pytest.raises(ValueError, match="one eta"):
            run([0.4, 0.4], ["full"] * 2, [cfg], [0, 1])
        with pytest.raises(ValueError, match="one eta"):
            run([], [], [], [])
        other = ChainConfig(n_samples=4, burn_in=2, thinning=1, seed=0)
        with pytest.raises(ValueError, match="share"):
            run([0.4, 0.4], ["full"] * 2, [cfg, other], [0, 1])
        # the exact kernel takes the chains' batch modes, and no other name
        with pytest.raises(ValueError, match="minibatch"):
            run([0.4], ["minibatch"], [cfg], [0])

    @pytest.mark.parametrize("friction", [0.0, -1.0, np.inf, -np.inf, np.nan])
    def test_friction_must_be_finite_and_positive(self, friction):
        cfg = ChainConfig(n_samples=3, burn_in=2, thinning=1, seed=0)
        with pytest.raises(ValueError, match="finite friction > 0"):
            run_exact_states(toy_model(), [0.4], ["full"], [cfg], [0], friction=friction)

    @pytest.mark.parametrize("friction", [2.7e154, 1e155, 1e300])
    def test_non_finite_kernel_table_refused(self, friction):
        # C^2 / 4 overflows: refused before any chain steps, with no warning
        cfg = ChainConfig(n_samples=3, burn_in=2, thinning=1, seed=0)
        with pytest.raises(ValueError, match="no exact kernel at friction"):
            run_exact_states(toy_model(), [0.4, 0.1], ["full", "iid"], [cfg] * 2, [0, 1],
                             friction=friction)

    def test_overdamped_chain_runs(self):
        # the strongly overdamped step keeps r near its stationary noise and
        # moves theta by about eta H / C per step: a finite, bounded chain
        cfg = ChainConfig(n_samples=200, burn_in=5, thinning=1, seed=2)
        trace = run_exact_chain(toy_model(), 0.1, "iid", cfg, friction=2e4)
        assert np.all(np.isfinite(trace.thetas)) and np.all(np.isfinite(trace.momenta))
        assert np.abs(trace.momenta).max() < 6.0

    @pytest.mark.parametrize("name", ["lingauss", "logistic2d"])
    def test_model_must_be_one_parameter_linear_gaussian(self, name):
        cfg = ChainConfig(n_samples=3, burn_in=2, thinning=1, seed=0)
        with pytest.raises(ValueError, match="one-parameter linear-Gaussian"):
            run_exact_chain(build_model(name, 2), 0.4, "iid", cfg, friction=C)

    def test_any_one_parameter_linear_gaussian_runs(self):
        # three observations with unequal features, in unequal blocks: each
        # iid step's state is one of its blocks' kernels applied to the noise
        P = LinearGaussian(np.array([[1.0], [0.5], [2.0]]), (1.0, -2.0, 0.3),
                           noise_var=0.7, prior_var=1.5, n_batches=2)
        z0 = State(r=Z0[:1], theta=Z0[1:])
        cfg = ChainConfig(n_samples=1, burn_in=0, thinning=1, init=z0, seed=4)
        t = run_exact_chain(P, ETA, "iid", cfg, friction=C)
        xi = RngStream(4, 0).normal(2)[None, :]
        got = np.array([t.momenta[0, 0], t.thetas[0, 0]])
        assert any(np.array_equal(got, apply_kernel(_kernel(P, C, ETA, k), Z0, xi)[0])
                   for k in (0, 1))
