"""Integrator tests: exact-arithmetic oracle agreement, reductions, identities."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsde.core import RngStream, State
from hsde import integrators as integrators_module
from hsde.integrators import (
    DivergenceError,
    IntegratorSpec,
    Scheme,
    compile_ensemble_step,
    compile_step,
    noise_draws,
)

from .oracles import QuadOracle, reference_kernel, step


class QueuedRng:
    """Feeds pre-chosen draw vectors to a stepper in order."""

    def __init__(self, draws):
        self._q = [np.atleast_1d(np.asarray(d, dtype=float)) for d in draws]

    def normal(self, d):
        if not self._q:
            raise AssertionError("stepper drew more noise than expected")
        v = self._q.pop(0)
        assert v.size == d, f"draw of size {v.size} requested as {d}"
        return v.copy()

    def exhausted(self):
        return not self._q


# shared scalar test point, deliberately non-special values
LAM, CEN, ETA, FRIC = 1.3, 0.4, 0.23, 1.7
R0, TH0 = 0.7, -0.9
W0, W1 = 0.37, -1.2


def scalar_spec(scheme, eta=ETA, C=FRIC, **kw):
    return IntegratorSpec(scheme, eta=eta, friction=C, **kw)


def quad_grad(lam=LAM, cen=CEN):
    return lambda th: lam * (th - cen)


def quad_hess(lam=LAM):
    return lambda th, v: lam * v


def spv_momentum(r, f, eta, friction, rng):
    """The momentum of one SPV step under the constant force f: the exact
    OU update of dr = -f dt - C r dt + sqrt(2C) dW over time eta."""
    r = np.asarray(r, dtype=np.float64)
    spec = IntegratorSpec(Scheme.SPV, eta=eta, friction=friction)
    return step(State(r=r, theta=np.zeros_like(r)), lambda th: f, spec, rng).r


def run_scalar(scheme, draws, **kw):
    spec = scalar_spec(scheme, **kw)
    z = State(r=np.array([R0]), theta=np.array([TH0]))
    rng = QueuedRng(draws)
    out = step(z, quad_grad(), spec, rng, hess=quad_hess())
    assert rng.exhausted(), "the step used fewer draws than its oracle"
    return out.r[0], out.theta[0]


class TestOracleAgreement:
    """Each scheme must reproduce the exact-arithmetic reference step."""

    def oracle(self, eta=ETA, C=FRIC):
        return QuadOracle(LAM, CEN, eta, C)

    def check(self, got, want):
        assert got[0] == pytest.approx(want[0], rel=1e-13, abs=1e-14)
        assert got[1] == pytest.approx(want[1], rel=1e-13, abs=1e-14)

    def test_euler(self):
        self.check(run_scalar(Scheme.EULER, [[W0]]), self.oracle().euler(R0, TH0, W0))

    def test_leapfrog(self):
        self.check(
            run_scalar(Scheme.LEAPFROG, [[W0]]), self.oracle().leapfrog(R0, TH0, W0)
        )

    def test_sghmc(self):
        self.check(
            run_scalar(Scheme.SGHMC, [[W0]], v_hat=0.9),
            self.oracle().sghmc(R0, TH0, W0, v_hat=0.9),
        )

    def test_spv(self):
        self.check(run_scalar(Scheme.SPV, [[W0]]), self.oracle().spv(R0, TH0, W0))

    @pytest.mark.parametrize("n_inner", [1, 3])
    def test_lie_trotter(self, n_inner):
        self.check(
            run_scalar(Scheme.LIE_TROTTER, [[W0]], n_inner=n_inner),
            self.oracle().lie_trotter(R0, TH0, W0, n_inner=n_inner),
        )

    def test_hmc_partial(self):
        got = run_scalar(Scheme.HMC_PARTIAL, [[W0]], n_inner=2)
        want = self.oracle().lie_trotter(R0, TH0, W0, n_inner=2)
        self.check(got, want)

    def test_symmetric(self):
        self.check(
            run_scalar(Scheme.SYMMETRIC, [[W0], [W1]]),
            self.oracle().symmetric(R0, TH0, W0, W1),
        )

    def test_mt3(self):
        self.check(
            run_scalar(Scheme.MT3, [[W0], [W1]]), self.oracle().mt3(R0, TH0, W0, W1)
        )

    def test_ou_exact(self):
        rng = QueuedRng([[W0]])
        got = spv_momentum(np.array([R0]), np.array([0.55]), ETA, FRIC, rng)
        assert rng.exhausted()
        want = QuadOracle(0, 0, ETA, FRIC).ou_exact(R0, 0.55, W0)
        assert got[0] == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize(
        "scheme,n_draws",
        [
            (Scheme.EULER, 1),
            (Scheme.LEAPFROG, 1),
            (Scheme.SPV, 1),
            (Scheme.LIE_TROTTER, 1),
            (Scheme.SYMMETRIC, 2),
            (Scheme.MT3, 2),
        ],
    )
    def test_elementwise_over_coordinates(self, scheme, n_draws):
        # a separable quadratic in d=3 must behave as three scalar problems
        lam = np.array([0.5, 1.3, 2.2])
        cen = np.array([0.0, 0.4, -1.0])
        r0 = np.array([0.7, -0.2, 1.1])
        th0 = np.array([-0.9, 0.3, 0.05])
        draws = [np.array([0.37, -1.2, 0.8]), np.array([0.15, 0.9, -0.4])][:n_draws]

        spec = IntegratorSpec(scheme, eta=ETA, friction=FRIC)
        z = State(r=r0, theta=th0)
        grad = lambda th: lam * (th - cen)
        hess = lambda th, v: lam * v
        rng = QueuedRng([d.copy() for d in draws])
        out = step(z, grad, spec, rng, hess=hess)
        assert rng.exhausted()

        for i in range(3):
            oracle = QuadOracle(lam[i], cen[i], ETA, FRIC)
            method = {
                Scheme.EULER: "euler",
                Scheme.LEAPFROG: "leapfrog",
                Scheme.SPV: "spv",
                Scheme.LIE_TROTTER: "lie_trotter",
                Scheme.SYMMETRIC: "symmetric",
                Scheme.MT3: "mt3",
            }[scheme]
            args = [r0[i], th0[i]] + [d[i] for d in draws]
            want = getattr(oracle, method)(*args)
            assert out.r[i] == pytest.approx(want[0], rel=1e-12, abs=1e-13)
            assert out.theta[i] == pytest.approx(want[1], rel=1e-12, abs=1e-13)


class TestNoiseContract:
    """A stepper reads every draw `noise_draws` promises."""

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_every_draw_moves_the_step(self, scheme):
        spec = IntegratorSpec(scheme, eta=ETA, friction=FRIC, n_inner=2,
                              v_hat=0.4 if scheme is Scheme.SGHMC else 0.0)
        stepper = compile_step(spec)
        r0, th0 = np.array([R0, -0.2]), np.array([TH0, 0.6])
        grad = lambda th: LAM * (th - CEN)
        hess = lambda th, v: LAM * v
        noise = [np.array([0.37, -1.2]), np.array([0.15, 0.9])][:noise_draws(scheme)]
        base = stepper(r0, th0, grad, hess, noise)
        for k in range(len(noise)):
            moved = list(noise)
            moved[k] = noise[k] + 0.5
            out = stepper(r0, th0, grad, hess, moved)
            assert not np.array_equal(out[0], base[0]), f"draw {k} unused"


class TestIdentitiesAndReductions:
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_zero_step_is_identity(self, scheme):
        spec = scalar_spec(scheme, eta=0.0)
        z = State(r=np.array([R0]), theta=np.array([TH0]))
        rng = RngStream(0, 0)
        out = step(z, quad_grad(), spec, rng, hess=quad_hess())
        assert out.r[0] == R0
        assert out.theta[0] == TH0

    @given(st.floats(-3, 3), st.floats(-3, 3))
    @settings(max_examples=20, deadline=None)
    def test_zero_step_identity_property(self, r0, th0):
        for scheme in (Scheme.LEAPFROG, Scheme.MT3, Scheme.SPV):
            spec = scalar_spec(scheme, eta=0.0)
            z = State(r=np.array([r0]), theta=np.array([th0]))
            out = step(z, quad_grad(), spec, RngStream(1, 1), hess=quad_hess())
            assert out.r[0] == r0 and out.theta[0] == th0

    @pytest.mark.parametrize("scheme", [Scheme.EULER, Scheme.LEAPFROG])
    def test_free_flight(self, scheme):
        spec = scalar_spec(scheme, C=0.0, eta=0.4)
        z = State(r=np.array([1.5]), theta=np.array([2.0]))
        out = step(z, lambda th: np.zeros_like(th), spec, QueuedRng([[0.0]]))
        assert out.theta[0] == pytest.approx(2.0 + 0.4 * 1.5, rel=1e-15)
        assert out.r[0] == pytest.approx(1.5, rel=1e-15)

    def test_leapfrog_hand_example(self):
        # U = theta^2/2, M=I, C=0, eta=0.1 from (r, theta) = (0, 1)
        spec = scalar_spec(Scheme.LEAPFROG, eta=0.1, C=0.0)
        z = State(r=np.array([0.0]), theta=np.array([1.0]))
        out = step(z, lambda th: th, spec, QueuedRng([[0.0]]))
        assert out.r[0] == pytest.approx(-0.1, rel=1e-15)
        assert out.theta[0] == pytest.approx(0.995, rel=1e-15)

    def test_euler_hand_example(self):
        spec = scalar_spec(Scheme.EULER, eta=0.1, C=0.0)
        z = State(r=np.array([0.0]), theta=np.array([1.0]))
        out = step(z, lambda th: th, spec, QueuedRng([[0.0]]))
        assert out.r[0] == pytest.approx(-0.1, rel=1e-15)
        assert out.theta[0] == pytest.approx(1.0, rel=1e-15)

    def test_spv_frictionless_limit_equals_deterministic_leapfrog(self):
        grad = quad_grad()
        z = State(r=np.array([R0]), theta=np.array([TH0]))
        spv0 = step(z, grad, scalar_spec(Scheme.SPV, C=0.0), QueuedRng([[0.0]]))
        lt0 = step(
            z, grad, scalar_spec(Scheme.LIE_TROTTER, C=0.0), QueuedRng([[0.0]])
        )
        assert spv0.r[0] == lt0.r[0]
        assert spv0.theta[0] == lt0.theta[0]
        # tiny friction stays within series accuracy of the limit
        spv_eps = step(z, grad, scalar_spec(Scheme.SPV, C=1e-12), QueuedRng([[0.0]]))
        assert spv_eps.r[0] == pytest.approx(lt0.r[0], abs=1e-10)

    def test_symmetric_frictionless_reduces_to_leapfrog(self):
        grad = quad_grad()
        z = State(r=np.array([R0]), theta=np.array([TH0]))
        sym = step(z, grad, scalar_spec(Scheme.SYMMETRIC, C=0.0),
                   QueuedRng([[3.0], [-4.0]]))
        lt = step(z, grad, scalar_spec(Scheme.LIE_TROTTER, C=0.0), QueuedRng([[0.0]]))
        assert sym.r[0] == lt.r[0]
        assert sym.theta[0] == lt.theta[0]

    def test_sghmc_vhat_zero_bit_identical_to_leapfrog(self):
        z = State(r=np.array([R0]), theta=np.array([TH0]))
        a = step(z, quad_grad(), scalar_spec(Scheme.SGHMC, v_hat=0.0), RngStream(21, 0))
        b = step(z, quad_grad(), scalar_spec(Scheme.LEAPFROG), RngStream(21, 0))
        assert a.r[0] == b.r[0] and a.theta[0] == b.theta[0]

    def test_sghmc_vhat_equal_friction_is_deterministic(self):
        spec = scalar_spec(Scheme.SGHMC, v_hat=FRIC)
        z = State(r=np.array([R0]), theta=np.array([TH0]))
        outs = {
            step(z, quad_grad(), spec, RngStream(s, 0)).r[0] for s in (1, 2, 3)
        }
        assert len(outs) == 1

    def test_sghmc_noise_std_value(self):
        # eta=0.01, C=5, v_hat=1 -> injected std sqrt(0.08)
        spec = scalar_spec(Scheme.SGHMC, eta=0.01, C=5.0, v_hat=1.0)
        z = State(r=np.array([0.0]), theta=np.array([0.0]))
        out = step(z, lambda th: np.zeros_like(th), spec, QueuedRng([[1.0]]))
        assert out.r[0] == pytest.approx(np.sqrt(0.08), rel=1e-12)
        assert out.r[0] == pytest.approx(0.28284, rel=1e-4)

    def test_mt3_zero_forcing_zero_friction(self):
        spec = scalar_spec(Scheme.MT3, C=0.0, eta=0.3)
        z = State(r=np.array([1.2]), theta=np.array([0.5]))
        out = step(z, lambda th: np.zeros_like(th), spec,
                   QueuedRng([[5.0], [7.0]]), hess=lambda th, v: np.zeros_like(v))
        assert out.theta[0] == pytest.approx(0.5 + 0.3 * 1.2, rel=1e-15)
        assert out.r[0] == pytest.approx(1.2, rel=1e-15)

    def test_mt3_stage_one_multiplier_arithmetic(self):
        assert 1.0 / (1.0 + (7.0 / 24.0) * 0.1 * 2.0) == pytest.approx(
            0.944882, abs=5e-7
        )


class TestOuExact:
    def test_zero_time_identity(self):
        out = spv_momentum(
            np.array([1.0]), np.array([0.3]), 0.0, 1.0,
            QueuedRng([[9.0]]),
        )
        assert out[0] == 1.0

    def test_frozen_noise_closed_form(self):
        out = spv_momentum(
            np.array([1.0]), np.zeros(1), 0.5, 1.0,
            QueuedRng([[0.0]]),
        )
        assert out[0] == pytest.approx(np.exp(-0.5), rel=1e-12)
        assert out[0] == pytest.approx(0.60653, abs=5e-6)
        shifted = spv_momentum(
            np.array([1.0]), np.zeros(1), 0.5, 1.0,
            QueuedRng([[1.0]]),
        )
        assert shifted[0] - out[0] == pytest.approx(np.sqrt(-np.expm1(-1.0)), rel=1e-12)
        assert shifted[0] - out[0] == pytest.approx(0.79506, abs=5e-6)

    def test_frictionless_limit(self):
        # the step still draws its noise, which the zero friction zeroes
        out = spv_momentum(
            np.array([2.0]), np.array([0.5]), 0.3, 0.0,
            QueuedRng([[9.0]]),
        )
        assert out[0] == pytest.approx(2.0 - 0.3 * 0.5, rel=1e-15)

    def test_long_time_reaches_stationary_law(self):
        d = 1_000_000
        rng = RngStream(99, 0)
        out = spv_momentum(np.full(d, 3.0), np.zeros(d), 50.0, 1.0, rng)
        assert abs(np.mean(out)) < 4.0 * np.sqrt(1.0 / d)
        assert abs(np.var(out) - 1.0) < 4.0 * np.sqrt(2.0 / d)

    def test_semigroup_mean_and_variance(self):
        C, r0 = 1.7, 0.9
        f = np.array([0.0])

        def coeffs(eta):
            mean = spv_momentum(np.array([r0]), f, eta, C, QueuedRng([[0.0]]))[0]
            hi = spv_momentum(np.array([r0]), f, eta, C, QueuedRng([[1.0]]))[0]
            return mean, hi - mean

        m1, s1 = coeffs(0.3)
        # propagate the first step's output mean through the second step
        m12 = spv_momentum(np.array([m1]), f, 0.5, C, QueuedRng([[0.0]]))[0]
        _, s2 = coeffs(0.5)
        decay2 = np.exp(-C * 0.5)
        var12 = (s1 * decay2) ** 2 + s2**2
        m_direct, s_direct = coeffs(0.8)
        assert m12 == pytest.approx(m_direct, rel=1e-14)
        assert var12 == pytest.approx(s_direct**2, abs=1e-12)


class TestEquivalenceAndAlpha:
    def test_hmc_bit_identical_to_lie_trotter(self):
        z = State(r=np.array([R0, -0.3]), theta=np.array([TH0, 0.8]))
        grad = lambda th: 1.3 * (th - 0.4)
        for n_inner in (1, 4):
            a = step(
                z, grad,
                IntegratorSpec(Scheme.HMC_PARTIAL, ETA, FRIC, n_inner=n_inner),
                RngStream(77, 5),
            )
            b = step(
                z, grad,
                IntegratorSpec(Scheme.LIE_TROTTER, ETA, FRIC, n_inner=n_inner),
                RngStream(77, 5),
            )
            np.testing.assert_array_equal(a.r, b.r)
            np.testing.assert_array_equal(a.theta, b.theta)

    def test_alpha_value(self):
        # with no force and no noise the refresh leaves r' = alpha r,
        # alpha = exp(-eta n_inner C)
        spec = scalar_spec(Scheme.HMC_PARTIAL, eta=0.01, C=5.0, n_inner=10)
        z = State(r=np.array([1.0]), theta=np.array([TH0]))
        alpha = step(z, lambda th: np.zeros_like(th), spec, QueuedRng([[0.0]])).r[0]
        assert alpha == pytest.approx(np.exp(-0.5), rel=1e-15)
        assert alpha == pytest.approx(0.60653, abs=5e-6)

    def test_alpha_one_is_pure_leapfrog_loop(self):
        spec = scalar_spec(Scheme.HMC_PARTIAL, C=0.0, n_inner=3)
        z = State(r=np.array([R0]), theta=np.array([TH0]))
        out = step(z, quad_grad(), spec, QueuedRng([[123.0]]))
        r, th = np.array([R0]), np.array([TH0])
        for _ in range(3):
            th_half = th + ETA / 2 * r
            r = r - ETA * quad_grad()(th_half)
            th = th_half + ETA / 2 * r
        assert out.r[0] == pytest.approx(r[0], rel=1e-15)
        assert out.theta[0] == pytest.approx(th[0], rel=1e-15)

    def test_alpha_zero_limit_full_resample(self):
        # enormous friction: retained momentum is numerically zero
        spec = scalar_spec(Scheme.HMC_PARTIAL, C=1e4, eta=0.1)
        z = State(r=np.array([5.0]), theta=np.array([0.0]))
        out = step(z, lambda th: np.zeros_like(th), spec, QueuedRng([[W0]]))
        assert out.r[0] == pytest.approx(W0, rel=1e-12)

    def test_shadow_energy_drift_of_inner_leapfrog(self):
        # 1000 frictionless sub-steps at eta=0.01 on U = theta^2/2
        spec = scalar_spec(Scheme.LIE_TROTTER, eta=0.01, C=0.0, n_inner=1000)
        z = State(r=np.array([0.0]), theta=np.array([1.0]))
        out = step(z, lambda th: th, spec, QueuedRng([[0.0]]))
        energy = lambda s: 0.5 * s.theta[0] ** 2 + 0.5 * s.r[0] ** 2
        assert abs(energy(out) - energy(z)) < 1e-3


class TestSymmetricLaw:
    def test_zero_gradient_matches_full_ou_moments(self):
        # two half refreshes must equal one full OU step in law
        d = 1_000_000
        C, eta, r0 = 1.7, 0.5, 1.1
        spec = IntegratorSpec(Scheme.SYMMETRIC, eta, C)
        z = State(r=np.full(d, r0), theta=np.zeros(d))
        out = step(z, lambda th: np.zeros_like(th), spec, RngStream(13, 2))
        mean = np.exp(-C * eta) * r0
        var = -np.expm1(-2 * C * eta)
        assert abs(np.mean(out.r) - mean) < 4 * np.sqrt(var / d)
        assert abs(np.var(out.r) - var) < 4 * var * np.sqrt(2.0 / d)


class TestValidationAndDivergence:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            IntegratorSpec(Scheme.LEAPFROG, eta=-0.1, friction=1.0)
        with pytest.raises(ValueError):
            IntegratorSpec(Scheme.LEAPFROG, eta=0.1, friction=-1.0)
        with pytest.raises(ValueError):
            IntegratorSpec(Scheme.LIE_TROTTER, eta=0.1, friction=1.0, n_inner=0)
        with pytest.raises(ValueError):
            IntegratorSpec(Scheme.SGHMC, eta=0.1, friction=1.0, v_hat=1.5)
        # every scheme checks v_hat, though only SGHMC uses it
        for scheme, v_hat in itertools.product((Scheme.SGHMC, Scheme.LEAPFROG),
                                               (np.nan, np.inf, -np.inf, -0.5)):
            with pytest.raises(ValueError, match="v_hat must be finite and >= 0"):
                IntegratorSpec(scheme, eta=0.1, friction=1.0, v_hat=v_hat)
        spec = IntegratorSpec("leapfrog", eta=0.1, friction=1.0)
        assert spec.scheme is Scheme.LEAPFROG

    def test_mt3_requires_hessian(self):
        spec = scalar_spec(Scheme.MT3)
        z = State(r=np.array([0.0]), theta=np.array([0.0]))
        with pytest.raises(ValueError):
            step(z, quad_grad(), spec, RngStream(0, 0))

    def test_nonfinite_gradient_raises_divergence(self):
        spec = scalar_spec(Scheme.LEAPFROG)
        z = State(r=np.array([0.0]), theta=np.array([0.0]))
        with pytest.raises(DivergenceError) as err:
            step(z, lambda th: np.array([np.nan]), spec, RngStream(0, 0))
        assert err.value.scheme is Scheme.LEAPFROG

    def test_unstable_blowup_raises_eventually(self):
        # eta far beyond the stability limit on a stiff quadratic
        spec = scalar_spec(Scheme.LEAPFROG, eta=10.0, C=0.1)
        z = State(r=np.array([0.1]), theta=np.array([1.0]))
        rng = RngStream(4, 0)
        with pytest.raises(DivergenceError), np.errstate(over="ignore", invalid="ignore"):
            for _ in range(10_000):
                z = step(z, lambda th: 1e3 * th, spec, rng)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_seed_determinism(self, scheme):
        spec = scalar_spec(scheme)
        z = State(r=np.array([R0]), theta=np.array([TH0]))
        a = step(z, quad_grad(), spec, RngStream(31, 7), hess=quad_hess())
        b = step(z, quad_grad(), spec, RngStream(31, 7), hess=quad_hess())
        assert a.r[0] == b.r[0] and a.theta[0] == b.theta[0]


def _kernel_spec(scheme, eta, C, v_frac=0.4):
    multi = scheme in (Scheme.LIE_TROTTER, Scheme.HMC_PARTIAL)
    return IntegratorSpec(scheme, eta=eta, friction=C, n_inner=3 if multi else 1,
                          v_hat=v_frac * C if scheme is Scheme.SGHMC else 0.0)


def _row_specs(scheme, R, rng):
    """R specs of one scheme whose rows differ in eta, friction and v_hat;
    with R > 1, row 1 is frictionless (SPV's kick then takes its x = 0
    branch)."""
    return [_kernel_spec(scheme, rng.uniform(0.01, 0.6),
                         0.0 if c == 1 else rng.uniform(0.1, 4.0), rng.uniform(0.0, 1.0))
            for c in range(R)]


def _nonlinear_grad_hess(d, rng):
    lam = rng.uniform(0.3, 3.0, d)
    cen = rng.normal(size=d)
    return (lambda th: lam * (th - cen) + 0.2 * np.sin(th),
            lambda th, v: lam * v + 0.2 * np.cos(th) * v)


class TestSteppersMatchReferenceFormulas:
    """Every scheme's in-place chunk stepper gives, bit for bit, what its
    formulas written as fresh-array expressions give: for one chain, and for
    each row of an ensemble whose rows differ in eta, friction and v_hat.
    The spec carries no dimension, so each check runs at d = 1, where a
    (d,) constant and a state row broadcast alike, and at a d > 1."""

    @pytest.mark.parametrize("d", [1, 5], ids=lambda d: f"d{d}")
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_single_chain_matches_reference_formulas(self, scheme, d):
        rng = np.random.default_rng(17)
        grad, hess = _nonlinear_grad_hess(d, rng)
        for trial in range(20):
            spec, = _row_specs(scheme, 1, rng)
            want_step = reference_kernel(scheme, spec.n_inner,
                                         integrators_module._constants(spec, d))
            r, th = (3.0 * rng.normal(size=d) for _ in range(2))
            noise = [rng.normal(size=d) for _ in range(noise_draws(scheme))]
            got = compile_step(spec)(r, th, grad, hess, noise)
            want = want_step(r, th, grad, hess, noise)
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("d", [1, 3], ids=lambda d: f"d{d}")
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_ensemble_rows_match_reference_formulas(self, scheme, d):
        # row c of an ensemble step equals chain c's step by the reference
        # formulas, each row with its own spec's constants
        R = 4
        rng = np.random.default_rng(29)
        grad, hess = _nonlinear_grad_hess(d, rng)
        specs = _row_specs(scheme, R, rng)
        r, th = (3.0 * rng.normal(size=(R, d)) for _ in range(2))
        noise = [rng.normal(size=(R, d)) for _ in range(noise_draws(scheme))]
        got_r, got_th = np.empty((1, R, d)), np.empty((1, R, d))
        compile_ensemble_step(specs, d)(r, th, lambda j, x: grad(x), lambda j, x, v: hess(x, v),
                                     np.stack(noise)[:, None], got_r, got_th)
        for c, spec in enumerate(specs):
            want_r, want_th = reference_kernel(
                scheme, spec.n_inner, integrators_module._constants(spec, d))(
                r[c], th[c], grad, hess, [w[c] for w in noise])
            assert got_r[0, c].tobytes() == want_r.tobytes()
            assert got_th[0, c].tobytes() == want_th.tobytes()

    # the chunk stepper as the chain loop drives it: two chunk calls, the
    # second from the first's last state, each step written into its rows of
    # the chunk's preallocated arrays, with step-indexed providers that, like
    # a potential's, return one array they overwrite on every call. One
    # chain steps d-vectors, an ensemble (R, d) rows; the product a step
    # keeps for the next crosses the boundary
    @pytest.mark.parametrize("d", [1, 3], ids=lambda d: f"d{d}")
    @pytest.mark.parametrize("R", [1, 4], ids=["single-chain", "ensemble"])
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_buffer_steps_match_reference_formulas(self, scheme, R, d):
        chunks = (5, 4)
        rng = np.random.default_rng(41)
        grad, hess = _nonlinear_grad_hess(d, rng)
        specs = _row_specs(scheme, R, rng)
        shape = (d,) if R == 1 else (R, d)
        g_buf, h_buf, seen = np.empty(shape), np.empty(shape), []

        def grad_rows(j, x):
            seen.append(j)
            g_buf[...] = grad(x)
            return g_buf

        def hess_rows(j, x, v):
            h_buf[...] = hess(x, v)
            return h_buf

        r0, th0 = (3.0 * rng.normal(size=shape) for _ in range(2))
        noise = rng.normal(size=(noise_draws(scheme), sum(chunks)) + shape)
        stepper = compile_ensemble_step(specs, d)
        r, th, got, lo = r0, th0, [], 0
        for m in chunks:
            rs, ths = np.empty((m,) + shape), np.empty((m,) + shape)
            stepper(r, th, grad_rows, hess_rows, noise[:, lo:lo + m].copy(), rs, ths)
            got.extend(zip(rs, ths))
            r, th, lo = rs[-1], ths[-1], lo + m
        # every step asks its own providers, in step order
        assert sorted(set(seen)) == list(range(max(chunks)))
        for c, spec in enumerate(specs):
            row = (lambda a: a) if R == 1 else (lambda a: a[c])
            want_step = reference_kernel(scheme, spec.n_inner,
                                         integrators_module._constants(spec, d))
            r, th = row(r0), row(th0)
            for j in range(sum(chunks)):
                r, th = want_step(r, th, grad, hess, [row(w) for w in noise[:, j]])
                assert row(got[j][0]).tobytes() == r.tobytes()
                assert row(got[j][1]).tobytes() == th.tobytes()
            # compile_step is a chunk of one step, and leaves its noise be
            draws = [row(w).copy() for w in noise[:, 0]]
            one = compile_step(spec)(row(r0), row(th0), grad, hess, draws)
            assert one[0].tobytes() == row(got[0][0]).tobytes()
            assert one[1].tobytes() == row(got[0][1]).tobytes()
            assert all(w.tobytes() == row(v).tobytes() for w, v in zip(draws, noise[:, 0]))

    # a chunk allocates nothing per step: its traced peak over 1,024 steps
    # is that of 64 steps, give or take a few KiB of interpreter noise
    @pytest.mark.parametrize("R", [1, 4], ids=["single-chain", "ensemble"])
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_chunk_allocates_nothing_per_step(self, scheme, R):
        import tracemalloc

        d = 3
        rng = np.random.default_rng(7)
        specs = [_kernel_spec(scheme, 0.1, 1.0)] * R
        shape = (d,) if R == 1 else (R, d)
        stepper = compile_ensemble_step(specs, d)
        g_buf, h_buf = np.empty(shape), np.empty(shape)

        def grad(j, x):
            return np.negative(x, g_buf)

        def hess(j, x, v):
            return np.negative(v, h_buf)

        r, th = np.zeros(shape), np.ones(shape)
        peaks = []
        for m in (64, 1024):
            noise = rng.normal(size=(noise_draws(scheme), m) + shape)
            rs, ths = np.empty((m,) + shape), np.empty((m,) + shape)
            stepper(r, th, grad, hess, noise.copy(), rs, ths)
            tracemalloc.start()
            try:
                stepper(r, th, grad, hess, noise, rs, ths)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 4096, peaks

    def test_ensemble_specs_must_share_scheme_and_n_inner(self):
        base = IntegratorSpec(Scheme.LIE_TROTTER, eta=0.1, friction=1.0, n_inner=2)
        with pytest.raises(ValueError, match="at least one spec"):
            compile_ensemble_step([], 3)
        for other in (IntegratorSpec(Scheme.HMC_PARTIAL, eta=0.1, friction=1.0, n_inner=2),
                      IntegratorSpec(Scheme.LIE_TROTTER, eta=0.1, friction=1.0, n_inner=3)):
            with pytest.raises(ValueError, match="share scheme and n_inner"):
                compile_ensemble_step([base, other], 3)
        # step size, friction and v_hat may differ
        compile_ensemble_step([base, IntegratorSpec(Scheme.LIE_TROTTER, eta=0.3,
                                                    friction=0.5, n_inner=2)], 3)


class TestMt3LocalOrder:
    """One MT3 step on a 1-d quadratic (U = theta^2 / 2, C = 1) is
    affine, z' = J z + N xi. Compared with the exact flow over eta, e^{eta A}
    for the drift and the Van Loan covariance Q(eta) for the noise, its
    local errors fall as eta^4 in the drift and only as eta^3 in the noise.
    Weak order 3 needs local order 4 in both, so the noise part holds MT3
    below the third order its docstring states; this pins today's orders."""

    C = 1.0
    ETAS = [0.2, 0.1, 0.05, 0.025, 0.0125]

    def one_step_map(self, eta):
        # columns of J from unit vectors of z = (r, theta) with zero noise,
        # columns of N from unit vectors of the noise (w1, w2) at z = 0
        step = compile_step(IntegratorSpec(Scheme.MT3, eta, self.C))
        grad, hess = (lambda th: th), (lambda th, v: v)
        e, zero = np.eye(2), np.zeros(1)
        J = np.column_stack([np.concatenate(step(u[:1], u[1:], grad, hess, [zero, zero]))
                             for u in e])
        N = np.column_stack([np.concatenate(step(zero, zero, grad, hess, [u[:1], u[1:]]))
                             for u in e])
        return J, N

    def exact_flow(self, eta):
        from hsde.operator_lab import matrix_exp

        A = np.array([[-self.C, -1.0], [1.0, 0.0]])
        diffusion = np.diag([2.0 * self.C, 0.0])
        # Van Loan: exp(eta [[-A, BB^T], [0, A^T]]) holds e^{eta A^T} in its
        # lower right block F and e^{-eta A} Q(eta) in its upper right G
        E = matrix_exp(eta * np.block([[-A, diffusion], [np.zeros((2, 2)), A.T]]))
        return matrix_exp(eta * A), E[2:, 2:].T @ E[:2, 2:]

    def test_drift_order_four_noise_order_three(self):
        drift, noise = [], []
        for eta in self.ETAS:
            J, N = self.one_step_map(eta)
            expA, Q = self.exact_flow(eta)
            drift.append(np.abs(J - expA).max())
            noise.append(np.abs(N @ N.T - Q).max())
        orders = lambda err: np.diff(np.log(err)) / np.diff(np.log(self.ETAS))
        np.testing.assert_allclose(orders(drift), [3.787, 3.891, 3.945, 3.972], atol=0.005)
        np.testing.assert_allclose(orders(noise), [3.012, 3.006, 3.003, 3.002], atol=0.005)
