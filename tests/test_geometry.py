"""Tests for frozen-step Jacobians, determinant targets, and symplecticity."""

import numpy as np
import pytest

from hsde.core import MassMatrix, RngStream, State
from hsde.geometry import (
    FrozenStep,
    det_residual_leapfrog,
    det_residual_lie_trotter,
    det_target_leapfrog,
    det_target_lie_trotter,
    freeze_step,
    jacobian_fd,
    symplectic_form,
    symplectic_residual,
)
from hsde.integrators import IntegratorSpec, Scheme
from hsde.potentials import LinearGaussian, Logistic2D

ALL_SCHEMES = list(Scheme)


def quad_grad(theta):
    return theta


def quad_hess(theta, v):
    return v


def make_spec(scheme, d, eta=0.1, friction=1.7, n_inner=1):
    # the inner-loop-with-momentum-resample scheme requires unit mass
    if scheme is Scheme.HMC_PARTIAL:
        mass = MassMatrix.identity(d)
    else:
        mass = MassMatrix(np.linspace(1.0, 2.0, d))
    n_inner = n_inner if scheme in (Scheme.LIE_TROTTER, Scheme.HMC_PARTIAL) else 1
    return IntegratorSpec(scheme=scheme, eta=eta, friction=friction, mass=mass,
                          n_inner=n_inner)


def logistic_model():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(12, 2))
    y = (rng.uniform(size=12) < 0.5).astype(float)
    return Logistic2D(X, y)


def lingauss_model():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(9, 3))
    y = rng.normal(size=9)
    return LinearGaussian(X, y, noise_var=0.7, prior_var=1.5)


def leapfrog_affine_block(eta, friction, m):
    """Hand-derived single-coordinate Jacobian of one velocity-verlet step
    on U = theta^2/2: theta* = theta + a r, r' = r(1-X) - eta theta,
    theta' = theta(1 - a eta) + a(2-X) r, with a = eta/2m, X = eta^2/2m + eta C/m."""
    a = eta / (2.0 * m)
    X = eta**2 / (2.0 * m) + eta * friction / m
    return np.array([[1.0 - X, -eta], [a * (2.0 - X), 1.0 - a * eta]])


def euler_affine_block(eta, friction, m):
    return np.array([[1.0 - eta * friction / m, -eta], [eta / m, 1.0]])


def assemble_blocks(blocks):
    """Per-coordinate 2x2 blocks -> full Jacobian in [r, theta] ordering."""
    d = len(blocks)
    J = np.zeros((2 * d, 2 * d))
    for i, b in enumerate(blocks):
        J[i, i] = b[0, 0]
        J[i, d + i] = b[0, 1]
        J[d + i, i] = b[1, 0]
        J[d + i, d + i] = b[1, 1]
    return J


class TestFrozenStep:
    def test_repeat_calls_bitwise_identical(self):
        spec = make_spec(Scheme.LEAPFROG, 2)
        z0 = State(r=np.array([0.3, -0.1]), theta=np.array([1.0, 0.5]))
        F = freeze_step(spec, quad_grad, RngStream(0, 0), z0)
        r1, t1 = F(z0.r, z0.theta)
        r2, t2 = F(z0.r, z0.theta)
        np.testing.assert_array_equal(r1, r2)
        np.testing.assert_array_equal(t1, t2)

    def test_different_noise_same_jacobian(self):
        # additive noise shifts the map but never its linearization
        spec = make_spec(Scheme.LEAPFROG, 2)
        z0 = State(r=np.array([0.3, -0.1]), theta=np.array([1.0, 0.5]))
        Fa = freeze_step(spec, quad_grad, RngStream(0, 0), z0)
        Fb = freeze_step(spec, quad_grad, RngStream(99, 0), z0)
        assert not np.array_equal(Fa(z0.r, z0.theta)[0], Fb(z0.r, z0.theta)[0])
        Ja = jacobian_fd(Fa, z0)
        Jb = jacobian_fd(Fb, z0)
        np.testing.assert_allclose(Ja, Jb, atol=1e-9)

    def test_nonfinite_output_raises(self):
        spec = make_spec(Scheme.LEAPFROG, 1)
        z0 = State(r=np.array([0.0]), theta=np.array([1.0]))
        bad_grad = lambda th: th * np.inf
        F = freeze_step(spec, bad_grad, RngStream(0, 0), z0)
        with pytest.raises(ValueError):
            with np.errstate(invalid="ignore"):
                jacobian_fd(F, z0)

    @pytest.mark.parametrize("scheme, noise", [
        (Scheme.LEAPFROG, []),
        (Scheme.LEAPFROG, [np.zeros(2), np.zeros(2)]),
        (Scheme.SYMMETRIC, [np.zeros(2)]),
        (Scheme.MT3, [np.zeros(2)] * 3),
        (Scheme.LEAPFROG, [np.zeros(3)]),
        (Scheme.LEAPFROG, [np.zeros((1, 2))]),
        (Scheme.MT3, [np.zeros(2), np.zeros(1)]),
    ])
    def test_rejects_wrong_draw_count_or_shape(self, scheme, noise):
        with pytest.raises(ValueError, match="noise draws"):
            FrozenStep(make_spec(scheme, 2), quad_grad, noise, hess=quad_hess)

    def test_pins_the_draws_a_step_takes(self):
        # freeze_step draws the step's noise from the stream it is given
        spec = make_spec(Scheme.SYMMETRIC, 2)
        z0 = State(r=np.array([0.3, -0.1]), theta=np.array([1.0, 0.5]))
        F = freeze_step(spec, quad_grad, RngStream(5, 0), z0)
        rng = RngStream(5, 0)
        want = [rng.normal(2), rng.normal(2)]
        for got, w in zip(F.noise, want, strict=True):
            np.testing.assert_array_equal(got, w)


class TestJacobianFd:
    def test_identity_at_zero_step(self):
        z0 = State(r=np.array([0.4, -1.2]), theta=np.array([0.9, 0.1]))
        for scheme in ALL_SCHEMES:
            spec = make_spec(scheme, 2, eta=0.0)
            F = freeze_step(spec, quad_grad, RngStream(1, 0), z0,
                            hess=quad_hess)
            J = jacobian_fd(F, z0)
            np.testing.assert_allclose(J, np.eye(4), atol=1e-8, err_msg=str(scheme))

    @pytest.mark.parametrize("scheme,block_fn", [
        (Scheme.EULER, euler_affine_block),
        (Scheme.LEAPFROG, leapfrog_affine_block),
    ])
    def test_matches_hand_affine_coefficients(self, scheme, block_fn):
        eta, friction = 0.23, 1.7
        masses = [1.0, 2.0]
        spec = IntegratorSpec(scheme=scheme, eta=eta, friction=friction,
                              mass=MassMatrix(masses))
        z0 = State(r=np.array([0.7, -0.2]), theta=np.array([-0.9, 0.4]))
        F = freeze_step(spec, quad_grad, RngStream(2, 0), z0)
        J = jacobian_fd(F, z0)
        want = assemble_blocks([block_fn(eta, friction, m) for m in masses])
        np.testing.assert_allclose(J, want, atol=1e-6)

    def test_eps_bounds_enforced(self):
        spec = make_spec(Scheme.LEAPFROG, 1)
        z0 = State(r=np.array([0.0]), theta=np.array([0.0]))
        F = freeze_step(spec, quad_grad, RngStream(0, 0), z0)
        with pytest.raises(ValueError):
            jacobian_fd(F, z0, eps=1e-8)
        with pytest.raises(ValueError):
            jacobian_fd(F, z0, eps=1e-2)

    def test_richardson_consistency_all_schemes_all_models(self):
        models = {
            "quad": (quad_grad, quad_hess, 2),
            "lingauss": (None, None, 3),
            "logistic": (None, None, 2),
        }
        lg = lingauss_model()
        lo = logistic_model()
        models["lingauss"] = (lg.gradient, lambda th, v: lg.hessian_vec(th, v), 3)
        models["logistic"] = (lo.gradient, lambda th, v: lo.hessian_vec(th, v), 2)
        rng = np.random.default_rng(7)
        for name, (grad, hess, d) in models.items():
            z0 = State(r=rng.normal(size=d) * 0.3, theta=rng.normal(size=d) * 0.3)
            for scheme in ALL_SCHEMES:
                spec = make_spec(scheme, d, eta=0.1, n_inner=2)
                F = freeze_step(spec, grad, RngStream(3, 0), z0, hess=hess)
                J1 = jacobian_fd(F, z0, eps=1e-5)
                J2 = jacobian_fd(F, z0, eps=5e-6)
                assert np.abs(J1 - J2).max() < 1e-5, f"{name}/{scheme}"


class TestDeterminantTargets:
    def test_leapfrog_reference_value(self):
        spec = IntegratorSpec(scheme=Scheme.LEAPFROG, eta=0.1, friction=2.0,
                              mass=MassMatrix.identity(2))
        z0 = State(r=np.array([0.2, -0.4]), theta=np.array([0.6, 1.1]))
        F = freeze_step(spec, quad_grad, RngStream(4, 0), z0)
        J = jacobian_fd(F, z0)
        assert det_target_leapfrog(0.1, 2.0, spec.mass) == pytest.approx(0.64)
        assert det_residual_leapfrog(J, 0.1, 2.0, spec.mass) < 1e-6

    def test_leapfrog_frictionless_target_is_one(self):
        assert det_target_leapfrog(0.3, 0.0, MassMatrix(np.array([2.0, 0.5]))) == 1.0

    @pytest.mark.parametrize("model", ["quad", "logistic"])
    def test_leapfrog_det_independent_of_state(self, model):
        if model == "quad":
            grad = quad_grad
            d = 2
        else:
            lo = logistic_model()
            grad = lo.gradient
            d = 2
        spec = IntegratorSpec(scheme=Scheme.LEAPFROG, eta=0.12, friction=1.1,
                              mass=MassMatrix(np.array([1.0, 1.6])))
        target = det_target_leapfrog(0.12, 1.1, spec.mass)
        rng = np.random.default_rng(11)
        for _ in range(10):
            z0 = State(r=rng.normal(size=d), theta=rng.normal(size=d))
            F = freeze_step(spec, grad, RngStream(5, 0), z0)
            J = jacobian_fd(F, z0)
            assert abs(np.linalg.det(J) - target) < 1e-6

    def test_lie_trotter_reference_value(self):
        mass = MassMatrix.identity(1)
        spec = IntegratorSpec(scheme=Scheme.LIE_TROTTER, eta=0.1, friction=2.0,
                              mass=mass, n_inner=1)
        z0 = State(r=np.array([0.5]), theta=np.array([-0.3]))
        F = freeze_step(spec, quad_grad, RngStream(6, 0), z0)
        J = jacobian_fd(F, z0)
        assert det_target_lie_trotter(0.1, 2.0, mass, 1) == pytest.approx(
            np.exp(-0.2), rel=1e-12)
        assert det_residual_lie_trotter(J, 0.1, 2.0, mass, 1) < 1e-6

    def test_lie_trotter_multi_inner(self):
        mass = MassMatrix(np.array([1.0, 2.0]))
        spec = IntegratorSpec(scheme=Scheme.LIE_TROTTER, eta=0.05, friction=1.5,
                              mass=mass, n_inner=3)
        z0 = State(r=np.array([0.2, 0.1]), theta=np.array([0.4, -0.6]))
        F = freeze_step(spec, quad_grad, RngStream(7, 0), z0)
        J = jacobian_fd(F, z0)
        assert det_residual_lie_trotter(J, 0.05, 1.5, mass, 3) < 1e-6

    def test_lie_trotter_frictionless_target_is_one(self):
        assert det_target_lie_trotter(0.3, 0.0, MassMatrix.identity(3), 5) == 1.0

    def test_lie_trotter_target_matches_exact_flow_contraction(self):
        # over simulated time t = n_inner*eta the exact dynamics contract
        # phase volume by exp(-C tr(M^-1) t); the inner-loop target equals it
        mass = MassMatrix(np.array([1.3, 0.7, 2.2]))
        eta, friction, n_inner = 0.08, 1.9, 4
        t = n_inner * eta
        flow = np.exp(-friction * float(np.sum(mass.inv_diag)) * t)
        got = det_target_lie_trotter(eta, friction, mass, n_inner)
        assert got == pytest.approx(flow, rel=1e-14)

    def test_rejects_odd_jacobian(self):
        with pytest.raises(ValueError):
            det_residual_leapfrog(np.eye(3), 0.1, 1.0, MassMatrix.identity(1))


class TestSymplecticResidual:
    def test_form_squares_to_minus_identity(self):
        form = symplectic_form(3)
        np.testing.assert_array_equal(form @ form, -np.eye(6))
        np.testing.assert_array_equal(form.T, -form)

    def test_frictionless_leapfrog_is_symplectic(self):
        spec = IntegratorSpec(scheme=Scheme.LEAPFROG, eta=0.1, friction=0.0,
                              mass=MassMatrix(np.array([1.0, 1.7])))
        z0 = State(r=np.array([0.4, -0.2]), theta=np.array([0.8, 0.3]))
        F = freeze_step(spec, quad_grad, RngStream(8, 0), z0)
        assert symplectic_residual(jacobian_fd(F, z0)) < 1e-8

    def test_frictionless_explicit_step_is_not(self):
        spec = IntegratorSpec(scheme=Scheme.EULER, eta=0.1, friction=0.0,
                              mass=MassMatrix.identity(1))
        z0 = State(r=np.array([0.4]), theta=np.array([0.8]))
        F = freeze_step(spec, quad_grad, RngStream(9, 0), z0)
        res = symplectic_residual(jacobian_fd(F, z0))
        # for the 1-d quadratic the defect is exactly eta^2
        assert res > 1e-3
        assert res == pytest.approx(0.01, rel=1e-3)

    def test_explicit_defect_dominates_leapfrog_tenfold(self):
        z0 = State(r=np.array([0.4, 0.1]), theta=np.array([0.8, -0.5]))
        residuals = {}
        for scheme in (Scheme.EULER, Scheme.LEAPFROG):
            spec = IntegratorSpec(scheme=scheme, eta=0.1, friction=0.0,
                                  mass=MassMatrix.identity(2))
            F = freeze_step(spec, quad_grad, RngStream(10, 0), z0)
            residuals[scheme] = symplectic_residual(jacobian_fd(F, z0))
        assert residuals[Scheme.EULER] > 10 * residuals[Scheme.LEAPFROG]

    def test_leapfrog_residual_shrinks_with_friction(self):
        z0 = State(r=np.array([0.4]), theta=np.array([0.8]))
        res = []
        for friction in (1.0, 0.1, 0.01):
            spec = IntegratorSpec(scheme=Scheme.LEAPFROG, eta=0.1,
                                  friction=friction, mass=MassMatrix.identity(1))
            F = freeze_step(spec, quad_grad, RngStream(11, 0), z0)
            res.append(symplectic_residual(jacobian_fd(F, z0)))
        assert res[0] > res[1] > res[2]

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError):
            symplectic_residual(np.eye(3))
        with pytest.raises(ValueError):
            symplectic_residual(np.zeros((2, 4)))
