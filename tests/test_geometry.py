"""Tests for frozen-step Jacobians, determinant targets, and symplecticity."""

import numpy as np
import pytest

from hsde.core import MassMatrix, RngStream, State
from hsde.geometry import (
    det_target_leapfrog,
    det_target_lie_trotter,
    jacobian_fd,
    symplectic_form,
    symplectic_residual,
)
from hsde import repro
from hsde.integrators import DivergenceError, IntegratorSpec, Scheme, compile_step, noise_draws
from hsde.potentials import LinearGaussian, Logistic2D

from .oracles import reference_geom_states

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


def pinned(spec, rng, d):
    """One state's pinned step draws from rng, each (1, d)."""
    return [rng.normal(d)[None] for _ in range(noise_draws(spec.scheme))]


def jac(spec, grad, rng, z0, hess=None, eps=1e-5):
    """The Jacobian at the one state z0, its step's draws taken from rng."""
    z = np.concatenate([z0.r, z0.theta])[None]
    return jacobian_fd(spec, grad, hess, z, pinned(spec, rng, z0.dim), eps)[0]


class TestFrozenStep:
    def test_repeat_calls_bitwise_identical(self):
        spec = make_spec(Scheme.LEAPFROG, 2)
        z0 = State(r=np.array([0.3, -0.1]), theta=np.array([1.0, 0.5]))
        J1 = jac(spec, quad_grad, RngStream(0, 0), z0)
        J2 = jac(spec, quad_grad, RngStream(0, 0), z0)
        assert J1.tobytes() == J2.tobytes()

    def test_different_noise_same_jacobian(self):
        # additive noise shifts the map but never its linearization
        spec = make_spec(Scheme.LEAPFROG, 2)
        z0 = State(r=np.array([0.3, -0.1]), theta=np.array([1.0, 0.5]))
        na, nb = pinned(spec, RngStream(0, 0), 2), pinned(spec, RngStream(99, 0), 2)
        step = compile_step(spec)
        assert not np.array_equal(step(z0.r[None], z0.theta[None], quad_grad, None, na)[0],
                                  step(z0.r[None], z0.theta[None], quad_grad, None, nb)[0])
        Ja = jac(spec, quad_grad, RngStream(0, 0), z0)
        Jb = jac(spec, quad_grad, RngStream(99, 0), z0)
        np.testing.assert_allclose(Ja, Jb, atol=1e-9)

    def test_nonfinite_output_raises(self):
        spec = make_spec(Scheme.LEAPFROG, 1)
        z0 = State(r=np.array([0.0]), theta=np.array([1.0]))
        bad_grad = lambda th: th * np.inf
        with pytest.raises(DivergenceError, match="scheme=leapfrog eta=0.1"):
            with np.errstate(invalid="ignore"):
                jac(spec, bad_grad, RngStream(0, 0), z0)

    @pytest.mark.parametrize("scheme, noise", [
        (Scheme.LEAPFROG, []),
        (Scheme.LEAPFROG, [np.zeros((1, 2)), np.zeros((1, 2))]),
        (Scheme.SYMMETRIC, [np.zeros((1, 2))]),
        (Scheme.MT3, [np.zeros((1, 2))] * 3),
        (Scheme.LEAPFROG, [np.zeros((1, 3))]),
        (Scheme.LEAPFROG, [np.zeros(2)]),
        (Scheme.MT3, [np.zeros((1, 2)), np.zeros((1, 1))]),
    ])
    def test_rejects_wrong_draw_count_or_shape(self, scheme, noise):
        with pytest.raises(ValueError, match="noise draws"):
            jacobian_fd(make_spec(scheme, 2), quad_grad, quad_hess, np.zeros((1, 4)), noise)

    def test_pins_the_draws_a_step_takes(self):
        # every point of the difference is stepped with the state's draws:
        # on a nonquadratic potential the draws move the Jacobian, and it
        # equals the one built column by column from steps with those draws
        model = logistic_model()
        spec = make_spec(Scheme.SYMMETRIC, 2)
        z = np.array([[0.3, -0.1, 1.0, 0.5]])
        noise = pinned(spec, RngStream(5, 0), 2)
        J = jacobian_fd(spec, model.gradient_many, model.hessian_vec_many, z, noise)[0]
        other = jacobian_fd(spec, model.gradient_many, model.hessian_vec_many, z,
                            pinned(spec, RngStream(6, 0), 2))[0]
        assert not np.array_equal(J, other)
        step = compile_step(spec)
        for c in range(4):
            ends = []
            for sign in (1.0, -1.0):
                pt = z.copy()
                pt[0, c] += sign * 1e-5
                ends.append(np.concatenate(step(pt[:, :2], pt[:, 2:], model.gradient_many,
                                                model.hessian_vec_many, noise), axis=1)[0])
            assert ((ends[0] - ends[1]) / 2e-5).tobytes() == J[:, c].tobytes()


class TestJacobianFd:
    def test_identity_at_zero_step(self):
        z0 = State(r=np.array([0.4, -1.2]), theta=np.array([0.9, 0.1]))
        for scheme in ALL_SCHEMES:
            spec = make_spec(scheme, 2, eta=0.0)
            J = jac(spec, quad_grad, RngStream(1, 0), z0, hess=quad_hess)
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
        J = jac(spec, quad_grad, RngStream(2, 0), z0)
        want = assemble_blocks([block_fn(eta, friction, m) for m in masses])
        np.testing.assert_allclose(J, want, atol=1e-6)

    def test_eps_bounds_enforced(self):
        spec = make_spec(Scheme.LEAPFROG, 1)
        z0 = State(r=np.array([0.0]), theta=np.array([0.0]))
        with pytest.raises(ValueError):
            jac(spec, quad_grad, RngStream(0, 0), z0, eps=1e-8)
        with pytest.raises(ValueError):
            jac(spec, quad_grad, RngStream(0, 0), z0, eps=1e-2)

    def test_richardson_consistency_all_schemes_all_models(self):
        models = {
            "quad": (quad_grad, quad_hess, 2),
            "lingauss": (None, None, 3),
            "logistic": (None, None, 2),
        }
        lg = lingauss_model()
        lo = logistic_model()
        models["lingauss"] = (lg.gradient_many, lg.hessian_vec_many, 3)
        models["logistic"] = (lo.gradient_many, lo.hessian_vec_many, 2)
        rng = np.random.default_rng(7)
        for name, (grad, hess, d) in models.items():
            z0 = State(r=rng.normal(size=d) * 0.3, theta=rng.normal(size=d) * 0.3)
            for scheme in ALL_SCHEMES:
                spec = make_spec(scheme, d, eta=0.1, n_inner=2)
                J1 = jac(spec, grad, RngStream(3, 0), z0, hess=hess, eps=1e-5)
                J2 = jac(spec, grad, RngStream(3, 0), z0, hess=hess, eps=5e-6)
                assert np.abs(J1 - J2).max() < 1e-5, f"{name}/{scheme}"


class TestDeterminantTargets:
    def test_leapfrog_reference_value(self):
        spec = IntegratorSpec(scheme=Scheme.LEAPFROG, eta=0.1, friction=2.0,
                              mass=MassMatrix.identity(2))
        z0 = State(r=np.array([0.2, -0.4]), theta=np.array([0.6, 1.1]))
        J = jac(spec, quad_grad, RngStream(4, 0), z0)
        assert det_target_leapfrog(0.1, 2.0, spec.mass) == pytest.approx(0.64)
        assert abs(np.linalg.det(J) - det_target_leapfrog(0.1, 2.0, spec.mass)) < 1e-6

    def test_leapfrog_frictionless_target_is_one(self):
        assert det_target_leapfrog(0.3, 0.0, MassMatrix(np.array([2.0, 0.5]))) == 1.0

    @pytest.mark.parametrize("model", ["quad", "logistic"])
    def test_leapfrog_det_independent_of_state(self, model):
        if model == "quad":
            grad = quad_grad
            d = 2
        else:
            lo = logistic_model()
            grad = lo.gradient_many
            d = 2
        spec = IntegratorSpec(scheme=Scheme.LEAPFROG, eta=0.12, friction=1.1,
                              mass=MassMatrix(np.array([1.0, 1.6])))
        target = det_target_leapfrog(0.12, 1.1, spec.mass)
        rng = np.random.default_rng(11)
        for _ in range(10):
            z0 = State(r=rng.normal(size=d), theta=rng.normal(size=d))
            J = jac(spec, grad, RngStream(5, 0), z0)
            assert abs(np.linalg.det(J) - target) < 1e-6

    def test_lie_trotter_reference_value(self):
        mass = MassMatrix.identity(1)
        spec = IntegratorSpec(scheme=Scheme.LIE_TROTTER, eta=0.1, friction=2.0,
                              mass=mass, n_inner=1)
        z0 = State(r=np.array([0.5]), theta=np.array([-0.3]))
        J = jac(spec, quad_grad, RngStream(6, 0), z0)
        assert det_target_lie_trotter(0.1, 2.0, mass, 1) == pytest.approx(
            np.exp(-0.2), rel=1e-12)
        assert abs(np.linalg.det(J) - det_target_lie_trotter(0.1, 2.0, mass, 1)) < 1e-6

    def test_lie_trotter_multi_inner(self):
        mass = MassMatrix(np.array([1.0, 2.0]))
        spec = IntegratorSpec(scheme=Scheme.LIE_TROTTER, eta=0.05, friction=1.5,
                              mass=mass, n_inner=3)
        z0 = State(r=np.array([0.2, 0.1]), theta=np.array([0.4, -0.6]))
        J = jac(spec, quad_grad, RngStream(7, 0), z0)
        assert abs(np.linalg.det(J) - det_target_lie_trotter(0.05, 1.5, mass, 3)) < 1e-6

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
            symplectic_residual(np.eye(3))


class TestSymplecticResidual:
    def test_form_squares_to_minus_identity(self):
        form = symplectic_form(3)
        np.testing.assert_array_equal(form @ form, -np.eye(6))
        np.testing.assert_array_equal(form.T, -form)

    def test_frictionless_leapfrog_is_symplectic(self):
        spec = IntegratorSpec(scheme=Scheme.LEAPFROG, eta=0.1, friction=0.0,
                              mass=MassMatrix(np.array([1.0, 1.7])))
        z0 = State(r=np.array([0.4, -0.2]), theta=np.array([0.8, 0.3]))
        assert symplectic_residual(jac(spec, quad_grad, RngStream(8, 0), z0)) < 1e-8

    def test_frictionless_explicit_step_is_not(self):
        spec = IntegratorSpec(scheme=Scheme.EULER, eta=0.1, friction=0.0,
                              mass=MassMatrix.identity(1))
        z0 = State(r=np.array([0.4]), theta=np.array([0.8]))
        res = symplectic_residual(jac(spec, quad_grad, RngStream(9, 0), z0))
        # for the 1-d quadratic the defect is exactly eta^2
        assert res > 1e-3
        assert res == pytest.approx(0.01, rel=1e-3)

    def test_explicit_defect_dominates_leapfrog_tenfold(self):
        z0 = State(r=np.array([0.4, 0.1]), theta=np.array([0.8, -0.5]))
        residuals = {}
        for scheme in (Scheme.EULER, Scheme.LEAPFROG):
            spec = IntegratorSpec(scheme=scheme, eta=0.1, friction=0.0,
                                  mass=MassMatrix.identity(2))
            residuals[scheme] = symplectic_residual(jac(spec, quad_grad, RngStream(10, 0), z0))
        assert residuals[Scheme.EULER] > 10 * residuals[Scheme.LEAPFROG]

    def test_leapfrog_residual_shrinks_with_friction(self):
        z0 = State(r=np.array([0.4]), theta=np.array([0.8]))
        res = []
        for friction in (1.0, 0.1, 0.01):
            spec = IntegratorSpec(scheme=Scheme.LEAPFROG, eta=0.1,
                                  friction=friction, mass=MassMatrix.identity(1))
            res.append(symplectic_residual(jac(spec, quad_grad, RngStream(11, 0), z0)))
        assert res[0] > res[1] > res[2]

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError):
            symplectic_residual(np.eye(3))
        with pytest.raises(ValueError):
            symplectic_residual(np.zeros((2, 4)))


# the schemes `hsde geom` probes, and its three models
GEOM_SCHEMES = [Scheme.EULER, Scheme.LEAPFROG, Scheme.SGHMC, Scheme.SPV,
                Scheme.SYMMETRIC, Scheme.LIE_TROTTER, Scheme.HMC_PARTIAL]
GEOM_MODELS = ["lingauss", "toy", "logistic2d"]


def probe_stack(spec, potential, seed, states):
    """The probe states and pinned draws the geom command builds: r then
    theta of each state from one draw on stream (seed, 1), its step's draws
    on stream (seed, 4 idx), as (states, 2d) and (n_draws, states, d)."""
    d = potential.dim
    z = RngStream(seed, 1).normal(2 * d * states).reshape(states, 2 * d)
    n_draws = noise_draws(spec.scheme)
    noise = np.stack([RngStream(seed, 4 * idx).normal(n_draws * d).reshape(n_draws, d)
                      for idx in range(states)], axis=1)
    return z, noise


class TestProbeStack:
    # the partial-refresh scheme takes unit mass only
    @pytest.mark.parametrize("scheme, model, unit_mass", [
        pytest.param(s, m, unit, id=f"{s.value}-{m}-{'unit' if unit else 'mass'}")
        for s in GEOM_SCHEMES for m in GEOM_MODELS for unit in (True, False)
        if unit or s is not Scheme.HMC_PARTIAL])
    def test_stacks_match_the_per_state_loop(self, scheme, model, unit_mass):
        potential = repro.build_model(model, 1)
        d = potential.dim
        mass = (MassMatrix.identity(d) if unit_mass
                else MassMatrix(np.linspace(0.6, 1.9, d) if d > 1 else [1.7]))
        spec = IntegratorSpec(scheme=scheme, eta=0.1, friction=1.3, mass=mass,
                              n_inner=2)
        z, noise = probe_stack(spec, potential, seed=3, states=7)
        grad, hess = potential.gradient_many, potential.hessian_vec_many
        # one stack of four states and one of three, as two passes would run
        J = np.concatenate([jacobian_fd(spec, grad, hess, z[:4], noise[:, :4]),
                            jacobian_fd(spec, grad, hess, z[4:], noise[:, 4:])])
        got = list(zip(np.linalg.det(J).tolist(), symplectic_residual(J).tolist()))
        assert got == reference_geom_states(spec, potential, 3, 7)

    def test_single_state_is_the_stack_of_one(self):
        potential = repro.build_model("logistic2d", 1)
        spec = make_spec(Scheme.MT3, potential.dim)
        z, noise = probe_stack(spec, potential, seed=5, states=4)
        grad, hess = potential.gradient_many, potential.hessian_vec_many
        J = jacobian_fd(spec, grad, hess, z, noise)
        assert J.shape == (4, 4, 4)
        for s, Js in enumerate(J):
            alone = jacobian_fd(spec, grad, hess, z[s:s + 1], noise[:, s:s + 1])
            assert alone.tobytes() == Js.tobytes()

    def test_det_and_residual_same_bits_alone_as_in_a_stack(self):
        J = np.random.default_rng(4).normal(size=(9, 6, 6))
        dets = np.linalg.det(J)
        res = symplectic_residual(J)
        assert res.shape == (9,)
        for i in range(9):
            assert np.linalg.det(J[i]).tobytes() == dets[i].tobytes()
            alone = symplectic_residual(J[i])
            assert isinstance(alone, float) and alone == res[i]

    def test_rejects_mismatched_stacks(self):
        potential = repro.build_model("lingauss", 1)
        spec = make_spec(Scheme.LEAPFROG, potential.dim)
        z, noise = probe_stack(spec, potential, seed=1, states=3)
        grad, hess = potential.gradient_many, potential.hessian_vec_many
        with pytest.raises(ValueError, match="noise draws"):
            jacobian_fd(spec, grad, hess, z, noise[:, :2])
        for bad in (z[:, :-1], z[0], z[:0], z[None]):
            with pytest.raises(ValueError, match="probe states"):
                jacobian_fd(spec, grad, hess, bad, noise)

    def test_residual_rejects_odd_stacks(self):
        with pytest.raises(ValueError):
            symplectic_residual(np.zeros((2, 3, 3)))
        with pytest.raises(ValueError):
            symplectic_residual(np.zeros((2, 2, 4, 4)))
