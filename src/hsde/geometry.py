"""Volume-contraction and symplecticity checks on frozen integrator steps.

With the noise draws pinned, one integrator step becomes a smooth
deterministic map psi of phase space. Its finite-difference Jacobian exposes
the two structural properties checked here:

- the determinant equals a z-independent friction factor (volume contracts
  by exactly det(I - eta C M^-1) per velocity-verlet step, and by
  exp(-n_inner eta C tr M^-1) per inner-loop step with exact momentum decay),
- as the friction is turned off, the map approaches a symplectic one, with
  Omega^T J Omega = J recovered at machine scale for velocity-verlet while
  the fully explicit scheme keeps an O(eta^2) defect.

Phase-space ordering everywhere is momentum block first: z = [r, theta].
"""

from __future__ import annotations

import numpy as np

from .core import MassMatrix, RngStream, State
from .integrators import IntegratorSpec, compile_step, noise_draws
from .operator_lab import spectral_norm

__all__ = [
    "FrozenStep",
    "freeze_step",
    "jacobian_fd",
    "det_target_leapfrog",
    "det_target_lie_trotter",
    "det_residual_leapfrog",
    "det_residual_lie_trotter",
    "symplectic_residual",
    "symplectic_form",
]

_EPS_RANGE = (1e-7, 1e-3)


class FrozenStep:
    """One integrator step with its noise draws pinned.

    Calling it maps (r, theta) -> (r', theta') with the exact same noise
    vectors injected every time, so the map is deterministic and smooth and
    finite differences through it are meaningful. `noise` holds the
    scheme's `noise_draws` vectors, each of the spec's dimension.
    """

    def __init__(self, spec: IntegratorSpec, grad, noise, hess=None):
        self.spec = spec
        self.noise = tuple(np.asarray(w, dtype=np.float64) for w in noise)
        n_draws = noise_draws(spec.scheme)
        if len(self.noise) != n_draws or any(w.shape != (spec.dim,) for w in self.noise):
            raise ValueError(f"a {spec.scheme.value} step takes {n_draws} noise "
                             f"draws of shape ({spec.dim},)")
        self._grad = grad
        self._hess = hess
        self._stepper = compile_step(spec)

    def __call__(self, r: np.ndarray, theta: np.ndarray) -> tuple:
        r_new, th_new = self._stepper(
            np.asarray(r, dtype=np.float64),
            np.asarray(theta, dtype=np.float64),
            self._grad,
            self._hess,
            self.noise,
        )
        if not np.isfinite(np.sum(r_new) + np.sum(th_new)):
            raise ValueError("frozen step produced non-finite output")
        return r_new, th_new


def freeze_step(
    spec: IntegratorSpec, grad, rng: RngStream, z0: State, hess=None
) -> FrozenStep:
    """Pin the noise of one step at z0, the scheme's draws taken from rng."""
    noise = [rng.normal(z0.dim) for _ in range(noise_draws(spec.scheme))]
    return FrozenStep(spec, grad, noise, hess=hess)


def jacobian_fd(F: FrozenStep, z0: State, eps: float = 1e-5) -> np.ndarray:
    """Central-difference Jacobian of the frozen map at z0.

    Rows and columns are ordered momentum block first, position block
    second: entry (m, n) is d psi_m / d z_n for z = [r, theta].
    """
    if not _EPS_RANGE[0] <= eps <= _EPS_RANGE[1]:
        raise ValueError(f"eps must lie in [{_EPS_RANGE[0]}, {_EPS_RANGE[1]}]")
    d = z0.dim
    base = np.concatenate([z0.r, z0.theta])
    J = np.empty((2 * d, 2 * d))
    for n in range(2 * d):
        plus = base.copy()
        minus = base.copy()
        plus[n] += eps
        minus[n] -= eps
        rp, tp = F(plus[:d], plus[d:])
        rm, tm = F(minus[:d], minus[d:])
        J[:, n] = np.concatenate([rp - rm, tp - tm]) / (2.0 * eps)
    return J


def det_target_leapfrog(eta: float, friction: float, mass: MassMatrix) -> float:
    """Volume factor of one velocity-verlet step: prod_i (1 - eta C / M_ii)."""
    return float(np.prod(1.0 - eta * friction * mass.inv_diag))


def det_target_lie_trotter(
    eta: float, friction: float, mass: MassMatrix, n_inner: int
) -> float:
    """Volume factor of one inner-loop step with exact momentum decay:
    prod_i exp(-n_inner eta C / M_ii); matches the exact flow's contraction
    e^{-C tr(M^-1) t} over the simulated time t = n_inner * eta."""
    return float(np.prod(np.exp(-n_inner * eta * friction * mass.inv_diag)))


def det_residual_leapfrog(
    J: np.ndarray, eta: float, friction: float, mass: MassMatrix
) -> float:
    return abs(float(np.linalg.det(_square_even(J))) -
               det_target_leapfrog(eta, friction, mass))


def det_residual_lie_trotter(
    J: np.ndarray, eta: float, friction: float, mass: MassMatrix, n_inner: int
) -> float:
    return abs(float(np.linalg.det(_square_even(J))) -
               det_target_lie_trotter(eta, friction, mass, n_inner))


def symplectic_form(d: int) -> np.ndarray:
    """The canonical antisymmetric form in [r, theta] block ordering."""
    form = np.zeros((2 * d, 2 * d))
    form[:d, d:] = -np.eye(d)
    form[d:, :d] = np.eye(d)
    return form


def symplectic_residual(J: np.ndarray) -> float:
    """Spectral norm of Omega^T form Omega - form; zero iff the map preserves
    the canonical two-form."""
    J = _square_even(J)
    d = J.shape[0] // 2
    form = symplectic_form(d)
    return spectral_norm(J.T @ form @ J - form)


def _square_even(J) -> np.ndarray:
    J = np.asarray(J, dtype=np.float64)
    if J.ndim != 2 or J.shape[0] != J.shape[1] or J.shape[0] % 2 != 0:
        raise ValueError("Jacobian must be square with even dimension")
    return J
