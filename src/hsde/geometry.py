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

Probe states are checked as a stack: `jacobian_fd` steps the 4d points
z +- eps e_n of S states, each state's pinned draws repeated over its rows,
as the rows of one (4dS, d) array pair through one stepper call, with the
row gradient and Hessian-vector providers a chain ensemble uses. Every step
formula is elementwise and the row providers give each row the bits of a
one-point call, so each state's Jacobian has the bits it would get alone;
`np.linalg.det` and `symplectic_residual` take the (S, 2d, 2d) stack and
keep those bits too.
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
    "symplectic_residual",
    "symplectic_form",
]

_EPS_RANGE = (1e-7, 1e-3)


class FrozenStep:
    """One integrator step with its noise draws pinned.

    Calling it maps (r, theta) -> (r', theta'), one point of (d,) arrays or
    the rows of (R, d) arrays, with the exact same noise vectors injected
    every time, so the map is deterministic and smooth and finite
    differences through it are meaningful. `noise` holds the scheme's
    `noise_draws` vectors, each of the spec's dimension; grad and hess are
    row providers, (R, d) -> (R, d), as `Potential.gradient_many` and
    `Potential.hessian_vec_many`.
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

    def __call__(self, r: np.ndarray, theta: np.ndarray) -> tuple:
        r = np.asarray(r, dtype=np.float64)
        theta = np.asarray(theta, dtype=np.float64)
        r_new, th_new = _step_rows([self], np.atleast_2d(r), np.atleast_2d(theta))
        return (r_new, th_new) if r.ndim == 2 else (r_new[0], th_new[0])


def _step_rows(steps: list, r: np.ndarray, theta: np.ndarray) -> tuple:
    """The frozen maps at the rows of (R, d) r and theta: the rows fall into
    len(steps) equal blocks, block s stepped with steps[s]'s draws, all
    through one stepper call."""
    F = steps[0]
    block = len(r) // len(steps)
    noise = [np.repeat(np.stack([s.noise[j] for s in steps]), block, axis=0)
             for j in range(len(F.noise))]
    r_new, th_new = compile_step(F.spec)(r, theta, F._grad, F._hess, noise)
    if not np.isfinite(np.sum(r_new) + np.sum(th_new)):
        raise ValueError("frozen step produced non-finite output")
    return r_new, th_new


def freeze_step(
    spec: IntegratorSpec, grad, rng: RngStream, z0: State, hess=None
) -> FrozenStep:
    """Pin the noise of one step at z0, the scheme's draws taken from rng."""
    noise = [rng.normal(z0.dim) for _ in range(noise_draws(spec.scheme))]
    return FrozenStep(spec, grad, noise, hess=hess)


def check_eps(eps: float) -> None:
    """Reject a finite-difference step outside the range `jacobian_fd` takes."""
    if not _EPS_RANGE[0] <= eps <= _EPS_RANGE[1]:
        raise ValueError(f"eps must lie in [{_EPS_RANGE[0]}, {_EPS_RANGE[1]}]")


def jacobian_fd(F, z0, eps: float = 1e-5) -> np.ndarray:
    """Central-difference Jacobian of the frozen map at z0.

    F and z0 are one FrozenStep and one State, or equal-length sequences of
    S of each (probe states with their own pinned draws, one spec and one
    pair of providers between them); the result is one (2d, 2d) matrix or
    an (S, 2d, 2d) stack. All 4dS points z0 +- eps e_n are stepped as the
    rows of one (4dS, d) pair. Rows and columns are ordered momentum block
    first, position block second: entry (m, n) is d psi_m / d z_n for
    z = [r, theta].
    """
    check_eps(eps)
    single = isinstance(z0, State)
    steps, states = ([F], [z0]) if single else (list(F), list(z0))
    if not states or len(steps) != len(states):
        raise ValueError("need one frozen step per probe state")
    first = steps[0]
    if any(s.spec is not first.spec or s._grad != first._grad or s._hess != first._hess
           for s in steps):
        raise ValueError("the frozen steps must share one spec and one pair of providers")
    d = first.spec.dim
    n = 2 * d
    # points[s, 0, c] is state s with column c moved by +eps, points[s, 1, c]
    # by -eps; every other entry keeps its bits
    points = np.repeat(np.stack([np.concatenate([z.r, z.theta]) for z in states]),
                       2 * n, axis=0).reshape(len(states), 2, n, n)
    cols = np.arange(n)
    points[:, 0, cols, cols] += eps
    points[:, 1, cols, cols] -= eps
    points = points.reshape(-1, n)
    r_new, th_new = _step_rows(steps, np.ascontiguousarray(points[:, :d]),
                               np.ascontiguousarray(points[:, d:]))
    image = np.concatenate([r_new, th_new], axis=1).reshape(len(states), 2, n, n)
    J = np.ascontiguousarray(((image[:, 0] - image[:, 1]) / (2.0 * eps)).swapaxes(1, 2))
    return J[0] if single else J


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


def symplectic_form(d: int) -> np.ndarray:
    """The canonical antisymmetric form in [r, theta] block ordering."""
    form = np.zeros((2 * d, 2 * d))
    form[:d, d:] = -np.eye(d)
    form[d:, :d] = np.eye(d)
    return form


def symplectic_residual(J: np.ndarray):
    """Spectral norm of J^T form J - form; zero iff the map preserves the
    canonical two-form.

    J is one square matrix of even dimension (a float is returned) or an
    (S, 2d, 2d) stack of them (an array of S residuals); a matrix gives the
    same bits alone as inside a stack.
    """
    J = np.asarray(J, dtype=np.float64)
    if J.ndim not in (2, 3) or J.shape[-1] != J.shape[-2] or J.shape[-1] % 2 != 0:
        raise ValueError("Jacobian must be square with even dimension, or a stack of such")
    single = J.ndim == 2
    if single:
        J = J[None]
    form = symplectic_form(J.shape[-1] // 2)
    out = spectral_norm(J.swapaxes(1, 2) @ form @ J - form)
    return float(out[0]) if single else out
