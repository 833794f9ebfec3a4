"""Volume-contraction and symplecticity checks on frozen integrator steps.

With the noise draws pinned, one integrator step becomes a smooth
deterministic map psi of phase space. Its finite-difference Jacobian exposes
the two structural properties checked here:

- the determinant equals a z-independent friction factor (volume contracts
  by exactly (1 - eta C)^d per velocity-verlet step, and by
  exp(-n_inner eta C d) per inner-loop step with exact momentum decay),
- as the friction is turned off, the map approaches a symplectic one, with
  Omega^T J Omega = J recovered at machine scale for velocity-verlet while
  the fully explicit scheme keeps an O(eta^2) defect.

Phase-space ordering everywhere is momentum block first: z = [r, theta].

Probe states are checked as a stack: `jacobian_fd` steps the 4d points
z +- eps e_n of S states, each state's pinned draws repeated over its rows,
as the rows of one (4dS, d) array pair through one stepper call, with the
full potential's step providers (`Potential.step_providers`) built once for
all of those rows. Every step formula is elementwise and the providers give
each row the bits of a one-point call, so each state's Jacobian has the bits
it would get alone;
`np.linalg.det` and `symplectic_residual` take the (S, 2d, 2d) stack and
keep those bits too.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .integrators import DivergenceError, IntegratorSpec, compile_step, noise_draws
from .operator_lab import spectral_norm

__all__ = [
    "jacobian_fd",
    "det_target_leapfrog",
    "det_target_lie_trotter",
    "symplectic_residual",
    "symplectic_form",
]

_EPS_RANGE = (1e-7, 1e-3)


def check_eps(eps: float) -> None:
    """Reject a finite-difference step outside the range `jacobian_fd` takes."""
    if not _EPS_RANGE[0] <= eps <= _EPS_RANGE[1]:
        raise ValueError(f"eps must lie in [{_EPS_RANGE[0]}, {_EPS_RANGE[1]}]")


def jacobian_fd(spec: IntegratorSpec, P, z, noise, eps: float = 1e-5) -> np.ndarray:
    """Central-difference Jacobians of one step of the spec's scheme on the
    full potential of P, a `Potential` of dimension d, its noise pinned, at
    S probe states.

    z is the (S, 2d) stack of states, r then theta, d >= 1; noise holds the
    scheme's `noise_draws` draws, each (S, d), row s the draw pinned for
    state s. Returns the (S, 2d, 2d) stack; rows and columns are ordered
    momentum block first, position block second: entry (s, m, n) is
    d psi_m / d z_n at state s.
    Raises DivergenceError, naming the scheme and eta, if a step leaves the
    finite range.
    """
    check_eps(eps)
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or len(z) == 0 or z.shape[1] == 0 or z.shape[1] % 2:
        raise ValueError("probe states must be a nonempty (S, 2d) array, d >= 1")
    S, n = z.shape
    d = n // 2
    noise = [np.asarray(w, dtype=np.float64) for w in noise]
    n_draws = noise_draws(spec.scheme)
    if len(noise) != n_draws or any(w.shape != (S, d) for w in noise):
        raise ValueError(f"a {spec.scheme.value} step takes {n_draws} noise draws "
                         f"of shape ({S}, {d})")
    if n != 2 * P.dim:
        raise ValueError(f"probe states of width {n} do not fit a potential of "
                         f"dimension {P.dim}: the width must be 2 * {P.dim}")
    # points[s, 0, c] is state s with column c moved by +eps, points[s, 1, c]
    # by -eps; every other entry keeps its bits
    points = np.repeat(z, 2 * n, axis=0).reshape(S, 2, n, n)
    cols = np.arange(n)
    points[:, 0, cols, cols] += eps
    points[:, 1, cols, cols] -= eps
    points = points.reshape(-1, n)
    # the full potential's providers over all 4dS rows, (R, d) -> (R, d)
    grad, hess = P.step_providers(np.full((1, len(points)), -1))
    # a diverging step overflows: no warnings, the check below reports it
    with np.errstate(all="ignore"):
        r_new, th_new = compile_step(spec)(
            np.ascontiguousarray(points[:, :d]), np.ascontiguousarray(points[:, d:]),
            partial(grad, 0), partial(hess, 0), [np.repeat(w, 2 * n, axis=0) for w in noise])
        finite = np.isfinite(np.sum(r_new) + np.sum(th_new))
    if not finite:
        raise DivergenceError("frozen step produced non-finite output", eta=spec.eta,
                              scheme=spec.scheme)
    image = np.concatenate([r_new, th_new], axis=1).reshape(S, 2, n, n)
    return np.ascontiguousarray(((image[:, 0] - image[:, 1]) / (2.0 * eps)).swapaxes(1, 2))


def det_target_leapfrog(eta: float, friction: float, d: int) -> float:
    """Volume factor of one velocity-verlet step in d dimensions:
    (1 - eta C)^d."""
    return float(np.prod(1.0 - np.full(d, eta * friction)))


def det_target_lie_trotter(eta: float, friction: float, d: int, n_inner: int) -> float:
    """Volume factor of one inner-loop step with exact momentum decay in d
    dimensions: e^{-n_inner eta C d}, the exact flow's contraction e^{-C d t}
    over the simulated time t = n_inner * eta."""
    return float(np.prod(np.exp(np.full(d, -n_inner * eta * friction))))


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
