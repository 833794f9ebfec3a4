"""Exact transition kernels for the conjugate scalar model.

The model: two observations x1, x2 with likelihood N(theta, sigma_x^2) and
prior N(0, sigma_theta^2). Its posterior is N(xbar, sigma_l^2) with

    v = sigma_x^2 / sigma_theta^2 + 2,   sigma_l^2 = sigma_x^2 / v,
    xbar = (x1 + x2) / v.

For a quadratic potential the damped Hamiltonian SDE on z = (r, theta) is
linear,

    dz = A (z - [0, c]) dt + sqrt(2C) dW_r,     A = [[-C, -1/sigma_l^2],
                                                     [ 1,  0          ]],

so its time-eta transition is Gaussian with closed-form mean and covariance.
Sampling that Gaussian is a zero-discretization-error integrator. A chain
runs in a batch mode (`BatchMode`) over the two observations: "full" keeps
the center c = xbar fixed; "iid" flips a fair coin each step between the
sub-potential centers c_i = 2 x_i / v, and "perm" visits both centers in
a random order every two steps; both mini-batch modes keep the full-data
curvature in A. A mini-batch chain is exact in time yet converges to a visibly wrong
law, isolating the batching error from any integrator error.

`run_exact_states` advances R such chains together as the rows of an
(R, 2) array, each on its own streams, through the chain loop integrator
chains run on (`chain.run_loop`): noise and batch ids are drawn per chain a
chunk of steps at a time from the chain's K = 2 batch schedule, so every
chain's kept states are bit-identical to the ones it gives run alone.
It returns them as (R, n, 1) blocks of positions and momenta;
`run_exact_chain` runs one chain this way and wraps its states into a
trace like any integrator chain's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chain import ChainConfig, Trace, _trace, run_loop
from .core import RngStream, State
from .operator_lab import matrix_exp

__all__ = [
    "ToyParams",
    "reference_params",
    "matexp2",
    "toy_transition",
    "run_exact_chain",
    "run_exact_states",
]


@dataclass(frozen=True)
class ToyParams:
    """Model constants; derived quantities are exposed as properties."""

    sigma_x2: float
    sigma_theta2: float
    x1: float
    x2: float
    friction: float

    def __post_init__(self):
        for name in ("sigma_x2", "sigma_theta2", "friction"):
            object.__setattr__(self, name, float(getattr(self, name)))
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        object.__setattr__(self, "x1", float(self.x1))
        object.__setattr__(self, "x2", float(self.x2))
        if not np.all(np.isfinite([self.x1, self.x2])):
            raise ValueError("observations must be finite")
        # the linear drift must be a stable (Hurwitz) matrix, and the target
        # law diag(1, sigma_l^2) must solve its stationary Lyapunov equation
        A, S = self.drift, self.stationary_cov
        if not np.all(np.linalg.eigvals(A).real < 0):
            raise ValueError("drift matrix is not Hurwitz")
        residual = A @ S + S @ A.T + np.diag([2.0 * self.friction, 0.0])
        if np.abs(residual).max() > 1e-12:
            raise ValueError("stationary covariance identity violated")

    @property
    def v(self) -> float:
        return self.sigma_x2 / self.sigma_theta2 + 2.0

    @property
    def sigma_l2(self) -> float:
        return self.sigma_x2 / self.v

    @property
    def center_full(self) -> float:
        return (self.x1 + self.x2) / self.v

    @property
    def centers(self) -> tuple[float, float]:
        return (2.0 * self.x1 / self.v, 2.0 * self.x2 / self.v)

    @property
    def drift(self) -> np.ndarray:
        return np.array([[-self.friction, -1.0 / self.sigma_l2], [1.0, 0.0]])

    @property
    def stationary_cov(self) -> np.ndarray:
        return np.diag([1.0, self.sigma_l2])


def reference_params() -> ToyParams:
    """The parameter set used throughout the verification suite."""
    return ToyParams(sigma_x2=2.0, sigma_theta2=0.5, x1=4.0, x2=-3.2, friction=2.0)


def matexp2(A, t: float) -> np.ndarray:
    """exp(t A) for a real 2x2 matrix, in closed form.

    Writes A = m I + D with m = tr(A)/2, where D squares to q^2 I with
    q^2 = m^2 - det(A); then exp(tD) is cosh/sinh (q^2 > 0) or cos/sin
    (q^2 < 0) in D. Near the defective case |q^2 t^2| ~ 0 it falls back to
    the operator lab's scaled Taylor series with repeated squaring.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.shape != (2, 2) or not np.all(np.isfinite(A)):
        raise ValueError("need a finite 2x2 matrix")
    t = float(t)
    m = 0.5 * (A[0, 0] + A[1, 1])
    D = A - m * np.eye(2)
    q2 = m * m - (A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0])
    s = q2 * t * t
    if abs(s) < 1e-8:
        return matrix_exp(t * A)
    if q2 > 0:
        q = np.sqrt(q2)
        c, k = np.cosh(q * t), np.sinh(q * t) / q
    else:
        w = np.sqrt(-q2)
        c, k = np.cos(w * t), np.sin(w * t) / w
    return np.exp(m * t) * (c * np.eye(2) + k * D)


def toy_transition(z0, eta: float, p: ToyParams, center: float):
    """Mean and covariance of z(eta) started from the point z0 = (r, theta).

    mean = e^{eta A}(z0 - b) + b with b = (0, center);
    cov  = S - e^{eta A} S e^{eta A^T} with S = diag(1, sigma_l^2).
    The covariance is symmetrized and tiny negative eigenvalues from
    rounding (>= -1e-12) are clamped to zero.
    """
    if eta < 0:
        raise ValueError("eta must be >= 0")
    z0 = np.asarray(z0, dtype=np.float64).reshape(2)
    E = matexp2(p.drift, eta)
    b = np.array([0.0, float(center)])
    mean = E @ (z0 - b) + b
    S = p.stationary_cov
    cov = S - E @ S @ E.T
    cov = 0.5 * (cov + cov.T)
    return mean, _clamp_psd(cov)


def _clamp_psd(cov: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    vals, vecs = np.linalg.eigh(cov)
    if vals.min() < -tol:
        raise ValueError(f"covariance eigenvalue {vals.min()} below -{tol}")
    vals = np.clip(vals, 0.0, None)
    return (vecs * vals) @ vecs.T


def _sqrt_psd(cov: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(cov)
    vals = np.clip(vals, 0.0, None)
    return vecs * np.sqrt(vals)


@lru_cache(maxsize=128)
def _kernel(p: ToyParams, eta: float, center: float):
    E = matexp2(p.drift, eta)
    b = np.array([0.0, center])
    _, cov = toy_transition(np.zeros(2), eta, p, center)
    return E, b, _sqrt_psd(cov)


def _start(p: ToyParams, cfg: ChainConfig, rng: RngStream) -> np.ndarray:
    if isinstance(cfg.init, State):
        if cfg.init.dim != 1:
            raise ValueError("the scalar model needs a 1-D state")
        return np.array([cfg.init.r[0], cfg.init.theta[0]])
    draws = rng.normal(2)
    return np.array([draws[0], np.sqrt(p.sigma_theta2) * draws[1]])


def run_exact_states(p: ToyParams, etas, modes, cfgs, chain_indices,
                     keep_momenta: bool = True):
    """Run R chains of exact transitions in lockstep as the rows of an (R, 2)
    array and return their kept states as (thetas, momenta), each (R, n, 1);
    with keep_momenta False, momenta is None and only positions are held.

    Chain c is (etas[c], modes[c], cfgs[c], chain_indices[c]) with its own
    streams and a `BatchMode` schedule over the two observations, as
    `chain.run_states` runs it, and its rows equal the samples that chain
    gives run alone, bit for bit. The chains share p and the run length
    (n_samples, burn_in, thinning); the k-th kept sample (k = 1..n) is
    taken at step burn_in + k thinning. Every argument is checked before
    any chain starts.
    """
    etas = [float(eta) for eta in etas]
    cfgs = list(cfgs)

    def setup(inits):
        z = np.stack([_start(p, cfg, rng) for cfg, rng in zip(cfgs, inits)])[:, :, None]
        # kernels indexed [chain, batch id]: a mini-batch id picks the
        # center p.centers[id], a full chain's id -1 the full center
        tables = [[_kernel(p, eta, center) for center in (*p.centers, p.center_full)]
                  for eta in etas]
        E, b, L = (np.array([[k[part] for k in t] for t in tables]) for part in range(3))
        b = b[..., None]
        rows = np.arange(len(etas))
        # z - b and E (z - b), reused by every step
        t = np.empty_like(z)
        u = np.empty_like(z)
        sub, matmul, add = np.subtract, np.matmul, np.add

        def advance(r, th, noise, ids):
            z = np.stack([r, th], axis=1)
            # each step's two draws as an (m, R, 2, 1) operand; a contiguous
            # one keeps the stacked matmul on its BLAS path and its bits
            xi = np.ascontiguousarray(noise.transpose(1, 2, 0, 3))
            noise = L[rows, ids] @ xi
            # the chunk's states; one buffer kept for the whole run instead
            # pins the heap and raises peak RSS by about 0.15 MB
            buf = np.empty((len(ids), len(rows), 2, 1))
            # per row the one-chain arithmetic E @ (z - b) + b + L @ xi, in
            # the same operations and order, written into preallocated
            # arrays: stacked matmuls reproduce its bits, einsum does not
            for Ej, bj, nj, row in zip(E[rows, ids], b[rows, ids], noise, buf):
                sub(z, bj, t)
                matmul(Ej, t, u)
                add(u, bj, u)
                add(u, nj, row)
                z = row
            return buf[:, :, 0], buf[:, :, 1]

        return "exact", 2, z[:, 0], z[:, 1], advance

    return run_loop(setup, etas, list(modes), 2, cfgs, [int(c) for c in chain_indices],
                    keep_momenta, eta=etas)


def run_exact_chain(p: ToyParams, eta: float, mode, cfg: ChainConfig,
                    chain_index: int = 0) -> Trace:
    """Chain of exact transitions in batch mode `mode`: one chain of
    `run_exact_states`, each step lasting eta of simulated time."""
    eta = float(eta)
    thetas, momenta = run_exact_states(p, [eta], [mode], [cfg], [chain_index])
    return _trace(thetas[0], momenta[0], cfg, eta)
