"""Exact transition kernels for one-parameter linear-Gaussian models.

On a `LinearGaussian` with one parameter, batch b's K-scaled potential
(K U_b for a block, U for the full potential) is a quadratic with curvature
H_b and center c_b, both read from the model: H_b = s U_b''(0) and
c_b = -s U_b'(0) / H_b, with s = K for a block and 1 for the full
potential. On it the damped Hamiltonian SDE on z = (r, theta) is linear,

    dz = A (z - [0, c_b]) dt + sqrt(2C) dW_r,     A = [[-C, -H_b],
                                                       [ 1,  0  ]],

with stationary law diag(1, 1/H_b), so its time-eta transition is Gaussian
with closed-form mean and covariance. Sampling that Gaussian is a
zero-discretization-error integrator. A chain runs in a batch mode
(`BatchMode`) over the model's K batches: "full" keeps the full potential's
kernel; "iid" draws a block's kernel each step and "perm" visits every
block's once per sweep of K steps. A mini-batch chain is exact in time yet
converges to a visibly wrong law, isolating the batching error from any
integrator error. The command line runs them on the conjugate toy,
`repro.build_model("toy", K)`, whose constants are defined there alone.

`run_exact_states` advances R such chains together as the rows of an
(R, 2) array, each on its own streams, through the chain loop integrator
chains run on (`chain.run_loop`): noise and batch ids are drawn per chain a
chunk of steps at a time from the chain's batch schedule, so every chain's
kept states are bit-identical to the ones it gives run alone. A chain holds
9 values per step of a chunk, so the bottleneck report's four chains take
3640 steps a chunk; each step's kernel operands and correlated noise are
gathered `_GATHER_STEPS` steps at a time within it.
It returns them as (R, n, 1) blocks of positions and momenta;
`run_exact_chain` runs one chain this way and wraps its states into a
trace like any integrator chain's.
"""

from __future__ import annotations

import math

import numpy as np

from .chain import ChainConfig, Trace, _trace, run_loop
from .core import RngStream, State
from .operator_lab import matrix_exp
from .potentials import LinearGaussian

__all__ = [
    "matexp2",
    "run_exact_chain",
    "run_exact_states",
]

# steps whose gathered kernels (E, b, L), contiguous draws and correlated
# noise L xi are formed at once: 14 values per chain and step, kept out of
# the chunk's budget
_GATHER_STEPS = 512


def matexp2(A, t: float) -> np.ndarray:
    """exp(t A) for a real 2x2 matrix, in closed form.

    Writes A = m I + D with m = tr(A)/2, where D squares to q^2 I with
    q^2 = m^2 - det(A); then exp(tD) is cosh/sinh (q^2 > 0) or cos/sin
    (q^2 < 0) in D. Where cosh(q t) overflows, e^{mt} cosh(q t) and
    e^{mt} sinh(q t) / q are taken as half the sum and half the difference
    of e^{(m +- q) t}, which stay finite wherever exp(t A) is bounded (an
    overdamped generator, say); of the eigenvalues m +- q, the one that m
    and q nearly cancel in is taken as det(A) over the other. Near the
    defective case |q^2 t^2| ~ 0 it falls back to the operator lab's scaled
    Taylor series with repeated squaring. Raises ValueError where
    m^2 - det(A) overflows.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.shape != (2, 2) or not np.all(np.isfinite(A)):
        raise ValueError("need a finite 2x2 matrix")
    t = float(t)
    m = 0.5 * (A[0, 0] + A[1, 1])
    D = A - m * np.eye(2)
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    with np.errstate(over="ignore"):
        q2 = m * m - det
        s = q2 * t * t
    if not np.isfinite(q2):
        raise ValueError("exp(t A) has no closed form here: "
                         "(tr A / 2)^2 - det A overflows")
    if abs(s) < 1e-8:
        return matrix_exp(t * A)
    if q2 > 0:
        q = np.sqrt(q2)
        # q t and the exponents below may overflow to infinities, which
        # cosh and exp take to their limits
        with np.errstate(over="ignore"):
            c = np.cosh(q * t)
            if np.isinf(c):
                if m < 0:
                    lo = m - q
                    hi = det / lo
                else:
                    hi = m + q
                    lo = det / hi
                up, down = np.exp(hi * t), np.exp(lo * t)
                return 0.5 * (up + down) * np.eye(2) + 0.5 * (up - down) / q * D
        k = np.sinh(q * t) / q
    else:
        w = np.sqrt(-q2)
        c, k = np.cos(w * t), np.sin(w * t) / w
    return np.exp(m * t) * (c * np.eye(2) + k * D)


def _psd_root(cov: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """L with L L^T = cov, for a symmetric cov that rounding may leave with
    eigenvalues down to -tol: those are clamped to zero, cov rebuilt, and L
    taken as its eigen square root."""
    vals, vecs = np.linalg.eigh(cov)
    if vals.min() < -tol:
        raise ValueError(f"covariance eigenvalue {vals.min()} below -{tol}")
    vals, vecs = np.linalg.eigh((vecs * np.clip(vals, 0.0, None)) @ vecs.T)
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


def _generator(P: LinearGaussian, friction: float, batch: int):
    """(A, S, c): the drift, stationary covariance and center of the flow on
    batch `batch`'s K-scaled potential, -1 the full potential."""
    key = None if batch < 0 else batch
    s = 1.0 if key is None else float(P.n_batches)
    zero = np.zeros(1)
    H = s * P.hessian_vec(zero, np.ones(1), key)[0]
    center = -(s * P.gradient(zero, key)[0]) / H
    return np.array([[-friction, -H], [1.0, 0.0]]), np.diag([1.0, 1.0 / H]), center


def _kernel(P: LinearGaussian, friction: float, eta: float, batch: int):
    """(E, b, L) of one exact step of length eta on batch `batch`: from z the
    step goes to E (z - b) + b + L xi, xi standard normal, with
    E = exp(eta A), b = (0, c) and L L^T = S - E S E^T, symmetrized.
    Raises ValueError where E has no closed form (where C^2 / 4
    overflows)."""
    A, S, center = _generator(P, friction, batch)
    try:
        E = matexp2(A, eta)
    except ValueError as err:
        raise ValueError(f"no exact kernel at friction {friction} and eta {eta}: "
                         f"{err}") from None
    cov = S - E @ S @ E.T
    return E, np.array([0.0, center]), _psd_root(0.5 * (cov + cov.T))


def _start(P: LinearGaussian, cfg: ChainConfig, rng: RngStream) -> np.ndarray:
    if isinstance(cfg.init, State):
        if cfg.init.dim != 1:
            raise ValueError("the scalar model needs a 1-D state")
        return np.array([cfg.init.r[0], cfg.init.theta[0]])
    draws = rng.normal(2)
    return np.array([draws[0], np.sqrt(P.prior_var[0]) * draws[1]])


def run_exact_states(P: LinearGaussian, etas, modes, cfgs, chain_indices,
                     keep_momenta: bool = True, *, friction: float):
    """Run R chains of exact transitions on the one-parameter model P with
    friction C in lockstep as the rows of an (R, 2) array and return their
    kept states as (thetas, momenta), each (R, n, 1); with keep_momenta
    False, momenta is None and only positions are held.

    Chain c is (etas[c], modes[c], cfgs[c], chain_indices[c]) with its own
    streams and a `BatchMode` schedule over P's n_batches, as
    `chain.run_states` runs it, and its rows equal the samples that chain
    gives run alone, bit for bit. The chains share P, the friction and the
    run length (n_samples, burn_in, thinning); the k-th kept sample
    (k = 1..n) is taken at step burn_in + k thinning. Every argument is
    checked before any chain starts: P must be a one-parameter
    `LinearGaussian`, the friction finite and > 0, and every kernel table
    must have its closed form.
    """
    if not (isinstance(P, LinearGaussian) and P.dim == 1):
        raise ValueError("the exact kernel exists only for one-parameter "
                         "linear-Gaussian models")
    friction = float(friction)
    if not (math.isfinite(friction) and friction > 0):
        raise ValueError("the exact kernel needs a finite friction > 0")
    etas = [float(eta) for eta in etas]
    cfgs = list(cfgs)

    def setup(inits):
        z = np.stack([_start(P, cfg, rng) for cfg, rng in zip(cfgs, inits)])[:, :, None]
        # kernels indexed [chain, batch id]: a mini-batch id picks its
        # block's kernel, a full chain's id -1 the full potential's
        tables = [[_kernel(P, friction, eta, k) for k in (*range(P.n_batches), -1)]
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
            # the chunk's states; one buffer kept for the whole run instead
            # pins the heap and raises peak RSS by about 0.15 MB
            buf = np.empty((len(ids), len(rows), 2, 1))
            for lo in range(0, len(ids), _GATHER_STEPS):
                run = slice(lo, lo + _GATHER_STEPS)
                # each step's two draws as an (n, R, 2, 1) operand; a
                # contiguous one keeps the stacked matmul on its BLAS path
                # and its bits
                xi = np.ascontiguousarray(noise[:, run].transpose(1, 2, 0, 3))
                # per row the one-chain arithmetic E @ (z - b) + b + L @ xi,
                # in the same operations and order, written into
                # preallocated arrays: stacked matmuls reproduce its bits,
                # einsum does not
                k = ids[run]
                for Ej, bj, nj, row in zip(E[rows, k], b[rows, k], L[rows, k] @ xi, buf[run]):
                    sub(z, bj, t)
                    matmul(Ej, t, u)
                    add(u, bj, u)
                    add(u, nj, row)
                    z = row
            return buf[:, :, 0], buf[:, :, 1]

        # per chain and step: noise and its per-chain draws (2 each), the
        # (r, theta) buffer and the divergence check's three sums
        return "exact", 2, 9, z[:, 0], z[:, 1], advance

    return run_loop(setup, etas, list(modes), P.n_batches, cfgs,
                    [int(c) for c in chain_indices], keep_momenta, eta=etas)


def run_exact_chain(P: LinearGaussian, eta: float, mode, cfg: ChainConfig,
                    chain_index: int = 0, *, friction: float) -> Trace:
    """Chain of exact transitions in batch mode `mode`: one chain of
    `run_exact_states`, each step lasting eta of simulated time."""
    eta = float(eta)
    thetas, momenta = run_exact_states(P, [eta], [mode], [cfg], [chain_index],
                                       friction=friction)
    return _trace(thetas[0], momenta[0], cfg, eta)
