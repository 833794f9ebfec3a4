"""Independent reference computations used by the test suite.

Everything here is written against the mathematical definitions directly,
in code paths disjoint from the package implementation:

- exact-arithmetic (sympy) single-step evaluation of every integrator scheme
  on a scalar quadratic potential U(theta) = lam/2 (theta - c)^2,
- `step`, one step of any scheme with its noise drawn one d-vector at a
  time and a divergence check: the single-step call over `compile_step`,
- an RK4 integrator for the first/second-moment ODEs of the 2-D linear SDE
  behind the conjugate toy model,
- composite Simpson quadrature for its covariance integral,
- a brute-force O(n*m) two-sample Kolmogorov distance,
- central finite differences for gradients and Jacobians,
- scipy's Pade matrix exponential / logarithm as the semigroup reference,
- a plain one-chain sampling loop over `step`, the
  semantics every chain of an ensemble run must reproduce bit for bit, and
  the same for the exact toy kernel (one 2-vector, one coin and one
  normal(2) draw per step),
- the conjugate toy's constants in closed form (`Toy`: v, sigma_l^2 and
  the centers 2 x_i / v) and the exact-step tables built from them, which
  the package's kernels, read from the toy's `LinearGaussian`, must
  reproduce bit for bit on the reference toy,
- one-draw-per-swap Fisher-Yates permutations and subsets, and the earlier
  formulas of the splitting-order trials, the power-iteration norm and the
  one-sample Gaussian Kolmogorov distance, which the faster forms in the
  package must reproduce bit for bit,
- the earlier one-row-at-a-time CSV writers (trace, dict rows, report
  checks), whose bytes the shared column writer must reproduce,
- the step formulas as fresh-array expressions, which the in-place chunk
  steppers must reproduce bit for bit,
- the geom command's earlier per-state loop (one column of one probe
  state's Jacobian at a time, with the one-point gradient), whose volume
  factors and symplectic residuals the stacked probe pass must reproduce
  bit for bit.

These act as the frozen oracles that implementation outputs are compared to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import sympy as sp

DIGITS = 50


def _num(x):
    """Exact sympy number from a float or rational-like input."""
    if isinstance(x, sp.Expr):
        return x
    return sp.nsimplify(x, rational=True)


def _f(expr) -> float:
    return float(sp.N(expr, DIGITS))


class QuadOracle:
    """One integrator step on U(theta) = lam/2 (theta - c)^2, scalar state,
    unit mass.

    All arithmetic is exact (sympy) until the final float conversion. Noise
    values are injected explicitly; each method documents the draw order it
    consumes, mirroring the package's documented order.
    """

    def __init__(self, lam, c, eta, C):
        self.lam = _num(lam)
        self.c = _num(c)
        self.eta = _num(eta)
        self.C = _num(C)

    def grad(self, theta):
        return self.lam * (theta - self.c)

    def euler(self, r, th, w0):
        r, th, w0 = map(_num, (r, th, w0))
        eta, C = self.eta, self.C
        th1 = th + eta * r
        r1 = r - eta * C * r - eta * self.grad(th) + sp.sqrt(2 * C * eta) * w0
        return _f(r1), _f(th1)

    def leapfrog(self, r, th, w0, noise_scale=None):
        r, th, w0 = map(_num, (r, th, w0))
        eta, C = self.eta, self.C
        scale = sp.sqrt(2 * C * eta) if noise_scale is None else _num(noise_scale)
        th_half = th + eta / 2 * r
        r1 = r - eta * self.grad(th_half) - eta * C * r + scale * w0
        th1 = th_half + eta / 2 * r1
        return _f(r1), _f(th1)

    def sghmc(self, r, th, w0, v_hat):
        return self.leapfrog(
            r, th, w0, noise_scale=sp.sqrt(2 * (self.C - _num(v_hat)) * self.eta)
        )

    def _det_leapfrog(self, r, th):
        eta = self.eta
        th_half = th + eta / 2 * r
        r1 = r - eta * self.grad(th_half)
        th1 = th_half + eta / 2 * r1
        return r1, th1

    def lie_trotter(self, r, th, w0, n_inner=1):
        r, th, w0 = map(_num, (r, th, w0))
        for _ in range(n_inner):
            r, th = self._det_leapfrog(r, th)
        a = sp.exp(-self.C * n_inner * self.eta)
        r = a * r + sp.sqrt(1 - a**2) * w0
        return _f(r), _f(th)

    def symmetric(self, r, th, w0, w1):
        r, th, w0, w1 = map(_num, (r, th, w0, w1))
        a = sp.exp(-self.C * (self.eta / 2))
        std = sp.sqrt(1 - a**2)
        r = a * r + std * w0
        r, th = self._det_leapfrog(r, th)
        r = a * r + std * w1
        return _f(r), _f(th)

    def spv(self, r, th, w0):
        r, th, w0 = map(_num, (r, th, w0))
        eta, C = self.eta, self.C
        th_half = th + eta / 2 * r
        a = sp.exp(-C * eta)
        r1 = a * r - (1 - a) / C * self.grad(th_half) + sp.sqrt(1 - a**2) * w0
        th1 = th_half + eta / 2 * r1
        return _f(r1), _f(th1)

    def ou_exact(self, r, f, w0):
        r, f, w0 = map(_num, (r, f, w0))
        eta, C = self.eta, self.C
        if C == 0:
            return _f(r - eta * f)
        a = sp.exp(-C * eta)
        mu = -f / C
        return _f(a * (r - mu) + mu + sp.sqrt(1 - a**2) * w0)

    def mt3(self, r, th, w1, w2):
        """Three-stage third-order step; draws w1 (sqrt-eta noise) then w2."""
        r, th, w1, w2 = map(_num, (r, th, w1, w2))
        eta, C, lam = self.eta, self.C, self.lam
        c1, c2 = sp.Rational(7, 24), sp.Rational(3, 8)

        def force(theta_s, r_s):
            return -self.grad(theta_s) - C * r_s

        th1 = th + c1 * eta * r
        r1 = (r - c1 * eta * self.grad(th1)) / (1 + c1 * eta * C)
        F1 = force(th1, r1)

        th2 = th + sp.Rational(25, 24) * eta * r + eta**2 / 2 * F1
        r2 = (r + sp.Rational(2, 3) * eta * F1 - c2 * eta * self.grad(th2)) / (
            1 + c2 * eta * C
        )
        F2 = force(th2, r2)

        th3 = (
            th
            + eta * r
            + sp.Rational(17, 36) * eta**2 * F1
            + sp.Rational(1, 36) * eta**2 * F2
        )
        r3 = (
            r
            + sp.Rational(2, 3) * eta * F1
            - sp.Rational(2, 3) * eta * F2
            - eta * self.grad(th3)
        ) / (1 + eta * C)

        s2c = sp.sqrt(2 * C)
        th_new = (
            th3
            + eta ** sp.Rational(3, 2) * s2c * (w1 / 2 + w2)
            - eta ** sp.Rational(5, 2) / 6 * C * s2c * w1
        )
        r_new = (
            r3
            + sp.sqrt(eta) * s2c * w1
            - eta ** sp.Rational(3, 2) * C * s2c * (w1 / 2 + w2)
            - eta ** sp.Rational(5, 2) / 6 * s2c * lam * w1
            + eta ** sp.Rational(5, 2) / 6 * C**2 * s2c * w1
        )
        return _f(r_new), _f(th_new)


def rk4_toy_moments(z0, eta, A, center, diffusion_rr, n_steps=2000):
    """Integrate dm/dt = A(m - b), dS/dt = AS + SA^T + Q over [0, eta].

    b = (0, center), Q = diag(diffusion_rr, 0). Returns (mean, cov) at eta,
    starting from the point mass at z0.
    """
    A = np.asarray(A, dtype=float)
    b = np.array([0.0, float(center)])
    Q = np.diag([float(diffusion_rr), 0.0])
    m = np.asarray(z0, dtype=float).copy()
    S = np.zeros((2, 2))
    h = float(eta) / n_steps

    def fm(mv):
        return A @ (mv - b)

    def fS(Sv):
        return A @ Sv + Sv @ A.T + Q

    for _ in range(n_steps):
        k1m, k1S = fm(m), fS(S)
        k2m, k2S = fm(m + h / 2 * k1m), fS(S + h / 2 * k1S)
        k3m, k3S = fm(m + h / 2 * k2m), fS(S + h / 2 * k2S)
        k4m, k4S = fm(m + h * k3m), fS(S + h * k3S)
        m = m + h / 6 * (k1m + 2 * k2m + 2 * k3m + k4m)
        S = S + h / 6 * (k1S + 2 * k2S + 2 * k3S + k4S)
    return m, S


def _expm_eig(A, t):
    """Matrix exponential via numpy eigen-decomposition (independent route)."""
    vals, vecs = np.linalg.eig(np.asarray(A, dtype=complex))
    out = vecs @ np.diag(np.exp(vals * t)) @ np.linalg.inv(vecs)
    return out.real

def simpson_covariance(A, eta, diffusion_rr, panels=10_000):
    """Composite-Simpson value of int_0^eta e^{(eta-s)A} Q e^{(eta-s)A^T} ds."""
    if panels % 2 == 1:
        panels += 1
    Q = np.diag([float(diffusion_rr), 0.0])
    s_grid = np.linspace(0.0, float(eta), panels + 1)
    h = s_grid[1] - s_grid[0]
    total = np.zeros((2, 2))
    for i, s in enumerate(s_grid):
        E = _expm_eig(A, float(eta) - s)
        term = E @ Q @ E.T
        if i == 0 or i == panels:
            w = 1.0
        elif i % 2 == 1:
            w = 4.0
        else:
            w = 2.0
        total += w * term
    return total * h / 3.0


def brute_kolmogorov(a, b):
    """sup_v |F_a(v) - F_b(v)| over pooled points, by direct counting."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    best = 0.0
    for v in np.concatenate([a, b]):
        fa = np.mean(a <= v)
        fb = np.mean(b <= v)
        best = max(best, abs(fa - fb))
    return float(best)


def grad_fd(f, x, eps=1e-6):
    """Central-difference gradient of scalar f at x."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += eps
        xm[i] -= eps
        g[i] = (f(xp) - f(xm)) / (2 * eps)
    return g


def jac_fd(f, x, eps=1e-6):
    """Central-difference Jacobian of vector-valued f at x."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(f(x), dtype=float)
    J = np.zeros((f0.size, x.size))
    for j in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[j] += eps
        xm[j] -= eps
        J[:, j] = (np.asarray(f(xp)) - np.asarray(f(xm))) / (2 * eps)
    return J


def expm_pade(A):
    """Matrix exponential via scipy's Pade route (independent of the package's
    Taylor scaling-and-squaring)."""
    from scipy.linalg import expm

    return expm(np.asarray(A, dtype=float))


def log_of_product_exp(A, B):
    """log(exp(A) exp(B)) computed with scipy, the exact target of the
    Baker-Campbell-Hausdorff series."""
    from scipy.linalg import expm, logm

    Z = logm(expm(np.asarray(A, dtype=float)) @ expm(np.asarray(B, dtype=float)))
    return np.real(Z)


def step(z, grad, spec, rng, hess=None):
    """One step of whatever scheme the spec selects from the State z: the
    single-step call `compile_step`, its noise drawn from `rng` one d-vector
    at a time. MT3 needs the Hessian-vector provider `hess`; a non-finite
    result raises DivergenceError."""
    from hsde.core import State
    from hsde.integrators import DivergenceError, Scheme, compile_step, noise_draws

    if spec.scheme is Scheme.MT3 and hess is None:
        raise ValueError("MT3 needs a Hessian-vector provider")
    noise = [rng.normal(z.dim) for _ in range(noise_draws(spec.scheme))]
    r, th = compile_step(spec)(z.r, z.theta, grad, hess, noise)
    # NaN or +-inf anywhere makes the sum non-finite
    if not np.isfinite(float(np.sum(r)) + float(np.sum(th))):
        raise DivergenceError("non-finite state after step", r=r, theta=th,
                              eta=spec.eta, scheme=spec.scheme)
    return State(r=r, theta=th)


def reference_chain(P, spec, sched, cfg, chain_index=0, formulas=False):
    """One chain, one `step()` per step and one `normal(d)` call per
    noise draw, with gradients from `Potential.gradient` / `hessian_vec`
    (times K on a mini-batch). With formulas set, each step is instead
    `reference_kernel`'s fresh-array expressions, checked for divergence
    as `step()` checks it: a loop that shares no step code with the
    package.

    Follows the chain stream convention (noise on 4c, initial state on
    4c + 1; the caller builds the schedule on 4c + 2). Returns (thetas,
    momenta, steps, times, effective_time). On a non-finite state raises the
    step's DivergenceError with `step_index` and `partial` (the kept
    thetas and momenta) set.
    """
    from hsde import integrators
    from hsde.core import RngStream, State
    from hsde.integrators import DivergenceError, Scheme, noise_draws

    d = P.dim
    one_step = step
    if formulas:
        kernel = reference_kernel(spec.scheme, spec.n_inner,
                                  integrators._constants(spec, d))

        def one_step(z, grad, spec, rng, hess):
            noise = [rng.normal(z.dim) for _ in range(noise_draws(spec.scheme))]
            r, th = kernel(z.r, z.theta, grad, hess, noise)
            if not np.isfinite(float(np.sum(r)) + float(np.sum(th))):
                raise DivergenceError("non-finite state after step", r=r, theta=th,
                                      eta=spec.eta, scheme=spec.scheme)
            return State(r=r, theta=th)

    if isinstance(cfg.init, State):
        z = cfg.init
    else:
        init_rng = RngStream(cfg.seed, 4 * chain_index + 1)
        theta = P.sample_prior(init_rng)
        z = State(r=init_rng.normal(d), theta=theta)
    rng = RngStream(cfg.seed, 4 * chain_index)
    K = float(sched.n_batches)
    total = cfg.burn_in + cfg.n_samples * cfg.thinning
    thetas, momenta, steps = [], [], []
    for i in range(1, total + 1):
        batch = sched.next()
        if batch is None:
            def grad(th):
                return P.gradient(th)

            def hess(th, v):
                return P.hessian_vec(th, v)
        else:
            def grad(th, b=batch):
                return K * P.gradient(th, b)

            def hess(th, v, b=batch):
                return K * P.hessian_vec(th, v, b)
        try:
            z = one_step(z, grad, spec, rng, hess=hess)
        except DivergenceError as err:
            err.step_index = i
            err.partial = (np.array(thetas).reshape(-1, d),
                           np.array(momenta).reshape(-1, d))
            raise
        if i > cfg.burn_in and (i - cfg.burn_in) % cfg.thinning == 0:
            thetas.append(z.theta)
            momenta.append(z.r)
            steps.append(i)
    mult = spec.n_inner if spec.scheme in (Scheme.LIE_TROTTER, Scheme.HMC_PARTIAL) else 1
    dt = spec.eta * mult
    steps = np.array(steps, dtype=np.int64)
    return (np.array(thetas).reshape(-1, d), np.array(momenta).reshape(-1, d),
            steps, steps.astype(float) * dt, total * dt)


@dataclass(frozen=True)
class Toy:
    """The conjugate scalar model in closed form: observations x1, x2, each
    N(theta, sigma_x2), and the prior N(0, sigma_theta2). Its posterior is
    N(center_full, sigma_l2) with v = sigma_x2 / sigma_theta2 + 2,
    sigma_l2 = sigma_x2 / v and center_full = (x1 + x2) / v; with the
    K = 2 gradient scaling, observation i's sub-potential has the full
    curvature and the center 2 x_i / v."""

    sigma_x2: float
    sigma_theta2: float
    x1: float
    x2: float

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

    def drift(self, friction: float) -> np.ndarray:
        return np.array([[-friction, -1.0 / self.sigma_l2], [1.0, 0.0]])

    @property
    def stationary_cov(self) -> np.ndarray:
        return np.diag([1.0, self.sigma_l2])

    def model(self, n_batches: int = 2):
        """The toy as the package's `LinearGaussian` on a column of ones."""
        from hsde.potentials import LinearGaussian

        return LinearGaussian(np.ones((2, 1)), (self.x1, self.x2), noise_var=self.sigma_x2,
                              prior_var=self.sigma_theta2, n_batches=n_batches)


# the toy `repro.build_model("toy")` builds
REFERENCE_TOY = Toy(sigma_x2=2.0, sigma_theta2=0.5, x1=4.0, x2=-3.2)


def toy_kernel_tables(toy: Toy, friction: float, eta: float) -> dict:
    """The exact step's (E, b, L) per batch id from the closed-form
    constants: -1 the full potential, 0 and 1 the two observations' K = 2
    sub-potentials. E = exp(eta A) (`matexp2`), b = (0, center) and L the
    eigen square root of S - E S E^T, symmetrized, its eigenvalues clamped
    at zero and the matrix rebuilt before the root is taken."""
    from hsde.toy_exact import matexp2

    E = matexp2(toy.drift(friction), eta)
    S = toy.stationary_cov
    cov = S - E @ S @ E.T
    cov = 0.5 * (cov + cov.T)
    vals, vecs = np.linalg.eigh(cov)
    assert vals.min() >= -1e-12
    cov = (vecs * np.clip(vals, 0.0, None)) @ vecs.T
    vals, vecs = np.linalg.eigh(cov)
    L = vecs * np.sqrt(np.clip(vals, 0.0, None))
    centers = {-1: toy.center_full, 0: toy.centers[0], 1: toy.centers[1]}
    return {k: (E, np.array([0.0, c]), L) for k, c in centers.items()}


def reference_exact_chain(toy, eta, mode, cfg, chain_index=0, *, friction):
    """One exact-kernel chain on `toy` in batch mode `mode` stepped one
    2-vector at a time with `toy_kernel_tables`: per step one `normal(2)`
    call on stream 4c and, on stream 4c + 2, one coin `integers(2)` call
    (iid) or one `BatchSchedule("perm", 2, ...).next()` call (perm).

    Returns (thetas, momenta, steps, times, effective_time).
    """
    from hsde.batching import BatchMode, BatchSchedule
    from hsde.core import RngStream, State

    mode = BatchMode(mode)
    rng = RngStream(cfg.seed, 4 * chain_index)
    coin = RngStream(cfg.seed, 4 * chain_index + 2)
    sweep = BatchSchedule(BatchMode.PERMUTATION_SWEEP, 2, coin)
    if isinstance(cfg.init, State):
        z = np.array([cfg.init.r[0], cfg.init.theta[0]])
    else:
        draws = RngStream(cfg.seed, 4 * chain_index + 1).normal(2)
        z = np.array([draws[0], np.sqrt(toy.sigma_theta2) * draws[1]])
    kernels = toy_kernel_tables(toy, float(friction), float(eta))
    total = cfg.burn_in + cfg.n_samples * cfg.thinning
    thetas, momenta, steps = [], [], []
    for i in range(1, total + 1):
        if mode is BatchMode.FULL:
            E, b, L = kernels[-1]
        elif mode is BatchMode.IID_UNIFORM:
            E, b, L = kernels[coin.integers(2)]
        else:
            E, b, L = kernels[sweep.next()]
        z = E @ (z - b) + b + L @ rng.normal(2)
        if i > cfg.burn_in and (i - cfg.burn_in) % cfg.thinning == 0:
            momenta.append(z[0])
            thetas.append(z[1])
            steps.append(i)
    steps = np.array(steps, dtype=np.int64)
    return (np.array(thetas).reshape(-1, 1), np.array(momenta).reshape(-1, 1),
            steps, steps.astype(float) * eta, total * eta)


def reference_permutation(rng, n):
    """Fisher-Yates with one `integers(i + 1)` call per swap, i = n-1 .. 1."""
    perm = np.arange(n)
    for i in range(n - 1, 0, -1):
        j = rng.integers(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def reference_subset(rng, n, k):
    """Partial Fisher-Yates over a dict-backed array, one `integers(n - i)`
    call per swap."""
    swap = {}
    out = np.empty(k, dtype=np.int64)
    for i in range(k):
        j = i + rng.integers(n - i)
        out[i] = swap.get(j, j)
        swap[j] = swap.get(i, i)
    return out


def reference_matrix_exp(A, terms=25):
    """Scaling-and-squaring exponential of one matrix: the 1-norm from
    `np.linalg.norm`, a `terms`-term Taylor series, then s squarings."""
    A = np.asarray(A, dtype=np.float64)
    n = A.shape[0]
    norm = float(np.linalg.norm(A, 1))
    s = 0
    if norm > 0.5:
        s = int(np.ceil(np.log2(norm))) + 1
    B = A / float(2**s)
    E = np.eye(n)
    term = np.eye(n)
    for k in range(1, terms + 1):
        term = term @ B / k
        E = E + term
    for _ in range(s):
        E = E @ E
    return E


def reference_spectral_norm(M, n_iters=50):
    """Power iteration on M^T M normalized with `np.linalg.norm`."""
    M = np.asarray(M, dtype=np.float64)
    G = M.T @ M
    n = G.shape[0]
    v = np.ones(n) / np.sqrt(n)
    for _ in range(n_iters):
        w = G @ v
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return 0.0
        v = w / norm
    return float(np.sqrt(max(float(v @ (G @ v)), 0.0)))


def reference_ks_vs_gaussian(sorted_values, mean, variance):
    """One-sample Kolmogorov distance against N(mean, variance), one
    temporary per operation."""
    from scipy.special import erf

    n = sorted_values.size
    z = (sorted_values - float(mean)) / np.sqrt(float(variance))
    cdf = 0.5 * (1.0 + erf(z / np.sqrt(2.0)))
    steps = np.arange(n + 1) / n
    upper = np.abs(steps[1:] - cdf).max()
    lower = np.abs(steps[:-1] - cdf).max()
    return float(max(upper, lower))


def reference_kolmogorov_distance(a_values, b_values):
    """Two-sample Kolmogorov distance over the pooled distinct points, taken
    with np.unique."""
    pooled = np.unique(np.concatenate([a_values, b_values]))
    fa = np.searchsorted(a_values, pooled, side="right") / a_values.size
    fb = np.searchsorted(b_values, pooled, side="right") / b_values.size
    return float(np.abs(fa - fb).max())


def reference_self_distance(oracle_values, m, reps, rng):
    """Self-distance quantiles with np.quantile over distances from
    `reference_kolmogorov_distance`, the subsamples drawn as the package does."""
    dists = np.empty(reps)
    for i in range(reps):
        first = np.sort(oracle_values[rng.subset(oracle_values.size, m)])
        second = np.sort(oracle_values[rng.subset(oracle_values.size, m)])
        dists[i] = reference_kolmogorov_distance(first, second)
    return tuple(float(q) for q in np.quantile(dists, [0.05, 0.5, 0.95]))


def reference_fit_slope(lx, ly):
    """(slope, r_squared) of the least-squares line through one row of logs:
    np.polyfit on that row alone, the sums of squares through np.dot, and
    r_squared 1 for a flat row."""
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    dev = ly - ly.mean()
    ss_res, ss_tot = float(np.dot(resid, resid)), float(np.dot(dev, dev))
    return float(slope), 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot


def reference_order_trials(n_trials, rng, etas, modes, k_choices, n_choices):
    """Splitting-order trials with every product mode built from the public
    `splitting_product` / `randomized_expectation`, the exact semigroup
    recomputed per mode and errors measured by `reference_spectral_norm`.
    Returns [(trial, K, n, mode, errors, slope, r2)]."""
    from hsde.operator_lab import (
        GeneratorSet,
        error_order_slope,
        matrix_exp,
        randomized_expectation,
        splitting_product,
    )

    out = []
    for t in range(n_trials):
        k = k_choices[rng.integers(len(k_choices))]
        n = n_choices[rng.integers(len(n_choices))]
        G = GeneratorSet(tuple(rng.uniform(-1.0, 1.0, n * n).reshape(n, n)
                               for _ in range(k)))
        for mode in modes:
            errs = []
            for eta in etas:
                exact = matrix_exp(eta * k * G.total)
                if mode == "randomized":
                    approx = randomized_expectation(G, eta)
                else:
                    approx = splitting_product(G, eta, mode)
                errs.append(reference_spectral_norm(approx - exact))
            slope, r2 = error_order_slope(etas, errs)
            out.append((t, k, n, mode, tuple(errs), slope, r2))
    return out


def _fmt_17g(x) -> str:
    return format(float(x), ".17g")


def reference_save_trace(trace, csv_path) -> None:
    """Trace CSV one row at a time, every sample cell through float() and
    `.17g`."""
    d = trace.dim
    header = (["step", "time"] + [f"theta_{j}" for j in range(d)]
              + [f"r_{j}" for j in range(d)])
    lines = [",".join(header)]
    for i in range(trace.n_samples):
        row = [str(int(trace.steps[i])), _fmt_17g(trace.times[i])]
        row += [_fmt_17g(v) for v in trace.thetas[i]]
        row += [_fmt_17g(v) for v in trace.momenta[i]]
        lines.append(",".join(row))
    with open(csv_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def reference_write_csv(path, fields, rows) -> None:
    """Dict rows one line at a time: float cells (numpy float64 included)
    through `.17g`, everything else through str."""
    body = [",".join(fields)]
    for row in rows:
        body.append(",".join(
            _fmt_17g(row[f]) if isinstance(row[f], float) else str(row[f])
            for f in fields))
    with open(path, "w") as fh:
        fh.write("\n".join(body) + "\n")


def reference_checks_csv(path, checks) -> None:
    """A report's checks.csv, one check per line with its value at `.17g`."""
    lines = ["check,status,value,target"]
    for c in checks:
        lines.append(f"{c.name},{c.status},{_fmt_17g(c.value)},{c.target}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def reference_kernel(scheme, n_inner, k):
    """The stepper of every scheme over the constants k (as
    `integrators._constants` builds them), each step formula one expression
    on fresh arrays."""
    from hsde.integrators import Scheme

    scheme = Scheme(scheme)
    eta, half_eta, eta_C, C = k["eta"], k["half_eta"], k["eta_C"], k["C"]

    def det_leapfrog(r, th, grad):
        th_half = th + half_eta * r
        r_new = r - eta * grad(th_half)
        th_new = th_half + half_eta * r_new
        return r_new, th_new

    if scheme is Scheme.EULER:
        def stepper(r, th, grad, hess, noise):
            th_new = th + eta * r
            r_new = r - eta_C * r - eta * grad(th) + k["noise_std"] * noise[0]
            return r_new, th_new
    elif scheme in (Scheme.LEAPFROG, Scheme.SGHMC):
        def stepper(r, th, grad, hess, noise):
            th_half = th + half_eta * r
            r_new = (r - eta * grad(th_half) - eta_C * r
                     + k["noise_std"] * noise[0])
            th_new = th_half + half_eta * r_new
            return r_new, th_new
    elif scheme is Scheme.SPV:
        def stepper(r, th, grad, hess, noise):
            th_half = th + half_eta * r
            r_new = k["decay"] * r - k["kick"] * grad(th_half) + k["noise_std"] * noise[0]
            th_new = th_half + half_eta * r_new
            return r_new, th_new
    elif scheme in (Scheme.LIE_TROTTER, Scheme.HMC_PARTIAL):
        def stepper(r, th, grad, hess, noise):
            for _ in range(n_inner):
                r, th = det_leapfrog(r, th, grad)
            return k["decay"] * r + k["noise_std"] * noise[0], th
    elif scheme is Scheme.SYMMETRIC:
        def stepper(r, th, grad, hess, noise):
            r = k["decay"] * r + k["noise_std"] * noise[0]
            r, th = det_leapfrog(r, th, grad)
            return k["decay"] * r + k["noise_std"] * noise[1], th
    else:
        def stepper(r, th, grad, hess, noise):
            th1 = th + k["c1_eta"] * r
            g1 = grad(th1)
            r1 = (r - k["c1_eta"] * g1) / k["den1"]
            F1 = -g1 - C * r1

            th2 = th + k["th2_r"] * r + k["th2_f1"] * F1
            g2 = grad(th2)
            r2 = (r + k["r_f"] * F1 - k["c2_eta"] * g2) / k["den2"]
            F2 = -g2 - C * r2

            th3 = th + eta * r + k["th3_f1"] * F1 + k["th3_f2"] * F2
            g3 = grad(th3)
            r3 = (r + k["r_f"] * (F1 - F2) - eta * g3) / k["den3"]

            w1, w2 = noise
            mix = w1 * 0.5 + w2
            th_new = th3 + k["amp_mix"] * mix - k["amp_high_C"] * w1
            r_new = (
                r3
                + k["amp_r"] * w1
                - k["amp_mix_C"] * mix
                - k["amp_high"] * hess(th3, w1)
                + k["amp_high_CC"] * w1
            )
            return r_new, th_new
    return stepper



def reference_geom_states(spec, potential, seed, states, eps=1e-5):
    """(det J, symplectic residual) per probe state, in draw order, as the
    geom command computed them one state at a time: the state's r then its
    theta drawn by two `normal(d)` calls on stream (seed, 1), its step's
    draws on stream (seed, 4 idx), and a central-difference Jacobian built
    column by column from one-point steps with `Potential.gradient` and
    `Potential.hessian_vec`; then det and the spectral norm of
    J^T form J - form for that one matrix."""
    from hsde.core import RngStream
    from hsde.integrators import compile_step, noise_draws
    from hsde.operator_lab import spectral_norm

    d = potential.dim
    stepper = compile_step(spec)
    form = np.zeros((2 * d, 2 * d))
    form[:d, d:] = -np.eye(d)
    form[d:, :d] = np.eye(d)
    draw = RngStream(seed, 1)
    out = []
    for idx in range(states):
        base = np.concatenate([draw.normal(d), draw.normal(d)])
        rng = RngStream(seed, 4 * idx)
        noise = [rng.normal(d) for _ in range(noise_draws(spec.scheme))]
        J = np.empty((2 * d, 2 * d))
        for n in range(2 * d):
            plus = base.copy()
            minus = base.copy()
            plus[n] += eps
            minus[n] -= eps
            rp, tp = stepper(plus[:d], plus[d:], potential.gradient,
                             potential.hessian_vec, noise)
            rm, tm = stepper(minus[:d], minus[d:], potential.gradient,
                             potential.hessian_vec, noise)
            J[:, n] = np.concatenate([rp - rm, tp - tm]) / (2.0 * eps)
        out.append((float(np.linalg.det(J)), spectral_norm(J.T @ form @ J - form)))
    return out
