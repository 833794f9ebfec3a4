"""Independent reference computations used by the test suite.

Everything here is written against the mathematical definitions directly,
in code paths disjoint from the package implementation:

- exact-arithmetic (sympy) single-step evaluation of every integrator scheme
  on a scalar quadratic potential U(theta) = lam/2 (theta - c)^2,
- an RK4 integrator for the first/second-moment ODEs of the 2-D linear SDE
  behind the conjugate toy model,
- composite Simpson quadrature for its covariance integral,
- a brute-force O(n*m) two-sample Kolmogorov distance,
- central finite differences for gradients and Jacobians,
- scipy's Pade matrix exponential / logarithm as the semigroup reference,
- a plain one-chain sampling loop over the public single-step API, the
  semantics every chain of an ensemble run must reproduce bit for bit.

These act as the frozen oracles that implementation outputs are compared to.
"""

from __future__ import annotations

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
    """One integrator step on U(theta) = lam/2 (theta - c)^2, scalar state.

    All arithmetic is exact (sympy) until the final float conversion. Noise
    values are injected explicitly; each method documents the draw order it
    consumes, mirroring the package's documented order.
    """

    def __init__(self, lam, c, eta, C, m=1):
        self.lam = _num(lam)
        self.c = _num(c)
        self.eta = _num(eta)
        self.C = _num(C)
        self.m = _num(m)

    def grad(self, theta):
        return self.lam * (theta - self.c)

    def euler(self, r, th, w0):
        r, th, w0 = map(_num, (r, th, w0))
        eta, C, m = self.eta, self.C, self.m
        th1 = th + eta * r / m
        r1 = r - eta * C * r / m - eta * self.grad(th) + sp.sqrt(2 * C * eta) * w0
        return _f(r1), _f(th1)

    def leapfrog(self, r, th, w0, noise_scale=None):
        r, th, w0 = map(_num, (r, th, w0))
        eta, C, m = self.eta, self.C, self.m
        scale = sp.sqrt(2 * C * eta) if noise_scale is None else _num(noise_scale)
        th_half = th + eta / 2 * r / m
        r1 = r - eta * self.grad(th_half) - eta * C * r / m + scale * w0
        th1 = th_half + eta / 2 * r1 / m
        return _f(r1), _f(th1)

    def sghmc(self, r, th, w0, v_hat):
        return self.leapfrog(
            r, th, w0, noise_scale=sp.sqrt(2 * (self.C - _num(v_hat)) * self.eta)
        )

    def _det_leapfrog(self, r, th):
        eta, m = self.eta, self.m
        th_half = th + eta / 2 * r / m
        r1 = r - eta * self.grad(th_half)
        th1 = th_half + eta / 2 * r1 / m
        return r1, th1

    def lie_trotter(self, r, th, w0, n_inner=1):
        r, th, w0 = map(_num, (r, th, w0))
        for _ in range(n_inner):
            r, th = self._det_leapfrog(r, th)
        a = sp.exp(-self.C * n_inner * self.eta / self.m)
        r = a * r + sp.sqrt(self.m * (1 - a**2)) * w0
        return _f(r), _f(th)

    def symmetric(self, r, th, w0, w1):
        r, th, w0, w1 = map(_num, (r, th, w0, w1))
        a = sp.exp(-self.C * (self.eta / 2) / self.m)
        std = sp.sqrt(self.m * (1 - a**2))
        r = a * r + std * w0
        r, th = self._det_leapfrog(r, th)
        r = a * r + std * w1
        return _f(r), _f(th)

    def spv(self, r, th, w0):
        r, th, w0 = map(_num, (r, th, w0))
        eta, C, m = self.eta, self.C, self.m
        th_half = th + eta / 2 * r / m
        a = sp.exp(-C * eta / m)
        r1 = a * r - (1 - a) * (m / C) * self.grad(th_half) + sp.sqrt(m * (1 - a**2)) * w0
        th1 = th_half + eta / 2 * r1 / m
        return _f(r1), _f(th1)

    def ou_exact(self, r, f, w0):
        r, f, w0 = map(_num, (r, f, w0))
        eta, C, m = self.eta, self.C, self.m
        if C == 0:
            return _f(r - eta * f)
        a = sp.exp(-C * eta / m)
        mu = -(m / C) * f
        return _f(a * (r - mu) + mu + sp.sqrt(m * (1 - a**2)) * w0)

    def mt3(self, r, th, w1, w2):
        """Three-stage third-order step; draws w1 (sqrt-eta noise) then w2."""
        r, th, w1, w2 = map(_num, (r, th, w1, w2))
        eta, C, m, lam = self.eta, self.C, self.m, self.lam
        c1, c2, c3 = sp.Rational(7, 24), sp.Rational(3, 8), sp.Integer(1)

        def force(theta_s, r_s):
            return -self.grad(theta_s) - C * r_s / m

        th1 = th + c1 * eta * r / m
        r1 = (r - c1 * eta * self.grad(th1)) / (1 + c1 * eta * C / m)
        F1 = force(th1, r1)

        th2 = th + sp.Rational(25, 24) * eta * r / m + eta**2 / 2 * F1 / m
        r2 = (r + sp.Rational(2, 3) * eta * F1 - c2 * eta * self.grad(th2)) / (
            1 + c2 * eta * C / m
        )
        F2 = force(th2, r2)

        th3 = (
            th
            + eta * r / m
            + sp.Rational(17, 36) * eta**2 * F1 / m
            + sp.Rational(1, 36) * eta**2 * F2 / m
        )
        r3 = (
            r
            + sp.Rational(2, 3) * eta * F1
            - sp.Rational(2, 3) * eta * F2
            - eta * self.grad(th3)
        ) / (1 + eta * C / m)

        s2c = sp.sqrt(2 * C)
        th_new = (
            th3
            + eta ** sp.Rational(3, 2) * s2c * (w1 / 2 + w2) / m
            - eta ** sp.Rational(5, 2) / 6 * C * s2c * w1 / m**2
        )
        r_new = (
            r3
            + sp.sqrt(eta) * s2c * w1
            - eta ** sp.Rational(3, 2) * C * s2c * (w1 / 2 + w2) / m
            - eta ** sp.Rational(5, 2) / 6 * s2c * lam * w1 / m
            + eta ** sp.Rational(5, 2) / 6 * C**2 * s2c * w1 / m**2
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


def reference_chain(P, spec, sched, cfg, chain_index=0):
    """One chain, one public `step()` per step and one `normal(d)` call per
    noise draw, with gradients from `Potential.gradient` / `hessian_vec`
    (times K on a mini-batch).

    Follows the chain stream convention (noise on 4c, initial state on
    4c + 1; the caller builds the schedule on 4c + 2). Returns (thetas,
    momenta, steps, times, effective_time). On a non-finite state raises the
    step's DivergenceError with `step_index` and `partial` (the kept
    thetas and momenta) set.
    """
    from hsde.core import RngStream, State
    from hsde.integrators import DivergenceError, Scheme, step

    d = P.dim
    if isinstance(cfg.init, State):
        z = cfg.init
    else:
        init_rng = RngStream(cfg.seed, 4 * chain_index + 1)
        theta = P.sample_prior(init_rng)
        z = State(r=spec.mass.sqrt_diag * init_rng.normal(d), theta=theta)
    rng = RngStream(cfg.seed, 4 * chain_index)
    K = float(sched.n_batches)
    total = cfg.burn_in + cfg.n_samples * cfg.thinning
    thetas, momenta, steps = [], [], []
    for i in range(1, total + 1):
        batch, _ = sched.next()
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
            z = step(z, grad, spec, rng, hess=hess)
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
