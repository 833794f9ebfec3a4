"""Negative log-posterior potentials with mini-batch sub-potentials.

Each model represents U(theta) = -log p(data | theta) - log p(theta) for a
Bayesian model, split into K sub-potentials over contiguous near-equal data
blocks. Batch id None means the full potential; batch id i in {0..K-1} means
the raw sub-potential

    U_i(theta) = nll over block i + (1/K) * prior(theta)

so that sum_i U_i = U exactly. `value`, `gradient` and `hessian_vec` give
these raw pieces. A mini-batch step instead sees K U_i: the simulated SDE
replaces grad U by K grad U_i, which is unbiased for the full gradient when
i is drawn uniformly (exactly so when averaged over one complete sweep of the
K blocks). That rule lives here alone: `Potential.step_providers`, the one
way gradients reach a stepper, gives a block row's gradient and
Hessian-vector product times K and a full row's unscaled.

All gradients and Hessian-vector products are hand-derived and exact. The
command line's 1-d conjugate toy model is a `LinearGaussian` on a column of
ones, so both Gaussian models share one gradient path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import RngStream, as_vector

__all__ = [
    "GaussianPosterior",
    "AnalyticPosteriorUnavailable",
    "Potential",
    "LinearGaussian",
    "Logistic2D",
    "make_logistic_demo",
    "batch_bounds",
]


def _special(name: str):
    """A scipy.special function, imported on first use: importing scipy is
    about half of a CLI call's start-up, and only the logistic model and its
    synthetic dataset need it."""
    import scipy.special

    return getattr(scipy.special, name)


class AnalyticPosteriorUnavailable(RuntimeError):
    """Raised when a model has no closed-form posterior."""


@dataclass(frozen=True)
class GaussianPosterior:
    """Exact Gaussian posterior: mean vector and SPD covariance matrix."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = as_vector(self.mean, "posterior mean")
        cov = np.array(self.cov, dtype=np.float64, copy=True)
        if cov.shape != (mean.size, mean.size):
            raise ValueError("covariance shape must match mean dimension")
        if not np.allclose(cov, cov.T, rtol=1e-12, atol=1e-12):
            raise ValueError("covariance must be symmetric")
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise ValueError("covariance must be positive definite") from None
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.size


def batch_bounds(n_obs: int, n_batches: int) -> list[tuple[int, int]]:
    """Contiguous near-equal [lo, hi) blocks; earlier blocks take the remainder."""
    if n_batches < 1:
        raise ValueError("n_batches must be >= 1")
    if n_batches > max(n_obs, 1):
        raise ValueError("n_batches cannot exceed the number of observations")
    base, extra = divmod(n_obs, n_batches)
    bounds = []
    lo = 0
    for i in range(n_batches):
        hi = lo + base + (1 if i < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


class Potential:
    """Base class: prior handling, batch partition, and shared validation.

    Subclasses set `dim`, `n_obs`, and implement the data-term pieces
    `_nll_value`, `_nll_grad`, `_nll_hess_vec` over an index slice.
    """

    def __init__(self, dim: int, n_obs: int, prior_var, n_batches: int = 1):
        self.dim = int(dim)
        self.n_obs = int(n_obs)
        pv = np.asarray(prior_var, dtype=np.float64)
        if pv.ndim == 0:
            pv = np.full(self.dim, float(pv))
        pv = as_vector(pv, "prior variance")
        if pv.size != self.dim or np.any(pv <= 0):
            raise ValueError("prior variance must be positive with one entry per parameter")
        self.prior_var = pv
        self.n_batches = int(n_batches)
        # (data slice, prior weight) per batch id; -1 is the full potential
        self._slices = {
            b: (slice(lo, hi), 1.0 / self.n_batches)
            for b, (lo, hi) in enumerate(batch_bounds(self.n_obs, self.n_batches))
        }
        self._slices[-1] = (slice(0, self.n_obs), 1.0)

    # data-term hooks over a contiguous slice
    def _nll_value(self, theta: np.ndarray, sl: slice) -> float:
        raise NotImplementedError

    def _nll_grad(self, theta: np.ndarray, sl: slice) -> np.ndarray:
        raise NotImplementedError

    def _nll_hess_vec(self, theta: np.ndarray, v: np.ndarray, sl: slice) -> np.ndarray:
        raise NotImplementedError

    def _check_theta(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (self.dim,):
            raise ValueError(f"theta must have shape ({self.dim},), got {theta.shape}")
        return theta

    def _batch_key(self, batch) -> int:
        """Validate a public batch id (None or 0..K-1) into a `_slices` key."""
        if batch is None:
            return -1
        batch = int(batch)
        if not 0 <= batch < self.n_batches:
            raise ValueError(f"batch id {batch} out of range [0, {self.n_batches})")
        return batch

    def value(self, theta, batch=None) -> float:
        """U(theta) for batch None, else raw sub-potential U_i(theta)."""
        theta = self._check_theta(theta)
        sl, w = self._slices[self._batch_key(batch)]
        prior = 0.5 * float(np.dot(theta, theta / self.prior_var))
        return self._nll_value(theta, sl) + w * prior

    def gradient(self, theta, batch=None) -> np.ndarray:
        """Exact gradient of `value` at the same batch id."""
        return self._raw_gradient(self._check_theta(theta), self._batch_key(batch))

    def hessian_vec(self, theta, v, batch=None) -> np.ndarray:
        """(Hessian of `value`) @ v at the same batch id."""
        return self._raw_hessian_vec(self._check_theta(theta), self._check_theta(v),
                                     self._batch_key(batch))

    def _raw_gradient(self, theta, key) -> np.ndarray:
        sl, w = self._slices[key]
        return self._nll_grad(theta, sl) + w * (theta / self.prior_var)

    def _raw_hessian_vec(self, theta, v, key) -> np.ndarray:
        sl, w = self._slices[key]
        return self._nll_hess_vec(theta, v, sl) + w * (v / self.prior_var)

    def step_providers(self, ids_chunk: np.ndarray):
        """The step-indexed gradient and Hessian-vector providers of a chunk
        of steps: ids_chunk is (m, R) batch ids, -1 marking the full
        potential, and step j's are grad(j, x) and hess(j, x, v). For one
        chain (R = 1) they map d-vectors to `gradient` / `hessian_vec` at
        batch ids_chunk[j, 0]; for R chains they map (R, d) rows to the
        array whose row c is `gradient` / `hessian_vec` of row c at batch
        ids_chunk[j, c]. A block row's result is times K, a full row's is
        not (see the module docstring). A result may be overwritten by the
        provider's next call. Here each call takes the per-row formula
        (`_raw_gradient` / `_raw_hessian_vec`) row by row and multiplies a
        block row's fresh result by K in place; a model may instead resolve
        the chunk's operands once and write into arrays it owns."""
        mul, K = np.multiply, float(self.n_batches)
        one = ids_chunk.shape[1] == 1
        # a lone chain's ids as one flat list, an ensemble's read a step at a
        # time: a list per step would cost a long chunk more than its noise
        keys = ids_chunk[:, 0].tolist() if one else ids_chunk

        def row(formula, key, *xs):
            out = formula(*xs, key)
            return out if key < 0 else mul(K, out, out)

        def per_row(formula, keys_j, *xs):
            if one:
                return row(formula, keys_j, *xs)
            out = np.empty_like(xs[-1])
            for c, key in enumerate(keys_j.tolist()):
                out[c] = row(formula, key, *(x[c] for x in xs))
            return out

        return (lambda j, x: per_row(self._raw_gradient, keys[j], x),
                lambda j, x, v: per_row(self._raw_hessian_vec, keys[j], x, v))

    def analytic_posterior(self) -> GaussianPosterior:
        raise AnalyticPosteriorUnavailable(
            f"{type(self).__name__} has no closed-form posterior"
        )

    def sample_prior(self, rng: RngStream) -> np.ndarray:
        """One draw theta ~ N(0, diag(prior_var))."""
        return np.sqrt(self.prior_var) * rng.normal(self.dim)


class LinearGaussian(Potential):
    """Linear regression: y = features @ theta + eps, eps ~ N(0, noise_var I)."""

    def __init__(self, features, targets, noise_var: float, prior_var, n_batches: int = 1):
        Phi = np.array(features, dtype=np.float64, copy=True, order="C")
        y = as_vector(targets, "targets") if np.size(targets) else np.zeros(0)
        if Phi.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if Phi.shape[0] != y.size:
            raise ValueError("features and targets must agree on row count")
        if noise_var <= 0:
            raise ValueError("noise_var must be > 0")
        self.features = Phi
        self.targets = y
        self.noise_var = float(noise_var)
        super().__init__(
            dim=Phi.shape[1], n_obs=Phi.shape[0], prior_var=prior_var, n_batches=n_batches
        )
        # operands of the one-row path by batch id: views F of the batch's
        # design rows and FT of their transpose, its targets, a scratch for
        # F @ x, and its prior weight and scale (K for a block) spread over
        # (d,), each None where it is 1
        K = float(self.n_batches)
        self._row_ops = {b: (Phi[sl], Phi[sl].T, y[sl], np.empty(sl.stop - sl.start),
                             *(None if f == 1.0 else np.full(self.dim, f)
                               for f in (w, 1.0 if b < 0 else K)))
                         for b, (sl, w) in self._slices.items()}
        # the stacked path's equal blocks as (K, rows, d) and (K, rows)
        self._blocks = None
        self._unit_prior = bool(np.all(self.prior_var == 1.0))
        if self.n_obs % self.n_batches == 0:
            rows = self.n_obs // self.n_batches
            self._blocks = (Phi.reshape(self.n_batches, rows, self.dim),
                            y.reshape(self.n_batches, rows))

    def _nll_value(self, theta, sl):
        resid = self.features[sl] @ theta - self.targets[sl]
        return 0.5 * float(np.dot(resid, resid)) / self.noise_var

    def _nll_grad(self, theta, sl):
        resid = self.features[sl] @ theta - self.targets[sl]
        return (self.features[sl].T @ resid) / self.noise_var

    def _nll_hess_vec(self, theta, v, sl):
        return (self.features[sl].T @ (self.features[sl] @ v)) / self.noise_var

    # One row's np.dot on a 2-D block and its transposed view, and stacked
    # (n, size, d) matmuls through the transposed view, run the same BLAS
    # gemv as the per-row `features[sl].T @ resid`, so the bits match;
    # Gram-matrix forms, einsum and a contiguous transpose do not. An
    # ensemble makes one such call per group.
    def step_providers(self, ids_chunk):
        """A lone chain takes the one-row path, step j on its batch's
        `_row_ops` entry. An ensemble takes the stacked path where
        `_chunk_groups` serves the chunk: each group's matmuls write into its
        rows of one (R, d) result, and the rest of the formula runs once
        over all R rows, each row at its own prior weight. The providers
        write into arrays they own."""
        R = ids_chunk.shape[1]
        if R == 1:
            ops = self._row_ops
            return self._row_providers(
                [ops[b] for b in ids_chunk[:, 0].tolist()].__getitem__)
        groups = self._chunk_groups(ids_chunk)
        if groups is None:
            return super().step_providers(ids_chunk)
        matmul, sub = np.matmul, np.subtract
        shape = (R, self.dim)
        finish = self._finisher(shape)
        # prior weight 1/K and scale K on block rows, 1 on full rows (1.0 * q
        # is q bit for bit); None where every row's factor is 1
        on_full = ids_chunk[0, :, None] < 0
        w, s = (None if f == 1.0 or on_full.all() else np.where(on_full, 1.0, np.full(shape, f))
                for f in (1.0 / self.n_batches, float(self.n_batches)))
        g, hv = np.empty(shape), np.empty(shape)
        # per group: its rows, its operands, F @ x (then the residual) in
        # place, and its rows of g and hv as matmul outputs
        parts = []
        for rows, size, step_ops in groups:
            Fx = np.empty((rows.stop - rows.start, size, 1))
            parts.append((rows, step_ops, Fx, Fx[..., 0], g[rows, :, None], hv[rows, :, None]))

        def grad(j, x):
            # (FT @ (F @ x - y)) / noise_var + w (x / prior_var)
            for rows, step_ops, Fx, Fx_2d, g_3d, _ in parts:
                F, FT, y = step_ops(j)
                matmul(F, x[rows, :, None], Fx)
                sub(Fx_2d, y, Fx_2d)
                matmul(FT, Fx, g_3d)
            return finish(g, x, w, s)

        def hess(j, x, v):
            # (FT @ (F @ v)) / noise_var + w (v / prior_var)
            for rows, step_ops, Fx, _, _, hv_3d in parts:
                F, FT, _ = step_ops(j)
                matmul(F, v[rows, :, None], Fx)
                matmul(FT, Fx, hv_3d)
            return finish(hv, v, w, s)

        return grad, hess

    def _chunk_groups(self, ids_chunk):
        """The stacked operands of a chunk of (m, R) batch ids, one group
        (rows, size, step_ops) per contiguous run of full rows or of block
        rows, in row order: rows a slice, and step_ops(j) step j's (F, FT,
        y), design blocks F (n or 1, size, d), their transposed view FT and
        targets y. None where the per-row path serves the chunk: a row that
        switches between the full potential and blocks, or block rows on
        unequal blocks."""
        on_full = ids_chunk[0] < 0
        switches = ((ids_chunk < 0) != on_full).any()
        if switches or (self._blocks is None and not on_full.all()):
            return None
        cuts = [0, *(np.flatnonzero(on_full[1:] != on_full[:-1]) + 1).tolist(), len(on_full)]
        return [(slice(lo, hi),
                 *(self._full_steps if on_full[lo] else self._gathered)(ids_chunk[:, lo:hi]))
                for lo, hi in zip(cuts, cuts[1:])]

    def _full_steps(self, ids_chunk):
        """(size, step_ops) of a full group: the whole design every step,
        the targets repeated per row (same-shape operations skip
        broadcasting, the slow path for small arrays)."""
        F, FT, y, *_ = self._row_ops[-1]
        ops = (F[None], FT[None], np.tile(y, (ids_chunk.shape[1], 1)))
        return self.n_obs, lambda j: ops

    def _gathered(self, ids_chunk):
        """(size, step_ops) of a block group: step j's design blocks, their
        transposed view and targets, gathered the first time step j asks and
        kept for its later calls, so one step's blocks are held at a time."""
        F, y = self._blocks
        held = [-1, None]

        def step_ops(j):
            if j != held[0]:
                # step j - 1's blocks are freed first; `take` copies as indexing
                # does, 4x faster; FT is a view, as a transposed copy adds memory
                held[1] = None
                ids = ids_chunk[j]
                F_j = F.take(ids, 0)
                held[:] = j, (F_j, F_j.swapaxes(1, 2), y.take(ids, 0))
            return held[1]

        return F.shape[1], step_ops

    def _finisher(self, shape):
        """finish(out, u, w, s): (out / noise_var + w (u / prior_var)) s, in
        place in out, over states of `shape`; w and s are the prior weight
        and the scale spread over `shape`, None where they are 1. Unit
        factors are skipped (x / 1.0 and 1.0 * x are x bit for bit)."""
        mul, add, div = np.multiply, np.add, np.divide
        # factors spread over the state's shape, as the stepper's constants are
        noise_var = None if self.noise_var == 1.0 else np.full(shape, self.noise_var)
        prior_var = (None if self._unit_prior
                     else np.ascontiguousarray(np.broadcast_to(self.prior_var, shape)))
        p = np.empty(shape)

        def finish(out, u, w, s):
            if noise_var is not None:
                div(out, noise_var, out)
            q = u if prior_var is None else div(u, prior_var, p)
            add(out, q if w is None else mul(w, q, p), out)
            return out if s is None else mul(s, out, out)

        return finish

    def _row_providers(self, step_ops):
        """(grad, hess) of one row, over d-vectors: grad(j, x) and hess(j,
        x, v) are the gradient and Hessian-vector product on step_ops(j)'s
        `_row_ops` entry at its prior weight and scale, written into arrays
        made here and overwritten by each call.

        Each is the per-row formula's numpy calls in order.
        """
        sub, dot = np.subtract, np.dot
        finish = self._finisher((self.dim,))
        g, hv = np.empty(self.dim), np.empty(self.dim)

        def grad(j, x):
            # (FT @ (F @ x - y)) / noise_var + w (x / prior_var)
            F, FT, y, Fx, w, s = step_ops(j)
            dot(F, x, Fx)
            sub(Fx, y, Fx)
            return finish(dot(FT, Fx, g), x, w, s)

        def hess(j, x, v):
            # (FT @ (F @ v)) / noise_var + w (v / prior_var)
            F, FT, _, Fx, w, s = step_ops(j)
            return finish(dot(FT, dot(F, v, Fx), hv), v, w, s)

        return grad, hess

    def analytic_posterior(self) -> GaussianPosterior:
        precision = self.features.T @ self.features / self.noise_var + np.diag(
            1.0 / self.prior_var
        )
        cov = np.linalg.inv(precision)
        cov = 0.5 * (cov + cov.T)
        mean = cov @ (self.features.T @ self.targets) / self.noise_var
        return GaussianPosterior(mean=mean, cov=cov)


class Logistic2D(Potential):
    """Two-parameter logistic regression with Gaussian prior.

    U(theta) = sum_i log(1 + exp(-s_i theta.x_i)) + 0.5 ||theta||^2 / prior_var
    with signs s_i = 2 y_i - 1.
    """

    def __init__(self, features, labels, prior_var=1.0, n_batches: int = 1):
        X = np.array(features, dtype=np.float64, copy=True)
        if X.ndim != 2 or X.shape[1] != 2:
            raise ValueError("features must be an n x 2 matrix")
        if X.shape[0] < 1:
            raise ValueError("need at least one observation")
        labels = np.asarray(labels)
        if labels.shape != (X.shape[0],) or not np.all(np.isin(labels, (0, 1))):
            raise ValueError("labels must be one 0/1 value per row")
        self.features = X
        self.signs = 2.0 * np.asarray(labels, dtype=np.float64) - 1.0
        super().__init__(
            dim=2, n_obs=X.shape[0], prior_var=prior_var, n_batches=n_batches
        )

    def _margins(self, theta, sl):
        return self.signs[sl] * (self.features[sl] @ theta)

    def _nll_value(self, theta, sl):
        # log(1 + exp(-z)) evaluated stably
        z = self._margins(theta, sl)
        return float(np.sum(np.logaddexp(0.0, -z)))

    def _nll_grad(self, theta, sl):
        z = self._margins(theta, sl)
        coef = -self.signs[sl] * _special("expit")(-z)
        return self.features[sl].T @ coef

    def _nll_hess_vec(self, theta, v, sl):
        z = self._margins(theta, sl)
        p = _special("expit")(z)
        weights = p * (1.0 - p)
        return self.features[sl].T @ (weights * (self.features[sl] @ v))


def make_logistic_demo(n_obs: int, rng: RngStream, n_batches: int = 1) -> Logistic2D:
    """Synthetic two-feature logistic dataset with generating weights
    (1.5, -1)."""
    if n_obs < 1:
        raise ValueError("n_obs must be >= 1")
    X = rng.normal(2 * n_obs).reshape(n_obs, 2)
    p = _special("expit")(X @ np.array([1.5, -1.0]))
    # uniforms obtained by pushing normal draws through their CDF, so the
    # whole generator stays on the single normal-draw RNG contract
    labels = (_special("ndtr")(rng.normal(n_obs)) < p).astype(int)
    return Logistic2D(X, labels, n_batches=n_batches)

