"""Negative log-posterior potentials with mini-batch sub-potentials.

Each model represents U(theta) = -log p(data | theta) - log p(theta) for a
Bayesian model, split into K sub-potentials over contiguous near-equal data
blocks. Batch id None means the full potential; batch id i in {0..K-1} means
the raw sub-potential

    U_i(theta) = nll over block i + (1/K) * prior(theta)

so that sum_i U_i = U exactly. The K-rescaling used by mini-batch simulation
(multiply gradients by K) is chosen by the caller, which hands the factor to
`Potential.step_providers`; it is never baked in here.

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


def _id_row(R: int, batch_ids) -> np.ndarray:
    """The (1, R) chunk of batch ids of one step's R rows; None is every row
    on the full potential (-1)."""
    return np.full((1, R), -1) if batch_ids is None else np.asarray(batch_ids)[None]


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

    def gradient_many(self, thetas: np.ndarray, batch_ids=None) -> np.ndarray:
        """Row c is `gradient(thetas[c], batch_ids[c])`, bit for bit, in a
        fresh (R, d) array: one step of `step_providers`.

        A raw path for stacked callers: no validation. thetas is (R, d);
        batch_ids is None (every row on the full potential) or R integers
        where -1 marks the full potential.
        """
        grad, _ = self.step_providers(_id_row(len(thetas), batch_ids))
        return grad(0, thetas[0])[None] if len(thetas) == 1 else grad(0, thetas)

    def hessian_vec_many(self, thetas: np.ndarray, vs: np.ndarray,
                         batch_ids=None) -> np.ndarray:
        """Row c is `hessian_vec(thetas[c], vs[c], batch_ids[c])`; raw, as
        `gradient_many`."""
        _, hess = self.step_providers(_id_row(len(thetas), batch_ids))
        return (hess(0, thetas[0], vs[0])[None] if len(thetas) == 1
                else hess(0, thetas, vs))

    def step_providers(self, ids_chunk: np.ndarray, scale=None):
        """The step-indexed gradient and Hessian-vector providers of a chunk
        of steps: ids_chunk is (m, R) batch ids, -1 marking the full
        potential, and step j's are grad(j, x) and hess(j, x, v). For one
        chain (R = 1) they map d-vectors to `gradient` / `hessian_vec` at
        batch ids_chunk[j, 0]; for R chains they map (R, d) rows to the
        array whose row c is `gradient` / `hessian_vec` of row c at batch
        ids_chunk[j, c]. Either is times scale, shaped as x, where given.
        A result may be overwritten by the provider's next call. Here each
        call takes the per-row formula (`_raw_gradient` /
        `_raw_hessian_vec`) row by row and scales its fresh result in place;
        a model may instead resolve the chunk's operands once and write into
        arrays it owns."""
        mul = np.multiply
        one = ids_chunk.shape[1] == 1
        # a lone chain's ids as one flat list, an ensemble's read a step at a
        # time: a list per step would cost a long chunk more than its noise
        keys = ids_chunk[:, 0].tolist() if one else ids_chunk

        def per_row(formula, keys_j, *xs):
            if one:
                return formula(*xs, keys_j)
            out = np.empty_like(xs[-1])
            for c, key in enumerate(keys_j.tolist()):
                out[c] = formula(*(x[c] for x in xs), key)
            return out

        def grad(j, x):
            g = per_row(self._raw_gradient, keys[j], x)
            return g if scale is None else mul(scale, g, g)

        def hess(j, x, v):
            h = per_row(self._raw_hessian_vec, keys[j], x, v)
            return h if scale is None else mul(scale, h, h)

        return grad, hess

    def analytic_posterior(self) -> GaussianPosterior:
        raise AnalyticPosteriorUnavailable(
            f"{type(self).__name__} has no closed-form posterior"
        )

    def sample_prior(self, rng: RngStream) -> np.ndarray:
        """One draw theta ~ N(0, diag(prior_var))."""
        return np.sqrt(self.prior_var) * rng.normal(self.dim)


# the most bytes of design blocks `LinearGaussian` gathers at once for a
# chunk of steps: a whole chunk for the CLI's models, a step or a few for a
# large design, whose chunk of blocks can run to hundreds of MB
_GATHER_BYTES = 1 << 19


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
        # F @ x and its prior weight spread over (d,), None where it is 1
        self._row_ops = {b: (Phi[sl], Phi[sl].T, y[sl], np.empty(sl.stop - sl.start),
                             None if w == 1.0 else np.full(self.dim, w))
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

    def step_providers(self, ids_chunk, scale=None):
        """A lone chain takes the one-row path, step j on its batch's
        `_row_ops` entry. An ensemble takes the stacked path where
        `_chunk_groups` serves the chunk: each group's providers write into
        their rows of one (R, d) result, which is then scaled once. The
        providers write into arrays they own."""
        R = ids_chunk.shape[1]
        if R == 1:
            ops = self._row_ops
            return self._row_providers(
                (self.dim,), [ops[b] for b in ids_chunk[:, 0].tolist()].__getitem__, scale)
        groups = self._chunk_groups(ids_chunk)
        if groups is None:
            return super().step_providers(ids_chunk, scale)
        mul = np.multiply
        g_all, h_all = np.empty((R, self.dim)), np.empty((R, self.dim))
        parts = [(rows, *self._row_providers(g_all[rows].shape, step_ops, None, size,
                                             g_all[rows], h_all[rows]))
                 for rows, size, step_ops in groups]

        def grad(j, x):
            for rows, grad_g, _ in parts:
                grad_g(j, x[rows])
            return g_all if scale is None else mul(scale, g_all, g_all)

        def hess(j, x, v):
            for rows, _, hess_g in parts:
                hess_g(j, x[rows], v[rows])
            return h_all if scale is None else mul(scale, h_all, h_all)

        return grad, hess

    def _chunk_groups(self, ids_chunk):
        """The stacked operands of a chunk of (m, R) batch ids, one group
        (rows, size, step_ops) per contiguous run of full rows or of block
        rows, in row order: rows a slice, and step_ops(j) step j's (F, FT,
        y, w), design blocks F (n or 1, size, d), their transposed view FT,
        targets y and the prior weight w spread over the group's rows, None
        where it is 1. None where the per-row path serves the chunk: a row
        that switches between the full potential and blocks, or block rows
        on unequal blocks."""
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
        F, FT, y, _, _ = self._row_ops[-1]
        ops = (F[None], FT[None], np.tile(y, (ids_chunk.shape[1], 1)), None)
        return self.n_obs, lambda j: ops

    def _gathered(self, ids_chunk):
        """(size, step_ops) of a block group: each step's design blocks,
        their transposed view and targets, gathered a run of steps at a
        time."""
        F, y = self._blocks
        R = ids_chunk.shape[1]
        run = max(1, _GATHER_BYTES // max(1, R * F[0].nbytes))
        w = 1.0 / self.n_batches
        w = None if w == 1.0 else np.full((R, self.dim), w)
        held = [-1, None]

        def step_ops(j):
            # read in step order, so one run is held at a time
            lo = j - j % run
            if lo != held[0]:
                ids = ids_chunk[lo:lo + run]
                # the run's transposed operand is a view: a gathered
                # transposed copy would raise peak memory
                F_run = F[ids]
                held[:] = lo, list(zip(F_run, F_run.swapaxes(2, 3), y[ids], [w] * len(ids)))
            return held[1][j - lo]

        return F.shape[1], step_ops

    # One row's np.dot on a 2-D block and its transposed view, and stacked
    # (n, size, d) matmuls through the transposed view, run the same BLAS
    # gemv as the per-row `features[sl].T @ resid`, so the bits match;
    # Gram-matrix forms, einsum and a contiguous transpose do not. An
    # ensemble makes one such call per group.
    def _row_providers(self, shape, step_ops, scale=None, size=None, g=None, hv=None):
        """(grad, hess) over states of `shape`, (d,) for one row and (n, d)
        for n stacked rows: grad(j, x) and hess(j, x, v) are the gradient
        and Hessian-vector product on step_ops(j)'s operands at its prior
        weight (a `_row_ops` entry for one row, see `_chunk_groups` for
        stacked operands of `size` data rows), times scale where given,
        written into the arrays g and hv of `shape` (made here unless given)
        and overwritten by each call.

        Each is the per-row formula's numpy calls in order, written into
        arrays made here once; unit factors are skipped (x / 1.0 and
        1.0 * x are x bit for bit).
        """
        mul, add, sub, div = np.multiply, np.add, np.subtract, np.divide
        # factors spread over the state's shape, as the stepper's constants are
        noise_var = None if self.noise_var == 1.0 else np.full(shape, self.noise_var)
        prior_var = (None if self._unit_prior
                     else np.ascontiguousarray(np.broadcast_to(self.prior_var, shape)))
        g = np.empty(shape) if g is None else g
        hv = np.empty(shape) if hv is None else hv
        p = np.empty(shape)

        def finish(out, u, w):
            # out / noise_var + w (u / prior_var), times scale
            if noise_var is not None:
                div(out, noise_var, out)
            q = u if prior_var is None else div(u, prior_var, p)
            add(out, q if w is None else mul(w, q, p), out)
            return out if scale is None else mul(scale, out, out)

        if len(shape) == 1:
            dot = np.dot

            def grad(j, x):
                # (FT @ (F @ x - y)) / noise_var + w (x / prior_var)
                F, FT, y, Fx, w = step_ops(j)
                dot(F, x, Fx)
                sub(Fx, y, Fx)
                return finish(dot(FT, Fx, g), x, w)

            def hess(j, x, v):
                # (FT @ (F @ v)) / noise_var + w (v / prior_var)
                F, FT, _, Fx, w = step_ops(j)
                return finish(dot(FT, dot(F, v, Fx), hv), v, w)

            return grad, hess

        matmul = np.matmul
        # F @ x, then the residual in place; F @ v
        Fx = np.empty((shape[0], size, 1))
        Fx_2d = Fx[..., 0]
        g_3d, hv_3d = g[..., None], hv[..., None]

        def grad(j, x):
            # (FT @ (F @ x - y)) / noise_var + w (x / prior_var)
            F, FT, y, w = step_ops(j)
            matmul(F, x[..., None], Fx)
            sub(Fx_2d, y, Fx_2d)
            matmul(FT, Fx, g_3d)
            return finish(g, x, w)

        def hess(j, x, v):
            # (FT @ (F @ v)) / noise_var + w (v / prior_var)
            F, FT, _, w = step_ops(j)
            matmul(F, v[..., None], Fx)
            matmul(FT, Fx, hv_3d)
            return finish(hv, v, w)

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


def make_logistic_demo(n_obs: int, rng: RngStream, weights=(1.5, -1.0),
                       n_batches: int = 1) -> Logistic2D:
    """Synthetic two-feature logistic dataset with known generating weights."""
    if n_obs < 1:
        raise ValueError("n_obs must be >= 1")
    w = as_vector(weights, "weights")
    X = rng.normal(2 * n_obs).reshape(n_obs, 2)
    p = _special("expit")(X @ w)
    # uniforms obtained by pushing normal draws through their CDF, so the
    # whole generator stays on the single normal-draw RNG contract
    labels = (_special("ndtr")(rng.normal(n_obs)) < p).astype(int)
    return Logistic2D(X, labels, n_batches=n_batches)

