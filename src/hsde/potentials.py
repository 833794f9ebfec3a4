"""Negative log-posterior potentials with mini-batch sub-potentials.

Each model represents U(theta) = -log p(data | theta) - log p(theta) for a
Bayesian model, split into K sub-potentials over contiguous near-equal data
blocks. Batch id None means the full potential; batch id i in {0..K-1} means
the raw sub-potential

    U_i(theta) = nll over block i + (1/K) * prior(theta)

so that sum_i U_i = U exactly. The K-rescaling used by mini-batch simulation
(multiply gradients by K) is applied by the caller, never baked in here.

All gradients and Hessian-vector products are hand-derived; the three models
keep them exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import RngStream, as_vector

__all__ = [
    "GaussianPosterior",
    "AnalyticPosteriorUnavailable",
    "Potential",
    "Toy1D",
    "LinearGaussian",
    "Logistic2D",
    "make_logistic_demo",
    "make_cycled_basis_dataset",
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

    def gradient_many(self, thetas: np.ndarray, batch_ids=None) -> np.ndarray:
        """Row c is `gradient(thetas[c], batch_ids[c])`, bit for bit.

        A raw path for the chain runner: no validation. thetas is (R, d);
        batch_ids is None (every row on the full potential), R integers
        where -1 marks the full potential, or a step's argument from
        `chunk_batches`.
        """
        keys = (-1,) * len(thetas) if batch_ids is None else batch_ids
        if len(thetas) == 1:
            return self._raw_gradient(thetas[0], keys[0])[None]
        out = np.empty_like(thetas)
        for c, key in enumerate(keys):
            out[c] = self._raw_gradient(thetas[c], key)
        return out

    def hessian_vec_many(self, thetas: np.ndarray, vs: np.ndarray,
                         batch_ids=None) -> np.ndarray:
        """Row c is `hessian_vec(thetas[c], vs[c], batch_ids[c])`; raw, as
        `gradient_many`."""
        keys = (-1,) * len(thetas) if batch_ids is None else batch_ids
        if len(thetas) == 1:
            return self._raw_hessian_vec(thetas[0], vs[0], keys[0])[None]
        out = np.empty_like(vs)
        for c, key in enumerate(keys):
            out[c] = self._raw_hessian_vec(thetas[c], vs[c], key)
        return out

    def chunk_batches(self, ids_chunk: np.ndarray):
        """The batch argument of `gradient_many` / `hessian_vec_many` for
        each step of a chunk, in step order: ids_chunk is (m, R) batch ids,
        -1 marking the full potential. Here step j's argument is the row
        ids_chunk[j]; a model may instead gather the chunk's operands once
        and hand out each step's share."""
        return ids_chunk

    def analytic_posterior(self) -> GaussianPosterior:
        raise AnalyticPosteriorUnavailable(
            f"{type(self).__name__} has no closed-form posterior"
        )

    def sample_prior(self, rng: RngStream) -> np.ndarray:
        """One draw theta ~ N(0, diag(prior_var))."""
        return np.sqrt(self.prior_var) * rng.normal(self.dim)


class Toy1D(Potential):
    """Scalar conjugate model: x_i ~ N(theta, noise_var), theta ~ N(0, prior_var)."""

    def __init__(self, observations, noise_var: float, prior_var: float, n_batches: int = 1):
        x = as_vector(observations, "observations")
        if noise_var <= 0:
            raise ValueError("noise_var must be > 0")
        self.observations = x
        self.noise_var = float(noise_var)
        super().__init__(dim=1, n_obs=x.size, prior_var=prior_var, n_batches=n_batches)

    def _nll_value(self, theta, sl):
        resid = self.observations[sl] - theta[0]
        return 0.5 * float(np.dot(resid, resid)) / self.noise_var

    def _nll_grad(self, theta, sl):
        resid = theta[0] - self.observations[sl]
        return np.array([float(np.sum(resid)) / self.noise_var])

    def _nll_hess_vec(self, theta, v, sl):
        count = sl.stop - sl.start
        return np.array([count / self.noise_var * v[0]])

    def analytic_posterior(self) -> GaussianPosterior:
        precision = 1.0 / self.prior_var[0] + self.n_obs / self.noise_var
        var = 1.0 / precision
        mean = var * float(np.sum(self.observations)) / self.noise_var
        return GaussianPosterior(mean=np.array([mean]), cov=np.array([[var]]))


# the most bytes of design blocks `LinearGaussian.chunk_batches` gathers at
# once: a whole chunk of steps for the CLI's models, a step or a few for a
# large design, whose chunk of blocks can run to hundreds of MB
_GATHER_BYTES = 1 << 19


class _Operands(NamedTuple):
    """A stacked LinearGaussian call's design blocks F (R or 1, rows, d),
    their transposed view FT, targets y and prior weight w."""

    F: np.ndarray
    FT: np.ndarray
    y: np.ndarray
    w: float


class _Groups(tuple):
    """A step's batch argument for an ensemble of full and mini-batch rows:
    (rows, _Operands) per group, rows a slice or an index array."""


def _by_group(stacked_fn, x, stacked):
    """stacked_fn(x, operands), or for a mixed ensemble's _Groups one call
    per group over its rows of x, gathered into one array."""
    if not isinstance(stacked, _Groups):
        return stacked_fn(x, stacked)
    out = np.empty_like(x)
    for rows, ops in stacked:
        out[rows] = stacked_fn(x[rows], ops)
    return out


def _rows(mask: np.ndarray):
    """The rows where mask is set, as a slice where they are contiguous
    (a view, no copy) and as an index array otherwise."""
    rows = np.flatnonzero(mask)
    if rows[-1] - rows[0] + 1 == len(rows):
        return slice(int(rows[0]), int(rows[-1]) + 1)
    return rows


class LinearGaussian(Potential):
    """Linear regression: y = features @ theta + eps, eps ~ N(0, noise_var I)."""

    def __init__(self, features, targets, noise_var: float, prior_var, n_batches: int = 1):
        Phi = np.array(features, dtype=np.float64, copy=True)
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
        # operands of the stacked path: the full design, and equal blocks as
        # (K, rows, d) and (K, rows)
        self._full = self._blocks = None
        self._unit_prior = bool(np.all(self.prior_var == 1.0))
        if Phi.flags.c_contiguous:
            self._full = _Operands(Phi[None], Phi[None].swapaxes(1, 2), y, 1.0)
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

    def chunk_batches(self, ids_chunk):
        """Where every id is an equal block's, step j's argument is its share
        of the design blocks and targets gathered for a run of steps at
        once, with the prior weight. Where some chains run on the full
        potential throughout the chunk and the rest on equal blocks, it is
        the two stacked groups, full rows and gathered-block rows.
        Otherwise the per-step id rows, as for any potential."""
        steps = self._step_operands(ids_chunk)
        return super().chunk_batches(ids_chunk) if steps is None else steps

    def _step_operands(self, ids_chunk):
        full = ids_chunk < 0
        rows = full[0]
        if self._blocks is None or (full != rows).any():
            return None
        if rows.all():
            return itertools.repeat(self._full, len(ids_chunk))
        if not rows.any():
            return self._gathered(ids_chunk)
        on_full, on_blocks = _rows(rows), _rows(~rows)
        return (_Groups(((on_full, self._full), (on_blocks, ops)))
                for ops in self._gathered(ids_chunk[:, on_blocks]))

    def _gathered(self, ids_chunk):
        F, y = self._blocks
        w = 1.0 / self.n_batches
        run = max(1, _GATHER_BYTES // max(1, ids_chunk.shape[1] * F[0].nbytes))
        for lo in range(0, len(ids_chunk), run):
            ids = ids_chunk[lo:lo + run]
            # each step's views are made as it comes up, the transposed
            # operand among them: a gathered transposed copy would raise
            # peak memory
            for Fj, yj in zip(F[ids], y[ids]):
                yield _Operands(Fj, Fj.swapaxes(1, 2), yj, w)

    def _stacked(self, batch):
        """The stacked path's operands for a batch argument (None, R ids or
        a `chunk_batches` entry), or None where only the per-row path is
        proven to give the same bits: unequal blocks, a design that is not
        C-contiguous."""
        if isinstance(batch, (_Operands, _Groups)):
            return batch
        if batch is None:
            return self._full
        steps = self._step_operands(batch[None])
        return None if steps is None else next(steps)

    def _prior_term(self, x, w):
        # x / 1.0 and 1.0 * x are x bit for bit: unit factors are skipped
        if not self._unit_prior:
            x = x / self.prior_var
        return x if w == 1.0 else w * x

    def _over_noise(self, x):
        return x if self.noise_var == 1.0 else x / self.noise_var

    # Stacked (R, rows, d) matmuls through the transposed view run the same
    # BLAS kernels as the per-row `features[sl].T @ resid`, so the bits match;
    # Gram-matrix forms, einsum and a contiguous transpose do not. A mixed
    # ensemble makes one such call per group.
    def gradient_many(self, thetas, batch_ids=None):
        stacked = self._stacked(batch_ids)
        if stacked is None:
            return super().gradient_many(thetas, batch_ids)
        return _by_group(self._gradient_stacked, thetas, stacked)

    def _gradient_stacked(self, thetas, ops):
        F, FT, y, w = ops
        resid = (F @ thetas[..., None])[..., 0] - y
        grad = self._over_noise((FT @ resid[..., None])[..., 0])
        return grad + self._prior_term(thetas, w)

    def hessian_vec_many(self, thetas, vs, batch_ids=None):
        stacked = self._stacked(batch_ids)
        if stacked is None:
            return super().hessian_vec_many(thetas, vs, batch_ids)
        return _by_group(self._hessian_vec_stacked, vs, stacked)

    def _hessian_vec_stacked(self, vs, ops):
        F, FT, _, w = ops
        hv = self._over_noise((FT @ (F @ vs[..., None]))[..., 0])
        return hv + self._prior_term(vs, w)

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


def make_cycled_basis_dataset(dim: int = 4, n_rows: int = 32, row_scale: float | None = None):
    """Deterministic design whose batches all share the same curvature.

    Rows cycle scaled coordinate vectors row_scale * e_{i mod dim} with zero
    targets, so contiguous blocks of any multiple of `dim` rows see identical
    per-coordinate design mass and the posterior factorizes over coordinates.
    Default row_scale makes the unit-noise, unit-prior posterior precision
    per coordinate equal to 4 when n_rows/dim = 8.
    """
    if n_rows % dim != 0:
        raise ValueError("n_rows must be a multiple of dim")
    if row_scale is None:
        row_scale = math.sqrt(3.0 * dim / n_rows)
    Phi = np.zeros((n_rows, dim))
    for i in range(n_rows):
        Phi[i, i % dim] = row_scale
    return Phi, np.zeros(n_rows)
