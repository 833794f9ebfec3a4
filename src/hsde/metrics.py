"""Distribution-distance and moment-error measurements for sampler output.

The comparison protocol throughout the package is one-dimensional: take a
coordinate of the kept positions, form its empirical CDF, and measure either
the two-sample Kolmogorov distance against an oracle sample or the one-sample
distance against the analytic Gaussian posterior. Self-distance quantiles of
the oracle against itself calibrate how much distance pure sampling noise
produces at a given subsample size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .core import RngStream
from .potentials import GaussianPosterior

__all__ = [
    "EmpiricalSample",
    "kolmogorov_distance",
    "ks_vs_gaussian",
    "self_distance",
    "moment_errors",
]


@dataclass(frozen=True)
class EmpiricalSample:
    """Sorted scalar sample; construction sorts and validates."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.float64, copy=True).ravel()
        if vals.size < 1:
            raise ValueError("sample must contain at least one value")
        if not np.all(np.isfinite(vals)):
            raise ValueError("sample values must be finite")
        vals.sort()
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.values.size

    @classmethod
    def from_trace(cls, trace, coord: int = 0) -> "EmpiricalSample":
        return cls(trace.thetas[:, coord])


def kolmogorov_distance(a: EmpiricalSample, b: EmpiricalSample) -> float:
    """sup |F_a - F_b| over the pooled distinct points, with right-continuous
    empirical CDFs (ties contribute once, at their full jump)."""
    pooled = np.unique(np.concatenate([a.values, b.values]))
    fa = np.searchsorted(a.values, pooled, side="right") / a.n
    fb = np.searchsorted(b.values, pooled, side="right") / b.n
    return float(np.abs(fa - fb).max())


def ks_vs_gaussian(a: EmpiricalSample, mean: float, variance: float) -> float:
    """One-sample Kolmogorov distance against N(mean, variance).

    Evaluates the Gaussian CDF at each sorted sample point and takes the sup
    against both the left and right limits of the empirical CDF.
    """
    if not variance > 0:
        raise ValueError("variance must be > 0")
    # in place, so at most two n-length arrays live at once: the CDF values
    # and one gap against the empirical CDF's right or left limits
    cdf = a.values - float(mean)
    cdf /= np.sqrt(float(variance))
    cdf /= np.sqrt(2.0)
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    upper = _max_gap(np.arange(1, a.n + 1, dtype=np.float64), a.n, cdf)
    lower = _max_gap(np.arange(a.n, dtype=np.float64), a.n, cdf)
    return float(max(upper, lower))


def _max_gap(ranks: np.ndarray, n: int, cdf: np.ndarray) -> float:
    """max |ranks / n - cdf|, computed in the ranks buffer."""
    ranks /= n
    ranks -= cdf
    np.abs(ranks, out=ranks)
    return ranks.max()


def self_distance(
    oracle: EmpiricalSample, m: int, reps: int, rng: RngStream
) -> tuple:
    """Kolmogorov-distance quantiles (q05, q50, q95) between pairs of
    independent m-subsamples of the oracle, drawn without replacement."""
    if m > oracle.n:
        raise ValueError(f"subsample size {m} exceeds oracle size {oracle.n}")
    if reps < 20:
        raise ValueError("need reps >= 20 for stable quantiles")
    dists = np.empty(reps)
    for i in range(reps):
        first = EmpiricalSample(oracle.values[rng.subset(oracle.n, m)])
        second = EmpiricalSample(oracle.values[rng.subset(oracle.n, m)])
        dists[i] = kolmogorov_distance(first, second)
    q05, q50, q95 = np.quantile(dists, [0.05, 0.5, 0.95])
    return float(q05), float(q50), float(q95)


def moment_errors(trace, post: GaussianPosterior) -> tuple:
    """Componentwise |sample mean - posterior mean| and |sample variance -
    posterior variance| of the kept positions.

    Sample variance uses the population convention (a single kept sample has
    variance 0, so its variance error is the full posterior variance).
    """
    thetas = np.asarray(trace.thetas, dtype=np.float64)
    if thetas.ndim != 2 or thetas.shape[0] < 1:
        raise ValueError("trace has no kept samples")
    if thetas.shape[1] != post.mean.size:
        raise ValueError(
            f"trace dimension {thetas.shape[1]} != posterior dimension {post.mean.size}"
        )
    mean_err = np.abs(thetas.mean(axis=0) - post.mean)
    var_err = np.abs(thetas.var(axis=0) - np.diag(post.cov))
    return mean_err, var_err
