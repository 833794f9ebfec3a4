"""Distribution-distance and moment-error measurements for sampler output.

The comparison protocol throughout the package is one-dimensional: take a
coordinate of the kept positions, form its empirical CDF, and measure either
the two-sample Kolmogorov distance against an oracle sample or the one-sample
distance against the analytic Gaussian posterior. Self-distance quantiles of
the oracle against itself calibrate how much distance pure sampling noise
produces at a given subsample size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def kolmogorov_distance(a: EmpiricalSample, b: EmpiricalSample) -> float:
    """sup |F_a - F_b| over the pooled points, with right-continuous
    empirical CDFs (a tie gives the same gap at each copy, its full jump)."""
    pooled = np.concatenate([a.values, b.values])
    fa = np.searchsorted(a.values, pooled, side="right") / a.n
    fb = np.searchsorted(b.values, pooled, side="right") / b.n
    return float(np.abs(fa - fb).max())


def ks_vs_gaussian(a: EmpiricalSample, mean: float, variance: float) -> float:
    """One-sample Kolmogorov distance against N(mean, variance): the sup over
    the sorted points of the Gaussian CDF F's gaps to the empirical CDF's
    left and right limits.

    Above one erf block of points F is first taken at the ends of each block
    of _KS_BLOCK points. F and the ranks both increase, so every gap in block
    [lo, hi] is at most (hi+1)/n - F(x_lo) or F(x_hi) - lo/n, and only the
    blocks whose bound reaches the largest gap at a block end can hold the
    sup. F is elementwise, so their points keep the bits of a full pass.
    """
    mean, variance = float(mean), float(variance)
    if not math.isfinite(mean):
        raise ValueError(f"mean must be finite, got {mean}")
    if not (math.isfinite(variance) and variance > 0):
        raise ValueError(f"variance must be finite and > 0, got {variance}")
    x, n = a.values, a.n
    if n <= _ERF_BLOCK:  # one pass timed faster up to 4,096 points, slower from 4,600
        first, length, z = 0, n, x - mean
    else:
        # column j of the points taken is the block starting at first[j]
        first, length = _sup_blocks(x, mean, variance), _KS_BLOCK
        z = x[first + np.arange(length)[:, None]].ravel() - mean
    # z, the CDF and one rank buffer are the only arrays of its length
    return float(_max_gap(_cdf(z, variance), first, length, n))


_KS_BLOCK = 32
_KS_SLACK = 1e-12  # covers an erf that is not monotone in its last bits


def _sup_blocks(x: np.ndarray, mean: float, variance: float) -> np.ndarray:
    """The first ranks of the blocks whose bound reaches the largest gap at a
    block end; the last block ends at point n - 1, overlapping the one before."""
    n = x.size
    lo = np.minimum(np.arange(0, n, _KS_BLOCK), n - _KS_BLOCK)
    hi = lo + (_KS_BLOCK - 1)
    f_lo, f_hi = np.split(_cdf(x[np.concatenate([lo, hi])] - mean, variance), 2)
    floor = max(_max_gap(f_lo, lo, 1, n), _max_gap(f_hi, hi, 1, n))
    bound = np.maximum((hi + 1) / n - f_lo, f_hi - lo / n) + _KS_SLACK
    return lo[bound >= floor]


def _cdf(z: np.ndarray, variance: float) -> np.ndarray:
    """Overwrites z, points less the mean, with the N(0, variance) CDF."""
    z /= np.sqrt(variance)
    z /= np.sqrt(2.0)
    _erf(z, out=z)
    z += 1.0
    z *= 0.5
    return z


def _max_gap(cdf: np.ndarray, first, length: int, n: int) -> float:
    """max of |(i+1)/n - F| and |i/n - F|, F's gaps to the empirical CDF's
    limits, over the ranks i = first + c, c < length, each block a column."""
    first = np.asarray(first, dtype=np.float64)  # no casts while broadcasting
    maxes = []
    for shift in (1, 0):
        gap = first + np.arange(shift, length + shift, dtype=np.float64)[:, None]
        gap /= n
        gap -= cdf.reshape(gap.shape)
        np.abs(gap, out=gap)
        maxes.append(gap.max())
        del gap  # one rank buffer at a time
    return max(maxes)


# scipy.special.erf's float64 algorithm, cephes' ndtr.c, with its
# coefficients: the package computes the Gaussian CDF without importing
# scipy (about half of a CLI call's start-up) and with the same bits. The
# lists of the denominators carry cephes' implicit leading 1 (p1evl).
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
          2.23200534594684319226e3, 7.00332514112805075473e3,
          5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2,
          4.59432382970980127987e3, 2.26290000613890934246e4,
          4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
           7.46321056442269912687e0, 4.86371970985681366614e1,
           1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3,
           5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1,
           3.54937778887819891062e2, 9.75708501743205489753e2,
           1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0,
           5.01905042251180477414e0, 6.16021097993053585195e0,
           7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0,
           1.20489539808096656605e1, 1.70814450747565897222e1,
           9.60896809063285878198e0, 3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996843e2


def _horner(x: np.ndarray, coef: tuple) -> np.ndarray:
    """coef[0] x^N + ... + coef[N], one rounding per multiply and add, in
    cephes' order (polevl)."""
    ans = x * coef[0]
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


_ERF_BLOCK = 4096


def _erf(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """erf of a 1-D float64 array, equal bit for bit to scipy.special.erf.

    |x| <= 1 (and NaN) takes the T/U rational form. Above 1, erf is
    1 - erfc(|x|) with the sign of x, where erfc is exp(-x^2) P/Q below 8 and
    exp(-x^2) R/S above, and 0 once x^2 exceeds MAXLOG. exp is libm's
    (math.exp), as in cephes: numpy's vectorized exp differs from it in the
    last bit on a few percent of arguments. `out` may be x itself.
    """
    x = np.asarray(x, dtype=np.float64)
    if out is None:
        out = np.empty_like(x)
    # erf is elementwise, so blocks give the same bits while the masks,
    # gathers and Horner temporaries stay a block long, not n long
    for lo in range(0, len(x), _ERF_BLOCK):
        _erf_block(x[lo:lo + _ERF_BLOCK], out[lo:lo + _ERF_BLOCK])
    return out


def _erf_block(x: np.ndarray, out: np.ndarray) -> None:
    inner = ~(np.abs(x) > 1.0)
    xi = x[inner]
    z = xi * xi
    out[inner] = xi * _horner(z, _ERF_T) / _horner(z, _ERF_U)
    outer = ~inner
    xo = x[outer]
    a = np.abs(xo)
    erfc = np.zeros_like(a)
    with np.errstate(over="ignore"):  # a huge |x| squares to inf: underflow
        far = (a >= 8.0) & (a * a <= _MAXLOG)
    for sel, num, den in ((a < 8.0, _ERFC_P, _ERFC_Q), (far, _ERFC_R, _ERFC_S)):
        b = a[sel]
        e = np.fromiter(map(math.exp, (-(b * b)).tolist()), np.float64, b.size)
        erfc[sel] = e * _horner(b, num) / _horner(b, den)
    out[outer] = np.copysign(1.0 - erfc, xo)


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
    q05, q50, q95 = _quantiles(dists, (0.05, 0.5, 0.95))
    return float(q05), float(q50), float(q95)


def _quantiles(values: np.ndarray, qs: tuple) -> np.ndarray:
    """np.quantile(values, qs) of finite values by its default (linear)
    method, bit for bit, without the numpy.ma import (about 20 ms) that
    np.quantile makes on its first call."""
    s = np.array(values, dtype=np.float64)
    pos = (s.size - 1) * np.asarray(qs, dtype=np.float64)
    # numpy's neighbours (index -1 for both at the top end, so gamma = pos + 1
    # there) and its own partition call, so signed zeros land as in numpy
    top = pos >= s.size - 1
    lo = np.where(top, -1, np.floor(pos)).astype(np.intp)
    hi = np.where(top, -1, lo + 1)
    s.partition(sorted({0, -1, *lo.tolist(), *hi.tolist()}))
    gamma = pos - lo
    diff = s[hi] - s[lo]
    # numpy's lerp: from the nearer end, so gamma = 1 gives the upper value
    return np.where(gamma >= 0.5, s[hi] - diff * (1 - gamma), s[lo] + diff * gamma)


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
