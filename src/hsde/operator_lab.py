"""Dense-matrix verification bench for operator-splitting error orders.

The continuous-time generator is replaced by a set of small dense matrices
L_1..L_K with sum L. One sweep of the splitting multiplies the factor
exponentials exp(eta*K*L_i) in some order; comparing against the exact
semigroup exp(eta*K*L) over a geometric eta grid turns the splitting's
weak-error order into a measurable log-log slope:

- a single fixed ordering loses an order (slope ~ 2 in eta),
- averaging a sweep with its reversal restores it (slope ~ 3),
- averaging over all K! orderings does the same.

Everything here is exact linear algebra; no sampling noise enters except
through the random draw of test matrices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .core import RngStream

__all__ = [
    "SplitOrder",
    "GeneratorSet",
    "OrderTrial",
    "matrix_exp",
    "splitting_product",
    "randomized_expectation",
    "bch_truncated",
    "error_order_slope",
    "spectral_norm",
    "run_order_trials",
]

_MAX_DIM = 64
_MAX_PARTS_EXACT = 6
_TAYLOR_TERMS = 25


class SplitOrder(str, Enum):
    """The order one sweep of the splitting multiplies its factors in."""

    FORWARD = "forward"
    BACKWARD = "backward"
    AVERAGED = "averaged"


def _square_matrix(A, name: str = "matrix", stacked: bool = False) -> np.ndarray:
    """A as a float copy; with `stacked`, an (m, n, n) stack is accepted too."""
    arr = np.array(A, dtype=np.float64, copy=True)
    if (arr.ndim not in ((2, 3) if stacked else (2,)) or arr.shape[-1] != arr.shape[-2]
            or arr.size == 0):
        raise ValueError(f"{name} must be a square 2-D matrix"
                         + (" or an (m, n, n) stack of them" if stacked else ""))
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite entries")
    return arr


@dataclass(frozen=True)
class GeneratorSet:
    """K square matrices of common dimension n <= 8 standing in for the
    sub-generators of a splitting; `total` is their sum."""

    mats: tuple

    def __post_init__(self):
        mats = tuple(_square_matrix(m, f"mats[{i}]") for i, m in enumerate(self.mats))
        if len(mats) < 1:
            raise ValueError("need at least one generator")
        dim = mats[0].shape[0]
        if any(m.shape[0] != dim for m in mats):
            raise ValueError("all generators must share one dimension")
        if dim > 8:
            raise ValueError(f"generator dimension {dim} exceeds 8")
        object.__setattr__(self, "mats", mats)

    @property
    def n_parts(self) -> int:
        return len(self.mats)

    @property
    def dim(self) -> int:
        return self.mats[0].shape[0]

    @property
    def total(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim))
        for m in self.mats:
            out += m
        return out


def matrix_exp(A) -> np.ndarray:
    """exp(A) by scaling-and-squaring with a 25-term Taylor series.

    A is one square matrix or an (m, n, n) stack of them, and the result has
    its shape. Each matrix is scaled by 2^-s, with its own s, until its
    1-norm is below 1/2, the series is summed, and the result squared s
    times. For n <= 64 this keeps the truncation error far below the 1e-12
    relative target. A matrix gives the same bits alone as inside a stack.
    """
    A = _square_matrix(A, "A", stacked=True)
    single = A.ndim == 2
    if single:
        A = A[None]
    n = A.shape[-1]
    if n > _MAX_DIM:
        raise ValueError(f"dimension {n} exceeds {_MAX_DIM}")
    # 1-norm: the largest absolute column sum, as np.linalg.norm(A, 1)
    norms = np.abs(A).sum(axis=-2).max(axis=-1).tolist()
    s = [int(np.ceil(np.log2(x))) + 1 if x > 0.5 else 0 for x in norms]
    B = A / np.array([float(2**k) for k in s])[:, None, None]
    E = np.eye(n)
    term = np.broadcast_to(np.eye(n), A.shape)
    for k in range(1, _TAYLOR_TERMS + 1):
        term = term @ B / k
        E = E + term
    # squaring pass p squares the matrices whose s exceeds p
    for p in range(max(s)):
        rows = [i for i, k in enumerate(s) if k > p]
        Er = E[rows]
        E[rows] = Er @ Er
    return E[0] if single else E


def _ordered_product(factors: np.ndarray, order: Iterable[int]) -> np.ndarray:
    """Product of factors[:, i] over i in order, for each row of an
    (m, K, n, n) stack."""
    out = np.broadcast_to(np.eye(factors.shape[-1]), factors[:, 0].shape)
    for i in order:
        out = out @ factors[:, i]
    return out


def _factor_exps(gens: np.ndarray, k: int, etas: Sequence[float]) -> np.ndarray:
    """exp(eta*k*L) for every eta and every L in each row of an (m, J, n, n)
    generator stack, from one matrix_exp call; shape (m * len(etas), J, n, n),
    rows in (generator row, eta) order."""
    n = gens.shape[-1]
    # eta*k is a Python float before it scales a matrix
    scales = np.array([eta * k for eta in etas])[:, None, None, None]
    exps = matrix_exp((scales * gens[:, None]).reshape(-1, n, n))
    return exps.reshape(-1, gens.shape[1], n, n)


def splitting_product(G: GeneratorSet, eta: float, order: SplitOrder) -> np.ndarray:
    """Ordered product of exp(eta*K*L_i): listed order, reversed order, or
    the mean of the two."""
    if not eta > 0:
        raise ValueError("eta must be > 0")
    factors = _factor_exps(np.stack(G.mats)[None], G.n_parts, [eta])
    return _splitting(factors, SplitOrder(order))[0]


def _splitting(factors: np.ndarray, order: SplitOrder) -> np.ndarray:
    """The splitting product for each row of an (m, K, n, n) factor stack."""
    forward = _ordered_product(factors, range(factors.shape[1]))
    if order is SplitOrder.FORWARD:
        return forward
    backward = _ordered_product(factors, reversed(range(factors.shape[1])))
    if order is SplitOrder.BACKWARD:
        return backward
    return 0.5 * (forward + backward)


def randomized_expectation(G: GeneratorSet, eta: float) -> np.ndarray:
    """Exact mean of the ordered product over all K! factor orderings."""
    if not eta > 0:
        raise ValueError("eta must be > 0")
    if G.n_parts > _MAX_PARTS_EXACT:
        raise ValueError(
            f"exact permutation average limited to K <= {_MAX_PARTS_EXACT}, got {G.n_parts}"
        )
    return _randomized(_factor_exps(np.stack(G.mats)[None], G.n_parts, [eta]))[0]


def _randomized(factors: np.ndarray) -> np.ndarray:
    """The K!-ordering mean for each row of an (m, K, n, n) factor stack."""
    acc = np.zeros(factors[:, 0].shape)
    count = 0
    for perm in itertools.permutations(range(factors.shape[1])):
        acc += _ordered_product(factors, perm)
        count += 1
    return acc / count


def _comm(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    return X @ Y - Y @ X


def bch_truncated(A, B, order: int) -> np.ndarray:
    """Series for log(exp(A) exp(B)) truncated at commutator order 2..5."""
    A = _square_matrix(A, "A")
    B = _square_matrix(B, "B")
    if A.shape != B.shape:
        raise ValueError("A and B must have equal shape")
    if order not in (2, 3, 4, 5):
        raise ValueError(f"order must be in 2..5, got {order}")
    c = _comm
    Z = A + B + 0.5 * c(A, B)
    if order >= 3:
        Z = Z + (c(A, c(A, B)) + c(B, c(B, A))) / 12.0
    if order >= 4:
        Z = Z - c(B, c(A, c(A, B))) / 24.0
    if order >= 5:
        Z = Z - (c(B, c(B, c(B, c(B, A)))) + c(A, c(A, c(A, c(A, B))))) / 720.0
        Z = Z + (c(A, c(B, c(B, c(B, A)))) + c(B, c(A, c(A, c(A, B))))) / 360.0
        Z = Z + (c(B, c(A, c(B, c(A, B)))) + c(A, c(B, c(A, c(B, A))))) / 120.0
    return Z


def error_order_slope(etas, errors) -> tuple:
    """Least-squares slope of log(error) against log(eta), with fit quality.

    Returns (slope, r_squared). Requires >= 3 strictly positive points and a
    non-degenerate eta grid.
    """
    x = np.asarray(etas, dtype=np.float64)
    y = np.asarray(errors, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("etas and errors must be matching 1-D sequences")
    if x.size < 3:
        raise ValueError("need at least 3 points for a slope fit")
    if np.any(x <= 0) or np.any(y <= 0) or not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
        raise ValueError("etas and errors must be finite and > 0")
    lx = np.log(x)
    ly = np.log(y)
    if np.ptp(lx) == 0:
        raise ValueError("eta grid is degenerate (all equal)")
    slope, r_squared = _fit_slopes(lx, ly[None])
    return float(slope[0]), float(r_squared[0])


def _fit_slopes(lx: np.ndarray, LY: np.ndarray) -> tuple:
    """(slopes, r_squared) arrays of the least-squares lines through checked
    logs, one fit per row of LY, all in one polyfit call. The sums of squares
    are one BLAS dot per row, as np.dot takes them; a flat row gets r² 1."""
    slope, intercept = np.polyfit(lx, LY.T, 1)
    resid = LY - (slope[:, None] * lx + intercept[:, None])
    dev = LY - LY.mean(axis=1, keepdims=True)
    ss_res = (resid[:, None] @ resid[:, :, None])[:, 0, 0]
    ss_tot = (dev[:, None] @ dev[:, :, None])[:, 0, 0]
    flat = ss_tot == 0.0
    return slope, np.where(flat, 1.0, 1.0 - ss_res / np.where(flat, 1.0, ss_tot))


def spectral_norm(M):
    """Largest singular value by power iteration on M^T M.

    M is one 2-D matrix (a float is returned) or an (m, p, n) stack of them
    (an array of m norms). Starts from the constant unit vector; 50
    iterations resolve the trials here far beyond slope-fit needs. A matrix
    whose iterate reaches norm 0 gets 0.0, and it gives the same bits alone
    as inside a stack.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim not in (2, 3):
        raise ValueError("M must be 2-D or an (m, p, n) stack")
    single = M.ndim == 2
    if single:
        M = M[None]
    # M^T M through the transposed view: one syrk per matrix
    G = np.swapaxes(M, -1, -2) @ M
    m, n = G.shape[0], G.shape[-1]
    v = np.full((m, n, 1), 1.0 / np.sqrt(n))
    live = np.ones((m, 1, 1), dtype=bool)
    for _ in range(50):
        w = G @ v
        norm = np.sqrt(np.swapaxes(w, -1, -2) @ w)
        live &= norm != 0.0
        if not live.any():
            break
        # a matrix that reached norm 0 keeps its last unit vector
        np.divide(w, norm, out=v, where=live)
    q = np.swapaxes(v, -1, -2) @ (G @ v)
    out = np.where(live, np.sqrt(np.where(0.0 > q, 0.0, q)), 0.0)[:, 0, 0]
    return float(out[0]) if single else out


@dataclass(frozen=True)
class OrderTrial:
    """One random generator draw with fitted error slopes per product mode."""

    trial: int
    n_parts: int
    dim: int
    mode: str
    etas: tuple
    errors: tuple
    slope: float
    r_squared: float


# the one protocol: every trial fits each mode's error slope over these
# step sizes
_TRIAL_ETAS = (0.1, 0.05, 0.025, 0.0125)
_TRIAL_LOG_ETAS = np.log(np.array(_TRIAL_ETAS))
_TRIAL_MODES = ("forward", "averaged", "randomized")
# the most bytes of matrices one pass of `run_order_trials` stacks for a
# matrix_exp or spectral_norm call: 200 trials at the default choices fit
# in one pass, and working memory does not grow with the trial count
_PASS_BYTES = 1 << 19
# fixed-order products lose an order relative to the symmetrized ones
_SLOPE_BANDS = {
    "forward": (1.7, 2.3),
    "averaged": (2.7, 3.3),
    "randomized": (2.7, 3.3),
}


def slope_band(mode: str) -> tuple:
    return _SLOPE_BANDS[mode]


def band_fraction(trials) -> dict:
    """{mode: fraction}, one entry per mode of the protocol in its order: the
    fraction of the trials of that mode whose fitted slope lies inside
    `slope_band(mode)`."""
    bands = {mode: slope_band(mode) for mode in _TRIAL_MODES}
    return {mode: float(np.mean([lo <= t.slope <= hi for t in trials if t.mode == mode]))
            for mode, (lo, hi) in bands.items()}


def run_order_trials(
    n_trials: int,
    rng: RngStream,
    k_choices: Sequence[int] = (2, 3, 4),
    n_choices: Sequence[int] = (2, 3, 4),
) -> list:
    """Draw random generator sets (entries iid U(-1,1), K and n drawn from
    the given choices) and fit the error slope of the forward, averaged and
    randomized products against the exact semigroup over the step sizes
    0.1, 0.05, 0.025 and 0.0125. Returns one OrderTrial per (draw, mode)."""
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    k_choices = tuple(int(k) for k in k_choices)
    n_choices = tuple(int(n) for n in n_choices)
    if any(k < 1 or k > _MAX_PARTS_EXACT for k in k_choices):
        raise ValueError(f"k_choices must lie in 1..{_MAX_PARTS_EXACT}")
    if any(n < 1 or n > 8 for n in n_choices):
        raise ValueError("n_choices must lie in 1..8")
    if not k_choices or not n_choices:
        raise ValueError("k_choices and n_choices must each name at least one value")
    # with one part, or with 1x1 parts that all commute, every product is
    # the exact exponential up to rounding and there is no order to fit
    if 1 in k_choices:
        raise ValueError("K = 1 splits nothing: every product equals the exact "
                         "exponential up to rounding; use K >= 2")
    if 1 in n_choices:
        raise ValueError("n = 1 makes the generators commuting scalars: every product "
                         "equals the exact exponential up to rounding; use n >= 2")
    # draw a pass of trials, stopping before one that would take the pass's
    # stacks past _PASS_BYTES, then run it; the draws keep their order
    out = []
    drawn, held = [], 0
    for t in range(n_trials):
        k = k_choices[rng.integers(len(k_choices))]
        n = n_choices[rng.integers(len(n_choices))]
        mats = np.stack([rng.uniform(-1.0, 1.0, n * n).reshape(n, n) for _ in range(k)])
        size = len(_TRIAL_ETAS) * max(k + 1, len(_TRIAL_MODES)) * n * n * mats.itemsize
        if drawn and held + size > _PASS_BYTES:
            out += _order_pass(drawn)
            drawn, held = [], 0
        drawn.append((t, mats))
        held += size
    return out + _order_pass(drawn)


def _order_pass(drawn: list) -> list:
    """OrderTrials of the drawn [(trial, (K, n, n) generators)], in trial
    order then mode order.

    The trials of one (K, n) shape share one matrix_exp call over the exact
    semigroup and the K factors at every eta, each mode's products over all
    of them at once, and one spectral_norm call over every mode x eta error.
    """
    shapes = {}
    for i, (_, mats) in enumerate(drawn):
        shapes.setdefault(mats.shape, []).append(i)
    errors = np.empty((len(drawn), len(_TRIAL_MODES), len(_TRIAL_ETAS)))
    for (k, n, _), rows in shapes.items():
        mats = np.stack([drawn[i][1] for i in rows])
        # the generators' sum, added in the order GeneratorSet.total adds them
        total = np.zeros((len(rows), n, n))
        for j in range(k):
            total += mats[:, j]
        exps = _factor_exps(np.concatenate([total[:, None], mats], axis=1), k, _TRIAL_ETAS)
        exact, factors = exps[:, 0], exps[:, 1:]
        approx = [_randomized(factors) if mode == "randomized"
                  else _splitting(factors, SplitOrder(mode)) for mode in _TRIAL_MODES]
        errs = spectral_norm(np.concatenate([a - exact for a in approx]))
        errors[rows] = errs.reshape(len(_TRIAL_MODES), len(rows), len(_TRIAL_ETAS)).swapaxes(0, 1)
    # error_order_slope's checks and logs, once for the pass
    if not np.all(np.isfinite(errors)) or np.any(errors <= 0):
        raise ValueError("etas and errors must be finite and > 0")
    slopes, r_squared = _fit_slopes(_TRIAL_LOG_ETAS,
                                    np.log(errors).reshape(-1, len(_TRIAL_ETAS)))
    out = []
    for (t, mats), errs, row_slopes, row_r2 in zip(
            drawn, errors.tolist(), slopes.reshape(errors.shape[:2]).tolist(),
            r_squared.reshape(errors.shape[:2]).tolist()):
        k, n, _ = mats.shape
        for mode, e, slope, r2 in zip(_TRIAL_MODES, errs, row_slopes, row_r2):
            out.append(OrderTrial(trial=t, n_parts=k, dim=n, mode=mode,
                                  etas=_TRIAL_ETAS, errors=tuple(e), slope=slope,
                                  r_squared=r2))
    return out
