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
import math
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
    FORWARD = "forward"
    BACKWARD = "backward"
    AVERAGED = "averaged"


def _square_matrix(A, name: str = "matrix") -> np.ndarray:
    arr = np.array(A, dtype=np.float64, copy=True)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise ValueError(f"{name} must be a square 2-D matrix")
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

    A is scaled by 2^-s until its 1-norm is below 1/2, the series is summed,
    and the result squared s times. For n <= 64 this keeps the truncation
    error far below the 1e-12 relative target.
    """
    A = _square_matrix(A, "A")
    n = A.shape[0]
    if n > _MAX_DIM:
        raise ValueError(f"dimension {n} exceeds {_MAX_DIM}")
    norm = float(np.linalg.norm(A, 1))
    s = 0
    if norm > 0.5:
        s = int(np.ceil(np.log2(norm))) + 1
    B = A / float(2**s)
    E = np.eye(n)
    term = np.eye(n)
    for k in range(1, _TAYLOR_TERMS + 1):
        term = term @ B / k
        E = E + term
    for _ in range(s):
        E = E @ E
    return E


def _ordered_product(factors: Sequence[np.ndarray], order: Iterable[int]) -> np.ndarray:
    out = np.eye(factors[0].shape[0])
    for i in order:
        out = out @ factors[i]
    return out


def _factor_exps(G: GeneratorSet, eta: float) -> list:
    return [matrix_exp(eta * G.n_parts * L) for L in G.mats]


def splitting_product(G: GeneratorSet, eta: float, order: SplitOrder) -> np.ndarray:
    """Ordered product of exp(eta*K*L_i): listed order, reversed order, or
    the mean of the two."""
    if not eta > 0:
        raise ValueError("eta must be > 0")
    return _splitting(_factor_exps(G, eta), SplitOrder(order))


def _splitting(factors: Sequence[np.ndarray], order: SplitOrder) -> np.ndarray:
    forward = _ordered_product(factors, range(len(factors)))
    if order is SplitOrder.FORWARD:
        return forward
    backward = _ordered_product(factors, reversed(range(len(factors))))
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
    return _randomized(_factor_exps(G, eta))


def _randomized(factors: Sequence[np.ndarray]) -> np.ndarray:
    dim = factors[0].shape[0]
    acc = np.zeros((dim, dim))
    count = 0
    for perm in itertools.permutations(range(len(factors))):
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
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_res = float(np.dot(resid, resid))
    ss_tot = float(np.dot(ly - ly.mean(), ly - ly.mean()))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(r_squared)


def spectral_norm(M, n_iters: int = 50) -> float:
    """Largest singular value by power iteration on M^T M.

    Starts from the constant unit vector; 50 iterations resolve the trials
    here far beyond slope-fit needs.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise ValueError("M must be 2-D")
    G = M.T @ M
    n = G.shape[0]
    v = np.ones(n) / np.sqrt(n)
    for _ in range(n_iters):
        w = G @ v
        norm = math.sqrt(float(w.dot(w)))
        if norm == 0.0:
            return 0.0
        v = w / norm
    return float(np.sqrt(max(float(v @ (G @ v)), 0.0)))


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


_DEFAULT_ETAS = (0.1, 0.05, 0.025, 0.0125)
# fixed-order products lose an order relative to the symmetrized ones
_SLOPE_BANDS = {
    "forward": (1.7, 2.3),
    "averaged": (2.7, 3.3),
    "randomized": (2.7, 3.3),
}


def slope_band(mode: str) -> tuple:
    return _SLOPE_BANDS[str(mode)]


def run_order_trials(
    n_trials: int,
    rng: RngStream,
    etas: Sequence[float] = _DEFAULT_ETAS,
    modes: Sequence[str] = ("forward", "averaged", "randomized"),
    k_choices: Sequence[int] = (2, 3, 4),
    n_choices: Sequence[int] = (2, 3, 4),
) -> list:
    """Draw random generator sets (entries iid U(-1,1), K and n drawn from
    the given choices) and fit the error slope of each requested product mode
    against the exact semigroup. Returns one OrderTrial per (draw, mode)."""
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    k_choices = tuple(int(k) for k in k_choices)
    n_choices = tuple(int(n) for n in n_choices)
    if any(k < 1 or k > _MAX_PARTS_EXACT for k in k_choices):
        raise ValueError(f"k_choices must lie in 1..{_MAX_PARTS_EXACT}")
    if any(n < 1 or n > 8 for n in n_choices):
        raise ValueError("n_choices must lie in 1..8")
    etas = tuple(float(e) for e in etas)
    if not all(e > 0 for e in etas):
        raise ValueError("eta must be > 0")
    out = []
    for t in range(n_trials):
        k = k_choices[rng.integers(len(k_choices))]
        n = n_choices[rng.integers(len(n_choices))]
        mats = [rng.uniform(-1.0, 1.0, n * n).reshape(n, n) for _ in range(k)]
        G = GeneratorSet(tuple(mats))
        # the exact semigroup and the factor exponentials, once per eta for
        # every mode
        errors = {mode: [] for mode in modes}
        for eta in etas:
            exact = matrix_exp(eta * k * G.total)
            factors = _factor_exps(G, eta)
            for mode, errs in errors.items():
                if mode == "randomized":
                    approx = _randomized(factors)
                else:
                    approx = _splitting(factors, SplitOrder(mode))
                errs.append(spectral_norm(approx - exact))
        for mode in modes:
            slope, r2 = error_order_slope(etas, errors[mode])
            out.append(
                OrderTrial(
                    trial=t,
                    n_parts=k,
                    dim=n,
                    mode=str(mode),
                    etas=etas,
                    errors=tuple(errors[mode]),
                    slope=slope,
                    r_squared=r2,
                )
            )
    return out
