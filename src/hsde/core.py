"""Phase-space state, mass-matrix handling, energies, and the seeded RNG contract.

Conventions used throughout the package:

- A phase-space point is z = (r, theta): momentum first, position second,
  both 1-D float arrays of equal length d.
- The mass matrix M is diagonal; every formula that needs M^-1, sqrt(M) or
  exp(-c M^-1 t) is elementwise.
- Randomness flows through `RngStream`, a counter-based generator keyed by
  (seed, stream): identical keys give bit-identical draw sequences, distinct
  stream ids give independent streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "State",
    "MassMatrix",
    "RngStream",
    "kinetic_energy",
    "hamiltonian",
]

_U64 = 2**64


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Coerce to a 1-D float64 array (always a copy)."""
    arr = np.array(x, dtype=np.float64, copy=True)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{name} must be a 1-D vector with at least one entry")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    return arr


@dataclass(frozen=True)
class State:
    """Phase-space point z = (r, theta) with momentum r and position theta."""

    r: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "r", as_vector(self.r, "r"))
        object.__setattr__(self, "theta", as_vector(self.theta, "theta"))
        if self.r.shape != self.theta.shape:
            raise ValueError(
                f"r and theta must have equal dimension, got {self.r.shape} vs {self.theta.shape}"
            )

    @property
    def dim(self) -> int:
        return self.r.size


@dataclass(frozen=True)
class MassMatrix:
    """Diagonal, strictly positive mass matrix."""

    diag: np.ndarray
    inv_diag: np.ndarray = field(init=False, repr=False, compare=False)
    sqrt_diag: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        diag = as_vector(self.diag, "mass diagonal")
        if not np.all(np.isfinite(diag)) or np.any(diag <= 0):
            raise ValueError("mass diagonal entries must be finite and > 0")
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "inv_diag", 1.0 / diag)
        object.__setattr__(self, "sqrt_diag", np.sqrt(diag))

    @classmethod
    def identity(cls, d: int) -> "MassMatrix":
        return cls(np.ones(d))

    @property
    def dim(self) -> int:
        return self.diag.size

    def is_identity(self) -> bool:
        return bool(np.all(self.diag == 1.0))


class RngStream:
    """Counter-based random stream keyed by (seed, stream).

    Wraps a Philox bit generator so that the draw sequence is a pure function
    of the key: the same (seed, stream) replays bit-exactly, and distinct
    stream ids are statistically independent. Normal draws are served from an
    internal block buffer; the buffered sequence is part of the contract
    (replays are exact), only raw-bit consumption granularity is internal.
    """

    _BLOCK = 8192

    def __init__(self, seed: int, stream: int = 0):
        seed = int(seed)
        stream = int(stream)
        if not (0 <= seed < _U64 and 0 <= stream < _U64):
            raise ValueError("seed and stream must be 64-bit nonnegative integers")
        self.seed = seed
        self.stream = stream
        self._gen = np.random.Generator(
            np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))
        )
        self._buf = np.empty(0)
        self._pos = 0

    def normal(self, d: int) -> np.ndarray:
        """d iid standard-normal draws, advancing the stream."""
        if d < 1:
            raise ValueError("d must be >= 1")
        if self._pos + d > self._buf.size:
            fresh = self._gen.standard_normal(max(self._BLOCK, d))
            self._buf = np.concatenate([self._buf[self._pos :], fresh])
            self._pos = 0
        out = self._buf[self._pos : self._pos + d].copy()
        self._pos += d
        return out

    def integers(self, n: int) -> int:
        """One uniform draw from {0, ..., n-1}."""
        if n < 1:
            raise ValueError("n must be >= 1")
        return int(self._gen.integers(0, n))

    def permutation(self, n: int) -> np.ndarray:
        """Uniformly random permutation of range(n) by Fisher-Yates."""
        perm = np.arange(n)
        for i in range(n - 1, 0, -1):
            j = int(self._gen.integers(0, i + 1))
            perm[i], perm[j] = perm[j], perm[i]
        return perm

    def uniform(self, low: float, high: float, size: int) -> np.ndarray:
        """size iid U(low, high) draws; served raw, not through the normal buffer."""
        if size < 1:
            raise ValueError("size must be >= 1")
        if not low < high:
            raise ValueError("need low < high")
        return self._gen.uniform(low, high, size)

    def subset(self, n: int, k: int) -> np.ndarray:
        """k distinct indices drawn uniformly from {0, ..., n-1}.

        Partial Fisher-Yates over a sparse (dict-backed) array: O(k) work
        regardless of n.
        """
        if not 1 <= k <= n:
            raise ValueError("need 1 <= k <= n")
        swap: dict = {}
        out = np.empty(k, dtype=np.int64)
        for i in range(k):
            j = i + int(self._gen.integers(0, n - i))
            out[i] = swap.get(j, j)
            swap[j] = swap.get(i, i)
        return out


def kinetic_energy(r: np.ndarray, M: MassMatrix) -> float:
    """T(r) = 1/2 r^T M^-1 r for diagonal M. Nonnegative."""
    r = np.asarray(r, dtype=np.float64)
    if r.shape != (M.dim,):
        raise ValueError(f"momentum has dimension {r.shape}, mass expects ({M.dim},)")
    return 0.5 * float(np.dot(r, r * M.inv_diag))


def hamiltonian(z: State, potential_value: Callable[[np.ndarray], float], M: MassMatrix) -> float:
    """H(z) = U(theta) + T(r)."""
    return float(potential_value(z.theta)) + kinetic_energy(z.r, M)
