"""Phase-space state and the seeded RNG contract.

Conventions used throughout the package:

- A phase-space point is z = (r, theta): momentum first, position second,
  both 1-D float arrays of equal length d.
- Randomness flows through `RngStream`, a counter-based generator keyed by
  (seed, stream): identical keys give bit-identical draw sequences, distinct
  stream ids give independent streams.
- Every CSV is written by `write_columns` (for `chain`, `repro` and `cli`),
  every float in a CSV or in `meta.txt` by `format_float`. Both stay out of
  `__all__`, like `as_vector`: perfbench's tracer wraps every `__all__`
  function, and a span per cell would swamp its trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# numpy loads its random module on first use; loaded here, its cost stays in
# start-up rather than in the first command's run
from numpy.random import Generator, Philox

__all__ = [
    "State",
    "RngStream",
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


def format_float(x) -> str:
    """A float at full precision: `.17g` round-trips every float64, so a
    rerun with the same bits writes the same text."""
    return format(float(x), ".17g")


# rows formatted per write: a long trace never exists as text whole
_CSV_BLOCK = 4096


def _conversion(column) -> str | None:
    """The `%` conversion that writes a column's cells as `write_columns`
    says, or None where each cell needs its own test: "%.17g" (the text of
    `format_float`) for a float16/32/64 array, whose `.tolist()` gives
    Python floats, and "%s" (str) for an integer or bool array."""
    if not isinstance(column, np.ndarray):
        return None
    if column.dtype in (np.float16, np.float32, np.float64):
        return "%.17g"
    return "%s" if column.dtype.kind in "iub" else None


def write_columns(path, header, columns) -> None:
    """Write a CSV from its header and equal-length columns, one line per row.

    Float cells (numpy float64 included) go through `format_float`, any other
    cell through `str`. Columns may be lists or numpy arrays.
    """
    n = len(columns[0]) if columns else 0
    conversions = [_conversion(col) for col in columns]
    # one `%` template per row; a column of mixed cells is formatted cell by
    # cell into strings first
    row = ",".join(conv or "%s" for conv in conversions)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n, _CSV_BLOCK):
            # .tolist() turns array cells into Python numbers, the fast path
            parts = [col[start:start + _CSV_BLOCK] for col in columns]
            cells = [part.tolist() if conv else
                     [format_float(v) if isinstance(v, float) else str(v) for v in
                      (part.tolist() if isinstance(part, np.ndarray) else part)]
                     for part, conv in zip(parts, conversions)]
            fh.write("\n".join(map(row.__mod__, zip(*cells))) + "\n")


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


class RngStream:
    """Counter-based random stream keyed by (seed, stream).

    Wraps a Philox bit generator so that the draw sequence is a pure function
    of the key: the same (seed, stream) replays bit-exactly, and distinct
    stream ids are statistically independent. Each kind of draw gives the
    same numbers however a run of draws of that kind is split into calls:
    `normal(a)` then `normal(b)` reads what `normal(a + b)` reads. A stream
    that interleaves kinds (normal with integers, uniform or subset) reads
    another sequence than its kinds drawn apart, so every stream the package
    builds draws one kind only.
    """

    def __init__(self, seed: int, stream: int = 0):
        seed = int(seed)
        stream = int(stream)
        if not (0 <= seed < _U64 and 0 <= stream < _U64):
            raise ValueError("seed and stream must be 64-bit nonnegative integers")
        self.seed = seed
        self.stream = stream
        self._gen = Generator(Philox(key=np.array([seed, stream], dtype=np.uint64)))

    def normal(self, d: int) -> np.ndarray:
        """d iid standard-normal draws, advancing the stream."""
        if d < 1:
            raise ValueError("d must be >= 1")
        return self._gen.standard_normal(d)

    def integers(self, n, size=None):
        """Uniform draws from {0, ..., n-1}.

        One int when n is an int and size is None; otherwise an int64 array
        of `size` draws, or of one draw per entry when n is an array of
        bounds. However a sequence of draws is split into calls, it reads
        the same numbers and leaves the stream in the same state.
        """
        bounds = isinstance(n, np.ndarray)
        # a scalar bound is checked in plain Python: np.any on it costs a
        # third of a small sized call
        if np.any(n < 1) if bounds else n < 1:
            raise ValueError("n must be >= 1")
        if size is None and not bounds:
            return int(self._gen.integers(0, n))
        return self._gen.integers(0, n, size)

    def permutation(self, n: int) -> np.ndarray:
        """Uniformly random permutation of range(n) by Fisher-Yates."""
        return self.permutations(n, 1)[0]

    def permutations(self, n: int, count: int) -> np.ndarray:
        """(count, n) array whose rows are what `count` successive
        `permutation(n)` calls give.

        Fisher-Yates swaps position i with a uniform j <= i for i = n-1
        down to 1; one call draws every j of every row.
        """
        perms = np.tile(np.arange(n), (count, 1))
        if n < 2 or count < 1:
            return perms
        bounds = np.tile(np.arange(n, 1, -1), count)
        draws = self.integers(bounds).reshape(count, n - 1)
        rows = np.arange(count)
        for t, i in enumerate(range(n - 1, 0, -1)):
            j = draws[:, t]
            held = perms[:, i].copy()
            perms[:, i] = perms[rows, j]
            perms[rows, j] = held
        return perms

    def uniform(self, low: float, high: float, size: int) -> np.ndarray:
        """size iid U(low, high) draws."""
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
        js = (np.arange(k) + self.integers(n - np.arange(k))).tolist()
        swap: dict = {}
        out = []
        for i, j in enumerate(js):
            out.append(swap.get(j, j))
            swap[j] = swap.get(i, i)
        return np.array(out, dtype=np.int64)
