"""Phase-space state and the seeded RNG contract.

Conventions used throughout the package:

- A phase-space point is z = (r, theta): momentum first, position second,
  both 1-D float arrays of equal length d.
- Randomness flows through `RngStream`, a counter-based generator keyed by
  (seed, stream): identical keys give bit-identical draw sequences, distinct
  stream ids give independent streams.
- Every CSV is written by `write_columns` (for `chain`, `repro` and `cli`),
  every block of it by `_numeric_block`, and every float in a CSV or in
  `meta.txt` in the text of `format_float`. They stay out of `__all__`, like
  `as_vector`: perfbench's tracer wraps every `__all__` function, and a span
  per cell would swamp its trace.
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
_CSV_BLOCK = 1024

# 10^s for s <= 21, exact doubles, and Veltkamp's split of each into
# 26-bit halves, for Dekker's exact product in `_numeric_block`
_SPLIT = 2.0**27 + 1
_TEN = np.array([float(10**s) for s in range(22)])
_TEN_HI = _TEN * _SPLIT - (_TEN * _SPLIT - _TEN)
_TEN_LO = _TEN - _TEN_HI
# the four digits of each of 0000..9999 as one uint32, and the trailing zeros
# of each, built by copies: arithmetic here adds 0.5 MB of peak RSS to every command
_DIGITS = np.frombuffer(b"0123456789", np.uint8)
_QUAD = np.column_stack([np.tile(_DIGITS.repeat(10**(3 - j)), 10**j)
                         for j in range(4)]).view(np.uint32)
_QUAD_ZEROS = np.zeros(10000, np.uint8)
for _k in (10, 100, 1000, 10000):
    _QUAD_ZEROS[::_k] += 1
_LEAD = np.frombuffer(b"0.000", np.uint8)[:, None]
# the words for 0, inf and nan, one column each
_WORDS = np.frombuffer(b"0\0\0infnan", np.uint8).reshape(3, 3).T


def _column(col):
    """A column as `_numeric_block` takes it: a float64 array where every cell
    is a float (a float16/32 array widens exactly), an integer array within
    ±2^53 where every cell is such an int (no bool), else a list of its cells,
    each float as the text of `format_float`."""
    if isinstance(col, np.ndarray):
        if col.dtype in (np.float16, np.float32, np.float64):
            return col.astype(np.float64, copy=False)
        if col.dtype.kind in "iu" and np.all((col >= -2**53) & (col <= 2**53)):
            return col
        col = col.tolist()
    kinds = set(map(type, col))
    if kinds == {float}:
        return np.array(col)
    if kinds == {int} and -2**53 <= min(col) and max(col) <= 2**53:
        return np.array(col, np.int64)
    return [format_float(v) if isinstance(v, float) else v for v in col]


def _numeric_block(parts) -> str:
    """The CSV lines of one block of `_column` columns: each number as
    `format_float` writes it (an integer within ±2^53 is exact as a float64,
    and reads as its `str`), each cell of a list as its `str`.

    A cell with 1e-4 <= |x| < 1e16 is x = ±D·10^(e-16), its 17 digits
    D = round-half-even(|x|·10^(16-e)) taken exactly: hi + lo is Dekker's
    product, and hi >= 2^53 (as wherever D >= 10^16) is an even integer, so
    D = hi + rint(lo).
    A D outside [10^16, 10^17) means log10 misjudged the decade (no float64
    in range is within half a unit of the 17th digit below a power of ten,
    so a misjudged D never rounds into it). ±0, ±inf and nan are words after
    the sign. The cells left, e-notation and misjudged decades, are written
    by `format_float` into the "%s" left in their place; a cell of a list
    stands in as 1e-300, and its "%s" takes its `str`, which `%` never reads.

    A cell's text fills 40 slots of a slot-major array, "\0" where unused:
    sign, "0.000", 17 digits with a slot for the point after each, separator.
    """
    n, m = len(parts[0]), len(parts)
    texts = [isinstance(part, list) for part in parts]
    x = np.column_stack([np.full(n, 1e-300) if text else part for part, text in
                         zip(parts, texts)]).astype(np.float64, copy=False).ravel()
    a = np.abs(x)
    ok = (a >= 1e-4) & (a < 1e16)
    words = (a == 0) | ~np.isfinite(a)
    a = np.where(ok, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    b_hi, b_lo = _TEN_HI[16 - e], _TEN_LO[16 - e]
    hi = a * _TEN[16 - e]
    a_hi = a * _SPLIT - (a * _SPLIT - a)
    a_lo = a - a_hi
    lo = a_hi * b_hi - hi + a_hi * b_lo + a_lo * b_hi + a_lo * b_lo
    D = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    ok &= (D >= 10**16) & (D < 10**17)
    # D's digits: the first, then four runs of four (int64 `%` is slow)
    p = np.array([D // 10**k for k in (16, 12, 8, 4, 0)])
    quads = p[1:] - 10000 * p[:-1]
    zeros = np.uint8(0)
    for q in quads:
        zeros = _QUAD_ZEROS[q] + (q == 0) * zeros
    # digits shown: the significant ones and every one before the point;
    # none in a word or delegated cell
    shown = np.where(ok, np.maximum(17 - zeros, e + 1), 0)
    slots = np.zeros((40, n * m), np.uint8)
    slots[0] = (np.signbit(x) & ~np.isnan(x)) * np.uint8(ord("-"))
    # "0.000" before a fraction's digits: char k where e < [0, 0, -1, -2, -3][k]
    slots[1:6] = (e < np.array([[0], [0], [-1], [-2], [-3]])) * _LEAD
    digits = slots[6:39:2]
    digits[0] = p[0] + ord("0")
    digits[1:].reshape(4, 4, n * m)[:] = _QUAD[quads].view(np.uint8).transpose(0, 2, 1)
    digits *= np.arange(17)[:, None] < shown
    slots[7:38:2] = ((np.arange(16)[:, None] == e) & (shown > e + 1)) * np.uint8(ord("."))
    slots[39].reshape(n, m)[:] = list(b"," * (m - 1) + b"\n")
    bad, word = np.flatnonzero(~ok & ~words), np.flatnonzero(words)
    digits[:3, word] = _WORDS[:, np.isinf(x[word]) + 2 * np.isnan(x[word])]
    slots[:6, bad] = np.frombuffer(b"%s\0\0\0\0", np.uint8)[:, None]
    # a slot that no cell of the block uses (most point slots) adds nothing
    text = slots[slots.any(1)].T.tobytes().translate(None, b"\0").decode()
    # the cells of the "%s" in row-major order
    fill = [parts[j][i] if texts[j] else format_float(v)
            for i, j, v in zip((bad // m).tolist(), (bad % m).tolist(), x[bad].tolist())]
    return text % tuple(fill) if bad.size else text


def write_columns(path, header, columns) -> None:
    """Write a CSV from its header and equal-length columns, one line per row.

    Float cells (numpy float64 included) read as `format_float` writes them,
    any other cell as `str`. Columns may be lists or 1-D numpy arrays; any
    other input raises ValueError before the file is opened. Each column is
    sorted once by `_column` into numbers or text, and `_numeric_block`
    writes every block.
    """
    if (any(np.ndim(col) != 1 for col in columns) or len({len(col) for col in columns}) > 1
            or len(header) != len(columns)):
        raise ValueError("need one header name per column and 1-D columns of equal length")
    n = len(columns[0]) if columns else 0
    columns = [_column(col) for col in columns]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n, _CSV_BLOCK):
            fh.write(_numeric_block([col[start:start + _CSV_BLOCK] for col in columns]))


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
