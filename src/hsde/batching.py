"""Mini-batch schedules: which sub-potential feeds each integrator step.

Three modes:

- FULL: every step sees the full potential.
- PERMUTATION_SWEEP: steps consume batches in uniformly random permutations
  of {0..K-1}, one fresh independent permutation per sweep of K steps.
- IID_UNIFORM: each step draws a batch id uniformly and independently.

A schedule emits batch ids only; the potential scales a block's gradient by
K (see `hsde.potentials`).
"""

from __future__ import annotations

import enum

import numpy as np

from .core import RngStream, fisher_yates

__all__ = ["BatchMode", "BatchSchedule"]


class BatchMode(str, enum.Enum):
    """How a chain's steps pick their batches (see module docstring)."""

    FULL = "full"
    PERMUTATION_SWEEP = "perm"
    IID_UNIFORM = "iid"


class BatchSchedule:
    """Deterministic-given-seed emitter of batch ids.

    Batch ids are 0-based; the full-batch marker is None from `next` and -1
    in the arrays `take` returns. Owned by a single chain; `next` and `take`
    mutate the cursor.
    """

    def __init__(self, mode: BatchMode, n_batches: int, rng: RngStream):
        self.mode = BatchMode(mode)
        self.n_batches = int(n_batches)
        if self.n_batches < 1:
            raise ValueError("n_batches must be >= 1")
        self.rng = rng
        # the ids of the open sweep, and the next one's position in it
        self._sweep = np.empty(0, dtype=np.int64)
        self._cursor = 0

    def next(self) -> int | None:
        """The next step's batch id, None for the full batch."""
        if self.mode is BatchMode.FULL:
            return None
        return int(self.take(1)[0])

    def take(self, m: int) -> np.ndarray:
        """Batch ids of the next m steps as an int64 array, -1 marking the
        full batch, with one draw call at most. However a run of steps is
        split into calls, it reads the same ids and leaves the schedule in
        the same state; `next` is one step of it."""
        return take_all([self], m)[:, 0]


def take_all(scheds, m: int) -> np.ndarray:
    """The (m, R) batch ids whose column c is `scheds[c].take(m)`, leaving
    each schedule as its own `take` would. Each schedule draws from its own
    stream as `take` does, and the sweeps that the permutation schedules
    open are permuted in one `fisher_yates` pass over all of them, so those
    schedules must share n_batches."""
    ids = np.empty((m, len(scheds)), dtype=np.int64)
    opened = []
    for c, s in enumerate(scheds):
        if s.mode is BatchMode.FULL:
            ids[:, c] = -1
        elif s.mode is BatchMode.IID_UNIFORM:
            ids[:, c] = s.rng.integers(s.n_batches, size=m)
        else:
            head = s._sweep[s._cursor:s._cursor + m]
            ids[:head.size, c] = head
            need = m - head.size
            s._cursor += m
            if need > 0:
                # open just the sweeps the remaining `need` steps reach into
                opened.append((c, s, need, s.rng.swaps(s.n_batches, -(-need // s.n_batches))))
    if opened:
        perms = fisher_yates(opened[0][1].n_batches,
                             np.concatenate([swaps for *_, swaps in opened]))
        for c, s, need, swaps in opened:
            sweeps, perms = perms[:len(swaps)], perms[len(swaps):]
            ids[m - need:, c] = sweeps.ravel()[:need]
            s._sweep = sweeps[-1].copy()
            s._cursor = need - (len(sweeps) - 1) * s.n_batches
    return ids
