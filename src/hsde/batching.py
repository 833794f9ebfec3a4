"""Mini-batch schedules: which sub-potential feeds each integrator step.

Three modes:

- FULL: every step sees the full potential, gradient scale 1.
- PERMUTATION_SWEEP: steps consume batches in uniformly random permutations
  of {0..K-1}, one fresh independent permutation per sweep of K steps.
- IID_UNIFORM: each step draws a batch id uniformly and independently.

Mini-batch modes report gradient scale K: the simulated SDE replaces grad U
by K * grad U_i, which is unbiased for the full gradient under both random
modes (exactly so when averaged over one complete sweep).
"""

from __future__ import annotations

import enum

import numpy as np

from .core import RngStream

__all__ = ["BatchMode", "BatchSchedule"]


class BatchMode(str, enum.Enum):
    FULL = "full"
    PERMUTATION_SWEEP = "perm"
    IID_UNIFORM = "iid"


class BatchSchedule:
    """Deterministic-given-seed emitter of (batch id, gradient scale) pairs.

    Batch ids are 0-based; the full-batch marker is None. Owned by a single
    chain; `next` and `take` mutate the cursor.
    """

    def __init__(self, mode: BatchMode, n_batches: int, rng: RngStream):
        self.mode = BatchMode(mode)
        self.n_batches = int(n_batches)
        if self.n_batches < 1:
            raise ValueError("n_batches must be >= 1")
        self.rng = rng
        self._sweep = None
        self._cursor = 0

    def next(self) -> tuple[int | None, float]:
        if self.mode is BatchMode.FULL:
            return None, 1.0
        return int(self.take(1)[0]), float(self.n_batches)

    def take(self, m: int) -> np.ndarray:
        """Batch ids of the next m steps as an int64 array, -1 marking the
        full batch, with one draw call at most. However a run of steps is
        split into calls, it reads the same ids and leaves the schedule in
        the same state; `next` is one step of it."""
        if self.mode is BatchMode.FULL:
            return np.full(m, -1, dtype=np.int64)
        if self.mode is BatchMode.IID_UNIFORM:
            return self.rng.integers(self.n_batches, size=m)
        K = self.n_batches
        head = (np.empty(0, dtype=np.int64) if self._sweep is None
                else self._sweep[self._cursor:self._cursor + m])
        need = m - head.size
        if need <= 0:
            self._cursor += m
            return head.copy()
        # open just the sweeps the remaining `need` steps reach into
        perms = self.rng.permutations(K, -(-need // K))
        self._sweep = perms[-1].copy()
        self._cursor = need - (len(perms) - 1) * K
        return np.concatenate([head, perms.ravel()[:need]])

