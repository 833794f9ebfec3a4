"""Tests for mini-batch schedules and their unbiasedness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsde.batching import BatchMode, BatchSchedule
from hsde.core import RngStream
from hsde.potentials import LinearGaussian


def test_full_mode_emits_marker_forever():
    sched = BatchSchedule(BatchMode.FULL, 1, RngStream(0, 0))
    for _ in range(10):
        assert sched.next() == (None, 1.0)


def test_k1_random_modes_reduce_to_single_batch():
    for mode in (BatchMode.PERMUTATION_SWEEP, BatchMode.IID_UNIFORM):
        sched = BatchSchedule(mode, 1, RngStream(0, 0))
        for _ in range(5):
            batch, scale = sched.next()
            assert batch == 0 and scale == 1.0


def test_permutation_sweeps_are_permutations():
    sched = BatchSchedule("perm", 3, RngStream(5, 0))
    for _ in range(50):
        sweep = [sched.next()[0] for _ in range(3)]
        assert sorted(sweep) == [0, 1, 2]


def test_sweep_completeness_counts():
    K, sweeps = 5, 40
    sched = BatchSchedule(BatchMode.PERMUTATION_SWEEP, K, RngStream(6, 0))
    ids = [sched.next()[0] for _ in range(K * sweeps)]
    for b in range(K):
        assert ids.count(b) == sweeps


def test_sweeps_vary_across_sweeps():
    sched = BatchSchedule("perm", 6, RngStream(7, 0))
    sweeps = {tuple(sched.next()[0] for _ in range(6)) for _ in range(30)}
    assert len(sweeps) > 1


def test_iid_frequencies():
    K, n = 4, 100_000
    sched = BatchSchedule(BatchMode.IID_UNIFORM, K, RngStream(8, 0))
    ids = np.array([sched.next()[0] for _ in range(n)])
    for b in range(K):
        assert abs(np.mean(ids == b) - 0.25) < 0.01


def test_scale_is_k_for_random_modes():
    for mode in ("perm", "iid"):
        sched = BatchSchedule(mode, 7, RngStream(9, 0))
        assert sched.next()[1] == 7.0


def test_seed_determinism():
    a = BatchSchedule("perm", 4, RngStream(11, 3))
    b = BatchSchedule("perm", 4, RngStream(11, 3))
    assert [a.next() for _ in range(20)] == [b.next() for _ in range(20)]
    c = BatchSchedule("iid", 4, RngStream(11, 4))
    d = BatchSchedule("iid", 4, RngStream(11, 4))
    assert [c.next() for _ in range(20)] == [d.next() for _ in range(20)]


@settings(max_examples=60, deadline=None)
@given(
    mode=st.sampled_from(["full", "iid", "perm"]),
    K=st.integers(min_value=1, max_value=9),
    calls=st.lists(st.tuples(st.booleans(), st.integers(min_value=0, max_value=40)),
                   min_size=1, max_size=12),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)
def test_take_interleaved_with_next_equals_next_alone(mode, K, calls, seed):
    # take(m) must read what m next() calls read and leave the schedule
    # where they would, whatever the cursor inside a sweep
    chunked = BatchSchedule(mode, K, RngStream(seed, 2))
    stepped = BatchSchedule(mode, K, RngStream(seed, 2))
    got, want = [], []
    for use_take, m in calls:
        if use_take:
            ids = chunked.take(m)
            assert ids.dtype == np.int64 and ids.shape == (m,)
            got += ids.tolist()
        else:
            got += [-1 if b is None else b for b, _ in (chunked.next() for _ in range(m))]
        want += [-1 if b is None else b for b, _ in (stepped.next() for _ in range(m))]
    assert got == want
    # both schedules and their streams carry on identically
    assert [chunked.next() for _ in range(2 * K + 1)] == [stepped.next() for _ in range(2 * K + 1)]
    assert chunked.rng.normal(3).tobytes() == stepped.rng.normal(3).tobytes()


def test_take_draws_once_per_chunk():
    calls = []

    class Counting(RngStream):
        def integers(self, n, size=None):
            calls.append(n)
            return super().integers(n, size)

    for mode in ("iid", "perm"):
        calls.clear()
        BatchSchedule(mode, 8, Counting(0, 2)).take(256)
        assert len(calls) == 1


def test_k_below_one_rejected():
    with pytest.raises(ValueError):
        BatchSchedule("iid", 0, RngStream(0, 0))
    with pytest.raises(ValueError):
        BatchSchedule("bogus", 2, RngStream(0, 0))


class TestUnbiasedness:
    def setup_method(self):
        rng = np.random.default_rng(123)
        Phi = rng.normal(size=(24, 3))
        y = rng.normal(size=24)
        self.P = LinearGaussian(Phi, y, noise_var=0.5, prior_var=1.0, n_batches=6)
        self.theta = np.array([0.2, -0.7, 1.1])
        self.full = self.P.gradient(self.theta)

    def test_permutation_sweep_exact_over_one_sweep(self):
        sched = BatchSchedule("perm", 6, RngStream(21, 0))
        acc = np.zeros(3)
        for _ in range(6):
            batch, scale = sched.next()
            acc += scale * self.P.gradient(self.theta, batch=batch)
        np.testing.assert_allclose(acc / 6.0, self.full, rtol=1e-12)

    def test_iid_unbiased_within_mc_error(self):
        sched = BatchSchedule("iid", 6, RngStream(22, 0))
        n = 10_000
        draws = np.empty((n, 3))
        for i in range(n):
            batch, scale = sched.next()
            draws[i] = scale * self.P.gradient(self.theta, batch=batch)
        err = draws.mean(axis=0) - self.full
        bound = 4.0 * draws.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(err) <= bound)
