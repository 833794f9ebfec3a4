"""Tests for state containers, the CSV writer and the RNG stream."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsde.core import (
    RngStream,
    State,
    as_vector,
    format_float,
    write_columns,
)

from .oracles import reference_permutation, reference_subset

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)

class TestWriteColumns:
    # array columns of every dtype class the writer sorts (float arrays
    # through one "%.17g", integer and bool arrays through "%s", the rest
    # cell by cell) next to a list column of mixed cells
    def test_every_column_kind_matches_cell_by_cell(self, tmp_path):
        awkward = [-0.0, 5e-324, 1e300, 0.1, -1e-310, np.inf, -np.inf, np.nan]
        with np.errstate(over="ignore"):
            narrow = [np.array(awkward, dtype=np.float32),
                      np.array(awkward, dtype=np.float16)]
        columns = [
            np.array(awkward),
            *narrow,
            np.array(awkward, dtype=np.longdouble),
            np.array(awkward, dtype=np.complex128),
            np.array([0, 1, 2, 3, -4, 5, 2**40, -(2**62)], dtype=np.int64),
            np.arange(8, dtype=np.uint8),
            np.arange(8) % 3 == 0,
            np.array([0.5, "x", 3, None, 2.5, True, -0.0, np.float64(0.1)], dtype=object),
            [0.5, "x", 3, None, np.float64(2.5), True, np.int64(-7), np.float32(0.1)],
        ]
        path = tmp_path / "t.csv"
        write_columns(path, [f"c{k}" for k in range(len(columns))], columns)
        cells = [[format_float(v) if isinstance(v, float) else str(v)
                  for v in (col.tolist() if isinstance(col, np.ndarray) else col)]
                 for col in columns]
        want = [",".join(f"c{k}" for k in range(len(columns)))]
        want += [",".join(row) for row in zip(*cells)]
        assert path.read_text() == "\n".join(want) + "\n"


class TestState:
    def test_holds_copies(self):
        r = np.array([1.0, 2.0])
        z = State(r=r, theta=np.array([3.0, 4.0]))
        r[0] = 99.0
        assert z.r[0] == 1.0
        assert z.dim == 2

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            State(r=np.zeros(2), theta=np.zeros(3))

    def test_scalar_input_rejected(self):
        with pytest.raises(ValueError):
            State(r=np.zeros((2, 2)), theta=np.zeros(4))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            State(r=np.array([np.nan]), theta=np.array([0.0]))


def test_as_vector_validates():
    v = as_vector([1, 2, 3])
    assert v.dtype == np.float64
    with pytest.raises(ValueError):
        as_vector(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        as_vector([np.inf])


class TestRngStream:
    def test_deterministic_across_instances(self):
        a = RngStream(seed=123, stream=4)
        b = RngStream(seed=123, stream=4)
        np.testing.assert_array_equal(a.normal(1000), b.normal(1000))
        assert a.integers(10) == b.integers(10)
        np.testing.assert_array_equal(a.permutation(17), b.permutation(17))

    def test_streams_differ(self):
        a = RngStream(seed=123, stream=0)
        b = RngStream(seed=123, stream=1)
        assert not np.array_equal(a.normal(100), b.normal(100))

    def test_seeds_differ(self):
        a = RngStream(seed=1, stream=0)
        b = RngStream(seed=2, stream=0)
        assert not np.array_equal(a.normal(100), b.normal(100))

    def test_normal_moments(self):
        draws = RngStream(seed=7, stream=0).normal(1_000_000)
        # mean has std 1e-3, var estimate std ~ sqrt(2/n)
        assert abs(np.mean(draws)) < 5e-3
        assert abs(np.var(draws) - 1.0) < 7e-3

    def test_buffer_boundary_consistency(self):
        # draws split at any boundary must be a prefix-stable sequence
        a = RngStream(seed=5, stream=2)
        chunks = [a.normal(3000) for _ in range(4)]
        joined = np.concatenate(chunks)
        b = RngStream(seed=5, stream=2)
        parts = [b.normal(100) for _ in range(120)]
        np.testing.assert_array_equal(joined, np.concatenate(parts))

    def test_permutation_is_permutation(self):
        p = RngStream(seed=11, stream=0).permutation(50)
        assert sorted(p.tolist()) == list(range(50))

    def test_permutation_uniformity(self):
        # all 6 orderings of 3 items should appear with ~equal frequency
        rng = RngStream(seed=3, stream=0)
        counts = {}
        trials = 6000
        for _ in range(trials):
            key = tuple(rng.permutation(3).tolist())
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6
        for n in counts.values():
            assert abs(n - trials / 6) < 5 * np.sqrt(trials * (1 / 6) * (5 / 6))

    def test_integers_range(self):
        rng = RngStream(seed=9, stream=1)
        vals = {rng.integers(4) for _ in range(200)}
        assert vals == {0, 1, 2, 3}

    def test_normal_rejects_bad_size(self):
        with pytest.raises(ValueError):
            RngStream(seed=0, stream=0).normal(0)

    @settings(max_examples=25, deadline=None)
    @given(
        d=st.integers(min_value=1, max_value=10),
        chunk_steps=st.lists(st.integers(min_value=1, max_value=5000),
                             min_size=1, max_size=6),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        stream=st.integers(min_value=0, max_value=2**64 - 1),
    )
    def test_chunked_draws_equal_per_step_draws(self, d, chunk_steps, seed, stream):
        # the chain runner draws a chunk of m steps as one normal(m * d) call
        # where a lone step draws normal(d); both must read the same numbers
        steps = 2 * 8192 // d + 1
        per_step = RngStream(seed, stream)
        one_by_one = np.concatenate([per_step.normal(d) for _ in range(steps)])
        chunked = RngStream(seed, stream)
        parts, done, i = [], 0, 0
        while done < steps:
            m = min(chunk_steps[i % len(chunk_steps)], steps - done)
            parts.append(chunked.normal(m * d))
            done += m
            i += 1
        assert one_by_one.tobytes() == np.concatenate(parts).tobytes()
        # and the two streams carry on identically
        for size in (d, 3 * d + 1, 8192):
            assert per_step.normal(size).tobytes() == chunked.normal(size).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=40),
        count=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
    )
    def test_permutation_equals_per_swap_draws(self, n, count, seed):
        ours, ref = RngStream(seed, 3), RngStream(seed, 3)
        for _ in range(count):
            got, want = ours.permutation(n), reference_permutation(ref, n)
            assert got.tolist() == want.tolist()
        # a block of permutations equals as many single ones
        block = ours.permutations(n, count)
        assert block.shape == (count, n)
        for row in block:
            assert row.tolist() == reference_permutation(ref, n).tolist()
        assert ours.integers(7) == ref.integers(7)
        assert ours.normal(3).tobytes() == ref.normal(3).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=500),
        frac=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
    )
    def test_subset_equals_per_swap_draws(self, n, frac, seed):
        k = max(1, round(frac * n))
        ours, ref = RngStream(seed, 4), RngStream(seed, 4)
        for _ in range(2):
            assert ours.subset(n, k).tobytes() == reference_subset(ref, n, k).tobytes()
        assert ours.integers(9) == ref.integers(9)
        assert ours.normal(3).tobytes() == ref.normal(3).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        bounds=st.lists(st.integers(min_value=1, max_value=2**40), min_size=1,
                        max_size=50),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
    )
    def test_integers_sized_and_bounds_forms_equal_scalar_draws(self, bounds, seed):
        one_by_one, by_bounds = RngStream(seed, 5), RngStream(seed, 5)
        want = [one_by_one.integers(h) for h in bounds]
        got = by_bounds.integers(np.array(bounds))
        assert got.dtype == np.int64 and got.tolist() == want
        h = bounds[0]
        want = [one_by_one.integers(h) for _ in range(len(bounds))]
        assert by_bounds.integers(h, size=len(bounds)).tolist() == want
        assert one_by_one.normal(3).tobytes() == by_bounds.normal(3).tobytes()

    def test_integers_rejects_empty_range(self):
        rng = RngStream(0, 0)
        for n, size in ((0, None), (0, 3), (np.array([2, 0]), None)):
            with pytest.raises(ValueError):
                rng.integers(n, size)
