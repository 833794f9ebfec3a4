"""Tests for state containers, the CSV writer and the RNG stream."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hsde import core
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


def cell_by_cell(columns) -> str:
    """The CSV `write_columns` must write, one `format_float` / `str` call
    per cell."""
    cells = [[format_float(v) if isinstance(v, float) else str(v)
              for v in (col.tolist() if isinstance(col, np.ndarray) else col)]
             for col in columns]
    lines = [",".join(f"c{k}" for k in range(len(columns)))]
    return "\n".join(lines + [",".join(row) for row in zip(*cells)]) + "\n"


def written(path, columns) -> str:
    write_columns(path, [f"c{k}" for k in range(len(columns))], columns)
    return path.read_text()


# around each power of ten the numpy path's log10 may misjudge the decade
NEAR_POWERS = [v for k in range(-6, 19)
               for v in (np.nextafter(10.0**k, 0), 10.0**k, np.nextafter(10.0**k, np.inf))]


# cells of each kind a list column may hold; text that `%` would read as a
# conversion must come out as written
CELLS = [
    st.floats(width=64),
    st.integers(-2**53, 2**53),
    st.booleans(),
    st.integers(2**53 + 1, 2**70) | st.integers(-2**70, -2**53 - 1),
    st.floats(width=32).map(np.float32),
    st.sampled_from(["%", "%s", "%%", ",", "", "%d", "x"]) | st.text("%s,.e1- ", max_size=4),
]


@st.composite
def mixed_tables(draw):
    """Columns of one length: float64 and integer arrays, lists of one kind
    of cell each, and lists that mix kinds."""
    n = draw(st.integers(0, 12))
    cells = [st.lists(cell, min_size=n, max_size=n) for cell in (*CELLS, st.one_of(CELLS))]
    arrays = [cells[0].map(np.array), cells[1].map(lambda v: np.array(v, np.int64))]
    return draw(st.lists(st.one_of(*arrays, *cells), min_size=1, max_size=5))


class TestWriteColumns:
    # array columns of every dtype class `_column` sorts (float16/32/64 arrays
    # widened to float64, integer arrays kept or, with a cell beyond ±2^53,
    # turned to text like the rest) next to columns of mixed cells
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
        assert written(tmp_path / "t.csv", columns) == cell_by_cell(columns)

    # float64 and integer arrays go through numpy a block at a time; blocks of
    # 3 rows put every kind of cell at every place in a block
    @pytest.mark.parametrize("block", [3, None])
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=st.lists(st.tuples(st.floats(width=64), st.integers(-2**63, 2**63 - 1),
                                   st.integers(-2**53, 2**53)), min_size=1, max_size=20))
    def test_numeric_cells_match_cell_by_cell(self, tmp_path, monkeypatch, block, rows):
        if block is not None:
            monkeypatch.setattr(core, "_CSV_BLOCK", block)
        floats, ints, exact = (np.array(col) for col in zip(*rows))
        for columns in ([floats, exact], [ints, floats], [-floats]):
            assert written(tmp_path / "t.csv", columns) == cell_by_cell(columns)

    # a table that mixes kinds of columns, every text cell spliced in unread
    @pytest.mark.parametrize("block", [3, None])
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(columns=mixed_tables())
    def test_mixed_tables_match_cell_by_cell(self, tmp_path, monkeypatch, block, columns):
        if block is not None:
            monkeypatch.setattr(core, "_CSV_BLOCK", block)
        assert written(tmp_path / "t.csv", columns) == cell_by_cell(columns)

    @pytest.mark.parametrize("block", [3, None])
    def test_named_cells_match_cell_by_cell(self, tmp_path, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(core, "_CSV_BLOCK", block)
        floats = np.array(NEAR_POWERS + [
            1234567890123456.75, 1234567890123456.25, np.nextafter(0.1, 0), 1e-4, 1e16,
            -0.0, 5e-324, np.finfo(np.float64).max, np.inf, np.nan])
        big = [-2**63, 2**63 - 1, 2**53, -2**53, 2**53 + 1, 10**17, 0, 1, -1]
        for columns in ([floats, -floats], [np.array(big)],
                        [np.array([0, 2**64 - 1, 2**63, 2**53, 7], dtype=np.uint64)],
                        [np.array([2**53, -2**53, 10**15, 0, -7]), np.arange(5, dtype=np.uint8)]):
            assert written(tmp_path / "t.csv", columns) == cell_by_cell(columns)
        # 17-digit ties round half to even; log10 reads -1 at the float below 0.1
        text = written(tmp_path / "t.csv", [floats])
        assert "\n1234567890123456.8\n1234567890123456.2\n0.099999999999999992\n" in text

    # a log10 that misjudges the decade next to each power of ten, low or
    # high, leaves those cells to format_float
    @pytest.mark.parametrize("off", [-1e-12, 1e-12])
    def test_misjudged_decades_are_delegated(self, tmp_path, monkeypatch, off):
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda v: log10(v) + off)
        columns = [np.array(NEAR_POWERS + [0.5, -123.25, 7.0, 1e-4, 9e15])]
        assert written(tmp_path / "t.csv", columns) == cell_by_cell(columns)

    @pytest.mark.parametrize("header, columns", [
        (["a", "b"], [np.arange(3), np.arange(2)]),
        (["a", "b", "c"], [np.arange(3), np.arange(3)]),
        (["a", "b"], [np.arange(3), np.zeros((3, 2))]),
        (["a"], [np.float64(1.0)]),
    ], ids=["unequal-lengths", "extra-header-name", "2-d-column", "0-d-column"])
    def test_bad_input_raises_before_the_file_opens(self, tmp_path, header, columns):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError):
            write_columns(path, header, columns)
        assert not path.exists()


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
