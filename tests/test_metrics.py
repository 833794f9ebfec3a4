"""Tests for distribution distances and moment errors."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from hsde.chain import Trace
from hsde.core import RngStream
from hsde.metrics import (
    _MAXLOG,
    EmpiricalSample,
    _erf,
    _quantiles,
    kolmogorov_distance,
    ks_vs_gaussian,
    moment_errors,
    self_distance,
)
from hsde.potentials import GaussianPosterior

from .oracles import (
    brute_kolmogorov,
    reference_kolmogorov_distance,
    reference_ks_vs_gaussian,
    reference_self_distance,
)

finite_floats = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)


def make_trace(thetas):
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    n, d = thetas.shape
    return Trace(
        thetas=thetas,
        momenta=np.zeros((n, d)),
        steps=np.arange(n),
        times=np.arange(n, dtype=float),
        effective_time=float(n),
    )


class TestEmpiricalSample:
    def test_sorts_on_construction(self):
        s = EmpiricalSample([3.0, -1.0, 2.0])
        np.testing.assert_array_equal(s.values, [-1.0, 2.0, 3.0])
        assert s.n == 3

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            EmpiricalSample([])
        with pytest.raises(ValueError):
            EmpiricalSample([1.0, np.nan])
        with pytest.raises(ValueError):
            EmpiricalSample([np.inf])

    def test_does_not_alias_input(self):
        raw = np.array([2.0, 1.0])
        s = EmpiricalSample(raw)
        raw[0] = 99.0
        np.testing.assert_array_equal(s.values, [1.0, 2.0])


class TestKolmogorovDistance:
    def test_identical_samples(self):
        a = EmpiricalSample([0.0, 1.0, 5.0])
        assert kolmogorov_distance(a, a) == 0.0

    def test_disjoint_supports(self):
        assert kolmogorov_distance(EmpiricalSample([0.0, 1.0]),
                                   EmpiricalSample([2.0, 3.0])) == 1.0

    def test_interleaved_thirds(self):
        d = kolmogorov_distance(EmpiricalSample([0.0, 1.0, 2.0]),
                                EmpiricalSample([0.5, 1.5, 2.5]))
        assert d == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_ties_jump_once(self):
        d = kolmogorov_distance(EmpiricalSample([0.0, 0.0, 1.0]),
                                EmpiricalSample([0.0, 1.0, 1.0]))
        assert d == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_against_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            a = rng.normal(size=rng.integers(1, 40))
            b = rng.normal(loc=rng.uniform(-1, 1), size=rng.integers(1, 40))
            got = kolmogorov_distance(EmpiricalSample(a), EmpiricalSample(b))
            assert got == pytest.approx(brute_kolmogorov(a, b), abs=1e-12)

    def test_against_scipy(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=300)
        b = rng.normal(loc=0.3, size=200)
        got = kolmogorov_distance(EmpiricalSample(a), EmpiricalSample(b))
        want = scipy.stats.ks_2samp(a, b).statistic
        assert got == pytest.approx(want, abs=1e-12)

    # rounded to a grid so that ties within and across the samples are common
    @settings(deadline=None, max_examples=80)
    @given(
        st.lists(finite_floats.map(lambda v: round(v, 0)), min_size=1, max_size=30),
        st.lists(finite_floats.map(lambda v: round(v, 0)), min_size=1, max_size=30),
    )
    def test_equals_distinct_points_formula(self, xs, ys):
        a, b = EmpiricalSample(xs), EmpiricalSample(ys)
        assert kolmogorov_distance(a, b) == reference_kolmogorov_distance(a.values, b.values)

    @settings(deadline=None, max_examples=50)
    @given(
        st.lists(finite_floats, min_size=1, max_size=30),
        st.lists(finite_floats, min_size=1, max_size=30),
    )
    def test_symmetry_and_range(self, xs, ys):
        a, b = EmpiricalSample(xs), EmpiricalSample(ys)
        d = kolmogorov_distance(a, b)
        assert d == kolmogorov_distance(b, a)
        assert 0.0 <= d <= 1.0


class TestKsVsGaussian:
    def test_exact_quantiles(self):
        for n in (4, 25, 400):
            q = ndtri((np.arange(1, n + 1) - 0.5) / n)
            d = ks_vs_gaussian(EmpiricalSample(q), 0.0, 1.0)
            assert d == pytest.approx(1.0 / (2 * n), abs=1e-12)

    def test_single_point_at_mean(self):
        assert ks_vs_gaussian(EmpiricalSample([2.0]), 2.0, 4.0) == pytest.approx(0.5)

    def test_large_shift_saturates(self):
        rng = np.random.default_rng(2)
        s = EmpiricalSample(rng.normal(size=100) + 10.0)
        assert ks_vs_gaussian(s, 0.0, 1.0) > 0.999

    def test_against_scipy_kstest(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.normal(loc=0.4, scale=1.3, size=int(rng.integers(1, 200)))
            got = ks_vs_gaussian(EmpiricalSample(x), 0.4, 1.3**2)
            want = scipy.stats.kstest(x, "norm", args=(0.4, 1.3)).statistic
            assert got == pytest.approx(want, abs=1e-10)

    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(finite_floats, min_size=1, max_size=300),
        st.floats(-5.0, 5.0),
        st.floats(0.01, 30.0),
    )
    def test_equals_one_temporary_per_operation_formula(self, xs, mean, var):
        a = EmpiricalSample(xs)
        before = a.values.copy()
        assert ks_vs_gaussian(a, mean, var) == reference_ks_vs_gaussian(a.values, mean, var)
        assert a.values.tobytes() == before.tobytes()

    @pytest.mark.parametrize("kind, bound", [("normal", 0.32), ("quantile", 2.25)])
    def test_working_memory_in_sample_length_arrays(self, kind, bound):
        # a normal sample keeps few blocks: the CDF is taken at block ends and
        # in those (0.29 of one n-length array). Quantile-spaced points have
        # every gap near 1/(2n), so every block is kept: the sample less the
        # mean turned into its CDF and one rank buffer (2.07), within the
        # 2.25 a full pass was held to
        n = 100_000
        if kind == "normal":
            values, mean, var = np.random.default_rng(8).normal(0.3, 1.7, size=n), 0.2, 2.5
        else:
            values, mean, var = ndtri((np.arange(n) + 0.5) / n), 0.0, 1.0
        a = EmpiricalSample(values)
        want = reference_ks_vs_gaussian(a.values, mean, var)
        tracemalloc.start()
        try:
            got = ks_vs_gaussian(a, mean, var)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < bound * 8 * n

    def test_rejects_bad_variance(self):
        with pytest.raises(ValueError):
            ks_vs_gaussian(EmpiricalSample([0.0]), 0.0, 0.0)
        with pytest.raises(ValueError):
            ks_vs_gaussian(EmpiricalSample([0.0]), 0.0, -1.0)

    @pytest.mark.parametrize("mean, variance, name", [
        (math.nan, 1.0, "mean"), (math.inf, 1.0, "mean"), (-math.inf, 1.0, "mean"),
        (0.0, math.nan, "variance"), (0.0, math.inf, "variance")])
    def test_rejects_nonfinite_mean_or_variance(self, monkeypatch, mean, variance, name):
        # a NaN would pass silently, and an infinite one reads 0.5 or 1.0
        from hsde import metrics

        def no_erf(*_args, **_kw):
            raise AssertionError("erf ran before the arguments were checked")

        monkeypatch.setattr(metrics, "_erf", no_erf)
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ks_vs_gaussian(EmpiricalSample([0.1, 0.5, -0.3]), mean, variance)

    @settings(deadline=None, max_examples=40)
    @given(
        st.lists(finite_floats, min_size=2, max_size=25),
        st.lists(finite_floats, min_size=2, max_size=25),
    )
    def test_one_sample_distances_differ_by_at_most_two_sample(self, xs, ys):
        a, b = EmpiricalSample(xs), EmpiricalSample(ys)
        gap = abs(ks_vs_gaussian(a, 0.0, 1.0) - ks_vs_gaussian(b, 0.0, 1.0))
        assert gap <= kolmogorov_distance(a, b) + 2.0 / min(a.n, b.n) + 1e-12


def ks_samples(n):
    rng = np.random.default_rng(n)
    return {
        "near": rng.normal(0.2, np.sqrt(2.5), n),
        "shifted": rng.normal(1.5, 0.6, n),
        "heavy": 0.2 + rng.standard_t(1.5, n),
        "tied": np.round(rng.normal(0.2, 1.6, n), 2),
        "beyond-8": rng.choice([-1.0, 1.0], n) * rng.uniform(14.0, 40.0, n),
        "huge": rng.choice([-1.0, 1.0], n) * rng.uniform(1e307, 1.7e308, n),
    }


class TestKsSupremumBlocks:
    """Above one erf block (4,096 points) erf runs only in the blocks that
    can hold the sup; the distance keeps every bit."""

    @pytest.mark.parametrize("n", [1024, 1025, 4096, 4097, 4127, 50_000, 100_000])
    @pytest.mark.parametrize("kind", ["near", "shifted", "heavy", "tied", "beyond-8", "huge"])
    def test_equals_one_temporary_per_operation_formula(self, n, kind):
        a = EmpiricalSample(ks_samples(n)[kind])
        with np.errstate(all="ignore"):
            got = ks_vs_gaussian(a, 0.2, 2.5)
            want = reference_ks_vs_gaussian(a.values, 0.2, 2.5)
        assert got.hex() == want.hex()

    @pytest.mark.parametrize("n", [4097, 4127, 4128])
    def test_sup_at_the_last_point(self, n):
        # a tie at the top puts the sup at rank n - 1, in the last block,
        # which overlaps the one before it unless 32 divides n
        values = ndtri((np.arange(n) + 0.5) / n)
        values[-1] = values[-2]
        a = EmpiricalSample(values)
        got = ks_vs_gaussian(a, 0.0, 1.0)
        assert got.hex() == reference_ks_vs_gaussian(a.values, 0.0, 1.0).hex()
        assert got > 1.4 / n

    def count_erf_points(self, monkeypatch):
        from hsde import metrics

        seen = []

        def counted(x, out=None):
            seen.append(len(x))
            return _erf(x, out)

        monkeypatch.setattr(metrics, "_erf", counted)
        return seen

    def test_erf_sees_under_a_tenth_of_the_points(self, monkeypatch):
        seen = self.count_erf_points(monkeypatch)
        n = 100_000
        a = EmpiricalSample(np.random.default_rng(8).normal(0.3, 1.7, size=n))
        assert ks_vs_gaussian(a, 0.2, 2.5) == reference_ks_vs_gaussian(a.values, 0.2, 2.5)
        assert sum(seen) < 0.1 * n

    @pytest.mark.parametrize("n", [1, 200, 1024, 4096])
    def test_small_samples_take_one_pass(self, monkeypatch, n):
        seen = self.count_erf_points(monkeypatch)
        ks_vs_gaussian(EmpiricalSample(np.random.default_rng(n).normal(size=n)), 0.0, 1.0)
        assert seen == [n]


class TestSelfDistance:
    def test_full_size_subsamples_are_identical(self):
        oracle = EmpiricalSample(np.linspace(0, 1, 64))
        q05, q50, q95 = self_distance(oracle, 64, 25, RngStream(0, 0))
        assert q05 == q50 == q95 == 0.0

    def test_quantiles_ordered(self):
        oracle = EmpiricalSample(np.random.default_rng(4).normal(size=5000))
        q05, q50, q95 = self_distance(oracle, 100, 40, RngStream(1, 0))
        assert q05 <= q50 <= q95

    def test_median_calibration_at_200(self):
        oracle = EmpiricalSample(np.random.default_rng(5).normal(size=100_000))
        _, q50, _ = self_distance(oracle, 200, 40, RngStream(2, 0))
        assert 0.04 <= q50 <= 0.12

    def test_median_decreases_with_subsample_size(self):
        oracle = EmpiricalSample(np.random.default_rng(6).normal(size=100_000))
        medians = [
            self_distance(oracle, m, 60, RngStream(3, i))[1]
            for i, m in enumerate((50, 200, 800))
        ]
        assert medians[0] > medians[1] > medians[2]

    def test_deterministic(self):
        oracle = EmpiricalSample(np.random.default_rng(7).normal(size=2000))
        a = self_distance(oracle, 50, 30, RngStream(9, 0))
        b = self_distance(oracle, 50, 30, RngStream(9, 0))
        assert a == b

    @pytest.mark.parametrize("m, reps, seed", [(200, 20, 0), (50, 33, 1), (7, 21, 2)])
    def test_equals_np_quantile_formula(self, m, reps, seed):
        values = np.random.default_rng(seed).normal(size=5000).round(2)
        got = self_distance(EmpiricalSample(values), m, reps, RngStream(seed, 5))
        want = reference_self_distance(np.sort(values), m, reps, RngStream(seed, 5))
        assert got == want

    def test_validation(self):
        oracle = EmpiricalSample([1.0, 2.0])
        with pytest.raises(ValueError):
            self_distance(oracle, 3, 25, RngStream(0, 0))
        with pytest.raises(ValueError):
            self_distance(oracle, 2, 19, RngStream(0, 0))


class TestMomentErrors:
    def test_constant_trace_at_posterior_mean(self):
        post = GaussianPosterior(np.array([1.0, -2.0]),
                                 np.diag([0.5, 2.0]))
        t = make_trace(np.tile([1.0, -2.0], (10, 1)))
        mean_err, var_err = moment_errors(t, post)
        np.testing.assert_array_equal(mean_err, [0.0, 0.0])
        np.testing.assert_allclose(var_err, [0.5, 2.0], rtol=1e-15)

    def test_single_sample_variance_convention(self):
        post = GaussianPosterior(np.array([0.0]), np.array([[3.0]]))
        mean_err, var_err = moment_errors(make_trace([[0.7]]), post)
        assert mean_err[0] == pytest.approx(0.7)
        assert var_err[0] == pytest.approx(3.0)

    def test_exact_posterior_draws_land_in_clt_band(self):
        rng = np.random.default_rng(8)
        mean = np.array([1.0, -0.5])
        cov = np.array([[0.8, 0.3], [0.3, 0.6]])
        post = GaussianPosterior(mean, cov)
        n = 100_000
        draws = rng.multivariate_normal(mean, cov, size=n)
        mean_err, var_err = moment_errors(make_trace(draws), post)
        sig = np.sqrt(np.diag(cov))
        assert np.all(mean_err <= 4 * sig / np.sqrt(n))
        assert np.all(var_err <= 4 * np.diag(cov) * np.sqrt(2.0 / n))

    def test_validation(self):
        post = GaussianPosterior(np.array([0.0]), np.array([[1.0]]))
        empty = Trace(
            thetas=np.zeros((0, 1)), momenta=np.zeros((0, 1)),
            steps=np.zeros(0, dtype=int), times=np.zeros(0),
            effective_time=0.0,
        )
        with pytest.raises(ValueError):
            moment_errors(empty, post)
        with pytest.raises(ValueError):
            moment_errors(make_trace([[1.0, 2.0]]), post)


class TestSubsetDraws:
    def test_indices_distinct_and_in_range(self):
        rng = RngStream(4, 0)
        for _ in range(50):
            idx = rng.subset(37, 11)
            assert len(set(idx.tolist())) == 11
            assert idx.min() >= 0 and idx.max() < 37

    def test_uniform_membership(self):
        rng = RngStream(5, 0)
        counts = np.zeros(6)
        reps = 30_000
        for _ in range(reps):
            counts[rng.subset(6, 2)] += 1
        freq = counts / (2 * reps)
        # every element takes an equal share of the drawn slots
        np.testing.assert_allclose(freq, 1.0 / 6.0 * np.ones(6), atol=0.01)

    def test_validation(self):
        rng = RngStream(0, 0)
        with pytest.raises(ValueError):
            rng.subset(5, 6)
        with pytest.raises(ValueError):
            rng.subset(5, 0)


def same_bits(got, want) -> bool:
    """Equal float64 arrays bit for bit (the sign of a zero included), any
    NaN matching any NaN."""
    got, want = np.asarray(got), np.asarray(want)
    nan = np.isnan(want)
    return bool(np.array_equal(np.isnan(got), nan)
                and np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64)))


class TestQuantiles:
    @settings(deadline=None, max_examples=200)
    @given(
        st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=60),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
    )
    def test_equals_np_quantile(self, values, qs):
        values = np.array(values)
        assert same_bits(_quantiles(values, tuple(qs)), np.quantile(values, qs))

    # a lone -0.0 keeps its sign, and -0.0 / 0.0 ties land where numpy's
    # partition puts them
    @pytest.mark.parametrize("values", [
        [-0.0], [0.0, -0.0, -0.0, 0.0, 2.5], [-1.0, -0.0, 0.0, -0.0, 2.5, 2.5, 2.5],
        [-1e300, -1e300, -0.0, 0.0, -0.0, 2.5],
    ])
    def test_signed_zeros(self, values):
        qs = [0.0, 0.25, 1 / 3, 0.5, 0.75, 1.0]
        values = np.array(values)
        assert same_bits(_quantiles(values, tuple(qs)), np.quantile(values, qs))

    # self_distance's 20 distances put the median at gamma = 0.5 exactly,
    # where the two ends of numpy's lerp round differently
    def test_self_distance_levels(self):
        rng = np.random.default_rng(8)
        qs = (0.05, 0.5, 0.95)
        for _ in range(500):
            values = rng.uniform(size=20) * 10.0 ** rng.uniform(-3, 3, size=20)
            assert same_bits(_quantiles(values, qs), np.quantile(values, list(qs)))


def _around(x: float, k: int = 3) -> list:
    """x and its k float64 neighbours on each side."""
    out, lo, hi = [x], x, x
    for _ in range(k):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


class TestErf:
    """_erf against scipy.special.erf, which it ports (cephes)."""

    def check(self, x):
        x = np.asarray(x, dtype=np.float64)
        want = scipy.special.erf(x)
        assert same_bits(_erf(x), want)
        inplace = x.copy()
        assert _erf(inplace, out=inplace) is inplace
        assert same_bits(inplace, want)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_edge_values(self):
        # the branch points 1 and 8, the underflow bound sqrt(MAXLOG) ~ 26.64,
        # signed zeros, subnormals, the extremes, infinities and NaN
        edges = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-200, 1.0, 8.0,
                 math.sqrt(_MAXLOG), 27.0, 1e300, np.finfo(float).max, math.inf]
        x = [v for e in edges for v in _around(e)]
        x += [-v for v in x] + [math.nan, -math.nan]
        self.check(x)
        assert math.copysign(1.0, _erf(np.array([-0.0]))[0]) == -1.0

    def test_underflow_bound(self):
        # straddle MAXLOG in x*x itself, where erfc switches to exact 0
        r = math.sqrt(_MAXLOG)
        x = np.array(_around(r, 40))
        assert (x * x > _MAXLOG).any() and (x * x <= _MAXLOG).any()
        self.check(np.concatenate([x, -x]))

    @pytest.mark.parametrize("scale", [0.01, 0.3, 1.0, 2.0, 5.0, 12.0, 30.0])
    def test_million_normals(self, scale):
        self.check(np.random.default_rng(int(scale * 100)).normal(size=1_000_000) * scale)

    @settings(deadline=None, max_examples=300)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                    max_size=40))
    def test_arbitrary_finite_floats(self, values):
        self.check(values)
