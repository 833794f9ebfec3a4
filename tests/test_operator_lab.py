"""Tests for the dense-matrix splitting-order bench."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsde import operator_lab
from hsde.core import RngStream
from hsde.operator_lab import (
    GeneratorSet,
    SplitOrder,
    bch_truncated,
    error_order_slope,
    matrix_exp,
    randomized_expectation,
    run_order_trials,
    slope_band,
    splitting_product,
    spectral_norm,
)

from .oracles import (
    expm_pade,
    log_of_product_exp,
    reference_fit_slope,
    reference_matrix_exp,
    reference_order_trials,
    reference_spectral_norm,
)

# the step sizes and product modes of run_order_trials' one protocol
PROTOCOL_ETAS = (0.1, 0.05, 0.025, 0.0125)
PROTOCOL_MODES = ("forward", "averaged", "randomized")

# the classic noncommuting 2x2 pair: a rotation generator and a shear
L_ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])
L_SHEAR = np.array([[0.0, 0.0], [1.0, 0.0]])


def small_matrices(n):
    return st.lists(
        st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
        min_size=n * n,
        max_size=n * n,
    ).map(lambda v: np.array(v).reshape(n, n))


class TestGeneratorSet:
    def test_basic_fields(self):
        G = GeneratorSet((L_ROT, L_SHEAR))
        assert G.n_parts == 2
        assert G.dim == 2
        np.testing.assert_array_equal(G.total, L_ROT + L_SHEAR)

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError):
            GeneratorSet((L_ROT, np.eye(3)))

    def test_rejects_large_dimension(self):
        with pytest.raises(ValueError):
            GeneratorSet((np.eye(9),))

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            GeneratorSet(())
        with pytest.raises(ValueError):
            GeneratorSet((np.array([[np.nan, 0.0], [0.0, 0.0]]),))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            GeneratorSet((np.zeros((2, 3)),))


class TestMatrixExp:
    def test_zero_matrix(self):
        np.testing.assert_array_equal(matrix_exp(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        E = matrix_exp(np.diag([1.0, -2.0]))
        np.testing.assert_allclose(E, np.diag([np.e, np.exp(-2.0)]), rtol=1e-14)

    def test_quarter_turn_rotation(self):
        E = matrix_exp((np.pi / 2) * np.array([[0.0, -1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(E, [[0.0, -1.0], [1.0, 0.0]], atol=1e-13)

    def test_against_pade_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            A = rng.normal(size=(n, n)) * rng.choice([0.01, 1.0, 10.0])
            got = matrix_exp(A)
            want = expm_pade(A)
            scale = max(float(np.abs(want).max()), 1.0)
            assert np.abs(got - want).max() / scale < 1e-12

    def test_semigroup_property(self):
        A = np.array([[0.3, -1.1], [0.7, 0.2]])
        np.testing.assert_allclose(
            matrix_exp(A) @ matrix_exp(A), matrix_exp(2 * A), rtol=1e-12
        )

    @settings(deadline=None, max_examples=30)
    @given(small_matrices(3))
    def test_inverse_is_exp_of_negation(self, A):
        P = matrix_exp(A) @ matrix_exp(-A)
        np.testing.assert_allclose(P, np.eye(3), atol=1e-10)

    def test_rejects_oversized(self):
        with pytest.raises(ValueError):
            matrix_exp(np.zeros((65, 65)))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            matrix_exp(np.zeros((2, 3)))


class TestSplittingProduct:
    def test_single_part_all_orders(self):
        G = GeneratorSet((L_ROT,))
        want = matrix_exp(0.3 * L_ROT)
        for order in SplitOrder:
            np.testing.assert_array_equal(splitting_product(G, 0.3, order), want)

    def test_commuting_parts_are_exact(self):
        G = GeneratorSet((np.diag([0.5, -1.0]), np.diag([2.0, 0.3])))
        want = matrix_exp(0.2 * 2 * G.total)
        for order in SplitOrder:
            np.testing.assert_allclose(splitting_product(G, 0.2, order), want,
                                       rtol=1e-12)

    def test_backward_reverses_forward(self):
        G = GeneratorSet((L_ROT, L_SHEAR))
        G_rev = GeneratorSet((L_SHEAR, L_ROT))
        np.testing.assert_array_equal(
            splitting_product(G, 0.1, SplitOrder.BACKWARD),
            splitting_product(G_rev, 0.1, SplitOrder.FORWARD),
        )

    def test_forward_is_second_order_averaged_third(self):
        G = GeneratorSet((L_ROT, L_SHEAR))
        etas = [0.1, 0.05, 0.025]
        errs_f, errs_a = [], []
        for eta in etas:
            exact = matrix_exp(2 * eta * G.total)
            errs_f.append(spectral_norm(splitting_product(G, eta, "forward") - exact))
            errs_a.append(spectral_norm(splitting_product(G, eta, "averaged") - exact))
        slope_f, _ = error_order_slope(etas, errs_f)
        slope_a, _ = error_order_slope(etas, errs_a)
        assert 1.8 < slope_f < 2.2
        assert 2.7 < slope_a < 3.3

    def test_rejects_nonpositive_eta(self):
        G = GeneratorSet((L_ROT,))
        with pytest.raises(ValueError):
            splitting_product(G, 0.0, "forward")


class TestRandomizedExpectation:
    def test_single_part(self):
        G = GeneratorSet((L_SHEAR,))
        np.testing.assert_array_equal(
            randomized_expectation(G, 0.4), matrix_exp(0.4 * L_SHEAR)
        )

    def test_two_parts_equal_averaged(self):
        G = GeneratorSet((L_ROT, L_SHEAR))
        np.testing.assert_allclose(
            randomized_expectation(G, 0.07),
            splitting_product(G, 0.07, SplitOrder.AVERAGED),
            atol=1e-15,
        )

    def test_three_part_slope_is_third_order(self):
        rng = np.random.default_rng(5)
        G = GeneratorSet(tuple(rng.uniform(-1, 1, (3, 3)) for _ in range(3)))
        etas = [0.1, 0.05, 0.025, 0.0125]
        errs = [
            spectral_norm(randomized_expectation(G, e) - matrix_exp(3 * e * G.total))
            for e in etas
        ]
        slope, r2 = error_order_slope(etas, errs)
        assert 2.7 < slope < 3.3
        assert r2 > 0.99

    def test_reverse_pairing_identity(self):
        # each of the K!/2 orderings paired with its reversal averages to a
        # back-and-forth product; their mean must reproduce the full average
        rng = np.random.default_rng(9)
        for k in (2, 3, 4):
            G = GeneratorSet(tuple(rng.uniform(-1, 1, (2, 2)) for _ in range(k)))
            factors = [matrix_exp(0.11 * k * L) for L in G.mats]

            def prod(order):
                out = np.eye(2)
                for i in order:
                    out = out @ factors[i]
                return out

            seen = set()
            pair_means = []
            for perm in itertools.permutations(range(k)):
                if perm in seen:
                    continue
                seen.add(perm)
                seen.add(perm[::-1])
                pair_means.append(0.5 * (prod(perm) + prod(perm[::-1])))
            want = sum(pair_means) / len(pair_means)
            np.testing.assert_allclose(
                randomized_expectation(G, 0.11), want, atol=1e-12
            )

    def test_rejects_too_many_parts(self):
        G = GeneratorSet(tuple(np.eye(2) for _ in range(7)))
        with pytest.raises(ValueError):
            randomized_expectation(G, 0.1)


class TestBchTruncated:
    def test_commuting_matrices_all_orders(self):
        A = np.diag([1.0, 2.0])
        B = np.diag([-0.5, 3.0])
        for order in (2, 3, 4, 5):
            np.testing.assert_allclose(bch_truncated(A, B, order), A + B,
                                       atol=1e-15)

    def test_antisymmetric_difference_is_the_bracket(self):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(3, 3))
        B = rng.normal(size=(3, 3))
        diff = bch_truncated(A, B, 2) - bch_truncated(B, A, 2)
        np.testing.assert_allclose(diff, A @ B - B @ A, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    def test_truncation_error_slope(self, order):
        # truncating after commutator order k leaves an O(eps^(k+1)) defect
        # against log(exp(eps A) exp(eps B)) computed by an independent route
        rng = np.random.default_rng(12)
        A = rng.normal(size=(3, 3))
        B = rng.normal(size=(3, 3))
        eps_grid = [0.2, 0.1, 0.05, 0.025]
        errs = []
        for eps in eps_grid:
            Z = bch_truncated(eps * A, eps * B, order)
            errs.append(spectral_norm(Z - log_of_product_exp(eps * A, eps * B)))
        slope, r2 = error_order_slope(eps_grid, errs)
        assert order + 0.75 < slope < order + 1.25
        assert r2 > 0.995

    def test_order_two_exponent_scaling(self):
        # the acceptance protocol: exp(eps A) exp(eps B) vs exp(Z2) at
        # slope 3 over a small-eps grid
        rng = np.random.default_rng(4)
        A = rng.normal(size=(2, 2))
        B = rng.normal(size=(2, 2))
        eps_grid = [0.05, 0.025, 0.0125, 0.00625]
        errs = []
        for eps in eps_grid:
            lhs = matrix_exp(eps * A) @ matrix_exp(eps * B)
            rhs = matrix_exp(bch_truncated(eps * A, eps * B, 2))
            errs.append(spectral_norm(lhs - rhs))
        slope, _ = error_order_slope(eps_grid, errs)
        assert abs(slope - 3.0) < 0.1

    def test_rejects_bad_order(self):
        A = np.eye(2)
        for order in (1, 6, 0):
            with pytest.raises(ValueError):
                bch_truncated(A, A, order)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            bch_truncated(np.eye(2), np.eye(3), 2)


class TestErrorOrderSlope:
    def test_exact_square_law(self):
        etas = np.array([0.1, 0.05, 0.025, 0.0125])
        slope, r2 = error_order_slope(etas, 3.7 * etas**2)
        assert abs(slope - 2.0) < 1e-10
        assert r2 > 1 - 1e-12

    def test_exact_cube_law(self):
        etas = np.array([0.4, 0.2, 0.1])
        slope, _ = error_order_slope(etas, 0.01 * etas**3)
        assert abs(slope - 3.0) < 1e-10

    def test_constant_errors(self):
        slope, r2 = error_order_slope([0.1, 0.05, 0.025], [2.0, 2.0, 2.0])
        assert slope == pytest.approx(0.0, abs=1e-12)
        assert r2 == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            error_order_slope([0.1, 0.05], [1.0, 2.0])
        with pytest.raises(ValueError):
            error_order_slope([0.1, 0.05, 0.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            error_order_slope([0.1, 0.05, 0.025], [1.0, -2.0, 3.0])
        with pytest.raises(ValueError):
            error_order_slope([0.1, 0.1, 0.1], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            error_order_slope([0.1, 0.05, 0.025], [1.0, 2.0])


    @pytest.mark.parametrize("points", [3, 4, 7])
    def test_keeps_the_one_row_fit_bits(self, points):
        rng = np.random.default_rng(points)
        for _ in range(40):
            etas = np.sort(rng.uniform(1e-3, 1.0, points))
            errors = rng.uniform(0.5, 2.0) * etas ** rng.uniform(0.5, 4.0) \
                * np.exp(rng.normal(0.0, 0.1, points))
            got = error_order_slope(etas, errors)
            assert got == reference_fit_slope(np.log(etas), np.log(errors))


class TestFitSlopes:
    """A pass's slope fits are one least-squares call with the bits of one
    fit per row."""

    @pytest.mark.parametrize("rows", [1, 2, 3, 599, 600, 601, 3000])
    def test_every_row_keeps_its_one_row_bits(self, rows):
        rng = np.random.default_rng(rows)
        lx = np.log(np.array(PROTOCOL_ETAS))
        LY = 3.0 * lx * rng.uniform(0.5, 1.5, (rows, 1)) + rng.normal(0.0, 0.3, (rows, 4))
        LY[::7] = rng.normal(size=(len(LY[::7]), 1))  # flat rows: r_squared 1
        with np.errstate(all="raise"):
            slopes, r_squared = operator_lab._fit_slopes(lx, LY)
        assert slopes.shape == r_squared.shape == (rows,)
        for ly, slope, r2 in zip(LY, slopes.tolist(), r_squared.tolist()):
            assert (slope, r2) == reference_fit_slope(lx, ly)
        assert np.all(r_squared[::7] == 1.0)


class TestSpectralNorm:
    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, -7.0, 1.0])) == pytest.approx(7.0, rel=1e-12)

    def test_zero(self):
        assert spectral_norm(np.zeros((4, 4))) == 0.0

    def test_against_svd(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            M = rng.normal(size=(4, 4))
            want = float(np.linalg.norm(M, 2))
            assert spectral_norm(M) == pytest.approx(want, rel=1e-6)

    def test_equals_linalg_norm_iteration(self):
        rng = np.random.default_rng(5)
        for n in range(1, 9):
            for _ in range(20):
                M = rng.normal(size=(n, n)) * rng.uniform(1e-6, 1e3)
                assert spectral_norm(M) == reference_spectral_norm(M)
        assert spectral_norm(np.zeros((3, 3))) == reference_spectral_norm(np.zeros((3, 3)))

    def test_scaling_equivariance(self):
        rng = np.random.default_rng(3)
        M = rng.normal(size=(3, 3))
        assert spectral_norm(2.5 * M) == pytest.approx(2.5 * spectral_norm(M),
                                                       rel=1e-9)


def assert_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def scaled_stack(rng, n, norms):
    """Random n x n matrices rescaled to the given 1-norms (0 gives a zero
    matrix), in that order."""
    out = rng.normal(size=(len(norms), n, n))
    for M, target in zip(out, norms):
        M *= target / np.linalg.norm(M, 1)
    return out


class TestStackedLayers:
    """An (m, n, n) stack gives each matrix the bits of the per-matrix
    references and of the 2-D call."""

    # 1-norms whose scaling counts s = 0, 4, 0, 6, 1, 3, 0 differ within one
    # stack; the third matrix is zero
    NORMS = (0.3, 7.0, 0.0, 30.0, 0.9, 2.5, 1e-3)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matrix_exp_mixed_scaling_counts(self, n):
        A = scaled_stack(np.random.default_rng(n), n, self.NORMS)
        E = matrix_exp(A)
        assert E.shape == A.shape
        for M, got in zip(A, E):
            want = reference_matrix_exp(M)
            assert_bits(got, want)
            assert_bits(matrix_exp(M), want)
        assert_bits(E[2], np.eye(n))

    def test_matrix_exp_random_stacks(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(1, 9))
            A = scaled_stack(rng, n, 10.0 ** rng.uniform(-3, 1.5, size=int(rng.integers(1, 9))))
            for M, got in zip(A, matrix_exp(A)):
                assert_bits(got, reference_matrix_exp(M))

    def test_matrix_exp_2d_is_stack_of_one(self):
        M = scaled_stack(np.random.default_rng(2), 4, (5.0,))
        assert_bits(matrix_exp(M[0]), matrix_exp(M)[0])
        assert matrix_exp(M[0]).shape == (4, 4)

    def test_matrix_exp_rejects_bad_stacks(self):
        for bad in (np.zeros((2, 2, 3)), np.zeros((0, 2, 2)), np.zeros((1, 1, 2, 2)),
                    np.full((2, 2, 2), np.inf)):
            with pytest.raises(ValueError):
                matrix_exp(bad)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_spectral_norm_stack_with_zero_row(self, n):
        M = scaled_stack(np.random.default_rng(20 + n), n, self.NORMS)
        got = spectral_norm(M)
        assert got.shape == (len(M),)
        for A, g in zip(M, got.tolist()):
            assert g == reference_spectral_norm(A)
            assert g == spectral_norm(A)
        assert got[2] == 0.0

    def test_spectral_norm_iterate_reaching_zero(self):
        # M maps the constant start vector to 0: the first iterate has norm
        # 0, so this row gives 0.0 and its neighbours are untouched
        rng = np.random.default_rng(4)
        M = np.stack([rng.normal(size=(2, 2)), [[1.0, -1.0], [2.0, -2.0]],
                      rng.normal(size=(2, 2))])
        got = spectral_norm(M)
        assert got[1] == 0.0 == reference_spectral_norm(M[1])
        assert [got[0], got[2]] == [reference_spectral_norm(M[0]),
                                    reference_spectral_norm(M[2])]

    def test_spectral_norm_nonsquare_stack_and_2d(self):
        M = np.random.default_rng(6).normal(size=(3, 5, 2))
        assert spectral_norm(M).tolist() == [reference_spectral_norm(A) for A in M]
        assert isinstance(spectral_norm(M[0]), float)
        with pytest.raises(ValueError):
            spectral_norm(np.zeros(3))


class TestRunOrderTrials:
    def test_deterministic(self):
        a = run_order_trials(5, RngStream(7, 0))
        b = run_order_trials(5, RngStream(7, 0))
        assert [t.slope for t in a] == [t.slope for t in b]
        assert [t.errors for t in a] == [t.errors for t in b]

    def test_structure(self):
        trials = run_order_trials(4, RngStream(1, 0))
        assert len(trials) == 12
        assert [t.mode for t in trials] == list(PROTOCOL_MODES) * 4
        assert [t.trial for t in trials] == [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]
        for t in trials:
            assert 2 <= t.n_parts <= 4
            assert 2 <= t.dim <= 4
            assert t.etas == PROTOCOL_ETAS
            assert len(t.errors) == 4

    def test_slope_bands_hold_on_random_draws(self):
        trials = run_order_trials(20, RngStream(7, 0))
        by_mode = {}
        for t in trials:
            lo, hi = slope_band(t.mode)
            by_mode.setdefault(t.mode, []).append(lo <= t.slope <= hi)
        for mode, hits in by_mode.items():
            assert np.mean(hits) >= 0.9, mode

    def test_band_fraction_counts_each_modes_trials_inside_its_band(self):
        # one entry per protocol mode, in order; the band's ends count as
        # inside, and each mode counts its own trials alone
        base = run_order_trials(1, RngStream(7, 0))
        slopes = {"forward": (1.7, 2.3, 1.69, 2.31, 2.0), "averaged": (2.0, 3.0),
                  "randomized": (3.3, 3.31, 2.7, 2.69)}
        trials = [dataclasses.replace(t, slope=s) for t in base
                  for s in slopes[t.mode]]
        fractions = operator_lab.band_fraction(trials)
        assert list(fractions) == list(PROTOCOL_MODES)
        assert fractions == {"forward": 3 / 5, "averaged": 1 / 2, "randomized": 2 / 4}
        # no run_order_trials mode is backward, so it has no band
        with pytest.raises(KeyError):
            operator_lab.slope_band("backward")

    @pytest.mark.parametrize("choices", [((2, 3, 5), (2, 3, 6)), ((2,), (2,)),
                                         ((3, 4), (4,)), ((2, 6), (3, 7, 8))])
    def test_shared_exponentials_change_no_bit(self, choices):
        # each (trial, eta) computes the semigroup and the factor
        # exponentials once for all modes; every error stays bit-identical
        # and the stream is left where the reference leaves it, whether the
        # trials share one (K, n) shape or spread over several
        k_choices, n_choices = choices
        rng, ref_rng = RngStream(3, 0), RngStream(3, 0)
        got = run_order_trials(12, rng, k_choices, n_choices)
        want = reference_order_trials(12, ref_rng, PROTOCOL_ETAS, PROTOCOL_MODES,
                                      k_choices, n_choices)
        assert [(t.trial, t.n_parts, t.dim, t.mode, t.errors, t.slope, t.r_squared)
                for t in got] == want
        assert rng.integers(1 << 30) == ref_rng.integers(1 << 30)

    def test_large_k_and_n_match_reference(self):
        for seed in (0, 9):
            got = run_order_trials(3, RngStream(seed, 0), k_choices=(2, 6), n_choices=(5, 8))
            want = reference_order_trials(3, RngStream(seed, 0), PROTOCOL_ETAS,
                                          PROTOCOL_MODES, (2, 6), (5, 8))
            assert [(t.trial, t.n_parts, t.dim, t.mode, t.errors, t.slope, t.r_squared)
                    for t in got] == want

    @pytest.mark.parametrize("choices, match", [
        ({"k_choices": ()}, "at least one"), ({"n_choices": []}, "at least one"),
        ({"k_choices": (2, 1)}, "K = 1"), ({"n_choices": (1,)}, "n = 1"),
        ({"k_choices": (7,)}, "1..6"), ({"n_choices": (9,)}, "1..8"),
    ])
    def test_rejects_degenerate_choices_before_drawing(self, choices, match):
        rng = RngStream(0, 0)
        with pytest.raises(ValueError, match=match):
            run_order_trials(3, rng, **choices)
        # nothing was drawn
        assert rng.integers(1 << 30) == RngStream(0, 0).integers(1 << 30)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            run_order_trials(0, RngStream(0, 0))


def _trial_rows(trials):
    return [(t.trial, t.n_parts, t.dim, t.mode, t.errors, t.slope, t.r_squared)
            for t in trials]


class _ZeroFirstGenerator(RngStream):
    """A stream whose uniform draw number c is zeroed for c in `zeroed`; the
    stream still advances past it."""

    def __init__(self, seed, zeroed):
        super().__init__(seed, 0)
        self.zeroed, self.calls = zeroed, 0

    def uniform(self, low, high, size):
        out = super().uniform(low, high, size)
        self.calls += 1
        return 0.0 * out if self.calls - 1 in self.zeroed else out


class TestOrderPasses:
    """run_order_trials draws a pass of trials, then runs the trials of each
    (K, n) shape in the pass together; every bit and draw is the
    one-trial-at-a-time reference's."""

    def _record_passes(self, monkeypatch):
        passes = []
        real = operator_lab._order_pass

        def recording(drawn, *args):
            passes.append([mats.shape[:2] for _, mats in drawn])
            return real(drawn, *args)

        monkeypatch.setattr(operator_lab, "_order_pass", recording)
        return passes

    @pytest.mark.parametrize("seed, k_choices, n_choices", [
        (0, (2, 3, 4, 5, 6), (2, 3, 4, 5, 6, 7, 8)),
        (4, (2, 6), (2, 5, 8)),
    ])
    def test_small_passes_match_reference_bits_and_stream(self, monkeypatch, seed,
                                                          k_choices, n_choices):
        # a pass of two to four mid-sized trials: shapes share passes and
        # recur across them
        monkeypatch.setattr(operator_lab, "_PASS_BYTES", 20_000)
        passes = self._record_passes(monkeypatch)
        rng, ref_rng = RngStream(seed, 0), RngStream(seed, 0)
        got = run_order_trials(24, rng, k_choices, n_choices)
        want = reference_order_trials(24, ref_rng, PROTOCOL_ETAS, PROTOCOL_MODES,
                                      k_choices, n_choices)
        assert _trial_rows(got) == want
        assert rng.integers(1 << 30) == ref_rng.integers(1 << 30)
        assert len(passes) > 2
        assert any(len(set(shapes)) > 1 for shapes in passes)
        seen_in = {}
        for p, shapes in enumerate(passes):
            for shape in shapes:
                seen_in.setdefault(shape, set()).add(p)
        assert any(len(ps) > 1 for ps in seen_in.values())

    @pytest.mark.parametrize("cap", [operator_lab._PASS_BYTES, 3000])
    def test_failed_fit_raises_the_reference_error(self, monkeypatch, cap):
        # with L_1 = 0 every product equals the exact exponential bit for
        # bit, so trials 4 and 9 have zero errors and no slope
        monkeypatch.setattr(operator_lab, "_PASS_BYTES", cap)
        with pytest.raises(ValueError) as want:
            reference_order_trials(12, _ZeroFirstGenerator(1, {8, 18}), PROTOCOL_ETAS,
                                   PROTOCOL_MODES, (2,), (2, 3))
        with pytest.raises(ValueError) as got:
            run_order_trials(12, _ZeroFirstGenerator(1, {8, 18}), (2,), (2, 3))
        assert str(got.value) == str(want.value) == "etas and errors must be finite and > 0"

    def test_stacks_stay_under_the_pass_cap(self, monkeypatch):
        sizes = {"matrix_exp": [], "spectral_norm": []}
        for name in sizes:
            real = getattr(operator_lab, name)

            def recording(A, _real=real, _name=name):
                sizes[_name].append(np.asarray(A).nbytes)
                return _real(A)

            monkeypatch.setattr(operator_lab, name, recording)
        passes = self._record_passes(monkeypatch)
        trials = run_order_trials(80, RngStream(2, 0), k_choices=(6,), n_choices=(8,))
        assert len(trials) == 80 * 3
        assert len(passes) > 1
        for recorded in sizes.values():
            assert len(recorded) == len(passes)
            assert max(recorded) <= operator_lab._PASS_BYTES

    def test_one_polyfit_call_per_pass(self, monkeypatch):
        monkeypatch.setattr(operator_lab, "_PASS_BYTES", 20_000)
        passes = self._record_passes(monkeypatch)
        fits, polyfit = [], np.polyfit

        def counted(*args, **kw):
            fits.append(np.shape(args[1]))
            return polyfit(*args, **kw)

        monkeypatch.setattr(np, "polyfit", counted)
        run_order_trials(24, RngStream(0, 0), (2, 3, 4, 5, 6), (2, 3, 4, 5, 6, 7, 8))
        assert len(passes) > 2
        assert fits == [(len(PROTOCOL_ETAS), 3 * len(p)) for p in passes]

    def test_default_choices_run_200_trials_in_one_pass(self, monkeypatch):
        passes = self._record_passes(monkeypatch)
        run_order_trials(200, RngStream(0, 0))
        assert len(passes) == 1
