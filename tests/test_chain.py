"""Tests for the chain runner, trace bookkeeping, and diagnostics."""

import warnings

import numpy as np
import pytest

from hsde import chain as chain_module
from hsde import core as core_module
from hsde import potentials as potentials_module
from hsde.batching import BatchSchedule
from hsde.chain import (
    ChainConfig,
    Trace,
    run_chain,
    run_states,
    save_trace,
)
from hsde.core import RngStream, State
from hsde.integrators import DivergenceError, IntegratorSpec, Scheme
from hsde.potentials import LinearGaussian
from hsde.repro import build_model

from .oracles import reference_chain, reference_save_trace


def toy_twin(n_batches=1):
    # d=1 conjugate model with posterior mean 2/15 and variance 1/3
    return LinearGaussian(
        np.ones((2, 1)), [4.0, -3.2], noise_var=2.0, prior_var=0.5,
        n_batches=n_batches,
    )


def lingauss2():
    Phi = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    y = np.array([1.0, 0.0, 0.5])
    return LinearGaussian(Phi, y, noise_var=1.0, prior_var=1.0)


def spec_for(P, scheme=Scheme.LEAPFROG, eta=0.01, C=2.0, **kw):
    return IntegratorSpec(scheme, eta=eta, friction=C, **kw)


class TestRunChain:
    def test_same_seed_bit_identical(self):
        P = toy_twin()
        cfg = ChainConfig(n_samples=20, burn_in=50, thinning=3, seed=41)
        runs = [
            run_chain(P, spec_for(P, eta=0.1), "full", cfg)
            for _ in range(2)
        ]
        np.testing.assert_array_equal(runs[0].thetas, runs[1].thetas)
        np.testing.assert_array_equal(runs[0].momenta, runs[1].momenta)

    def test_empty_trace_valid_meta(self):
        P = toy_twin()
        cfg = ChainConfig(n_samples=0, burn_in=5, thinning=2, seed=1)
        t = run_chain(P, spec_for(P, eta=0.1), "full", cfg)
        assert t.n_samples == 0
        assert t.steps.shape == (0,) and t.times.shape == (0,)
        assert t.effective_time == pytest.approx(5 * 0.1)

    def test_step_and_time_bookkeeping(self):
        P = toy_twin()
        cfg = ChainConfig(n_samples=4, burn_in=10, thinning=5, seed=2)
        t = run_chain(P, spec_for(P, eta=0.2), "full", cfg)
        np.testing.assert_array_equal(t.steps, [15, 20, 25, 30])
        np.testing.assert_allclose(t.times, np.array([15, 20, 25, 30]) * 0.2)
        assert t.effective_time == pytest.approx(30 * 0.2)

    def test_effective_time_counts_inner_steps(self):
        P = toy_twin()
        spec = spec_for(P, scheme=Scheme.LIE_TROTTER, eta=0.05, n_inner=4)
        cfg = ChainConfig(n_samples=2, burn_in=0, thinning=5, seed=3)
        t = run_chain(P, spec, "full", cfg)
        assert t.effective_time == pytest.approx(10 * 0.05 * 4)

    def test_fixed_init_respected(self):
        P = toy_twin()
        z0 = State(r=np.array([0.25]), theta=np.array([1.5]))
        cfg = ChainConfig(n_samples=1, burn_in=0, thinning=1, init=z0, seed=4)
        spec = spec_for(P, eta=1e-9, C=0.0)
        t = run_chain(P, spec, "full", cfg)
        assert abs(t.thetas[0, 0] - 1.5) < 1e-6

    def test_prior_init_uses_chain_index_stream(self):
        P = toy_twin()
        cfg = ChainConfig(n_samples=1, burn_in=0, thinning=1, seed=5)
        a = run_chain(P, spec_for(P, eta=0.1), "full", cfg, chain_index=0)
        b = run_chain(P, spec_for(P, eta=0.1), "full", cfg, chain_index=1)
        assert a.thetas[0, 0] != b.thetas[0, 0]

    def test_divergence_reports_step_and_partial(self):
        # stiff model far beyond the stability limit
        P = LinearGaussian(np.eye(1) * 40.0, [0.0], noise_var=1.0, prior_var=1.0)
        spec = spec_for(P, eta=1.0, C=0.1)
        cfg = ChainConfig(n_samples=100, burn_in=0, thinning=1, seed=6)
        with pytest.raises(DivergenceError) as err, np.errstate(all="ignore"):
            run_chain(P, spec, "full", cfg)
        assert err.value.step_index is not None
        assert hasattr(err.value, "partial")

    def test_eta_zero_rejected(self):
        P = toy_twin()
        spec = IntegratorSpec(Scheme.LEAPFROG, 0.0, 2.0)
        with pytest.raises(ValueError):
            run_chain(P, spec, "full", ChainConfig(n_samples=1, seed=0))

    def test_minibatch_chain_runs_and_differs_from_full(self):
        P = toy_twin(n_batches=2)
        cfg = ChainConfig(n_samples=30, burn_in=20, thinning=2, seed=7)
        t_full = run_chain(P, spec_for(P, eta=0.1), "full", cfg)
        t_mb = run_chain(P, spec_for(P, eta=0.1), "perm", cfg)
        assert not np.array_equal(t_full.thetas, t_mb.thetas)


def assert_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def dense_lingauss(n_rows=32, dim=5, n_batches=4):
    rng = RngStream(3, 0)
    Phi = rng.normal(n_rows * dim).reshape(n_rows, dim)
    return LinearGaussian(Phi, rng.normal(n_rows), noise_var=1.5, prior_var=2.0,
                          n_batches=n_batches)


# mixed step sizes, seeds and chain indices, as a sweep ensemble has them,
# and mixed frictions and SGHMC v_hat, each row with its own step constants
ETAS = (0.05, 0.12, 0.08, 0.2, 0.1)
SEEDS = (11, 11, 12, 13, 11)
INDICES = (0, 1, 0, 2, 3)
FRICTIONS = (2.0, 1.5, 2.5, 1.0, 3.0)
V_HATS = (0.5, 0.2, 0.8, 0.0, 0.4)


class Case:
    """R chains on one potential, each in its batch mode; the reference loop
    builds a chain's schedule from its stream key as the runner does. Chain
    c's friction and SGHMC v_hat are FRICTIONS[c] and V_HATS[c] (cycled),
    or C and 0.5 for every chain where C is given."""

    def __init__(self, P, scheme, modes, etas=ETAS, seeds=SEEDS, indices=INDICES,
                 burn_in=31, n_samples=8, thinning=5, C=None, inits=None):
        R = len(etas)
        self.P = P
        self.modes = modes if isinstance(modes, tuple) else (modes,) * R
        multi = scheme in (Scheme.LIE_TROTTER, Scheme.HMC_PARTIAL)
        frictions, v_hats = (FRICTIONS, V_HATS) if C is None else ((C,), (0.5,))
        self.specs = [IntegratorSpec(
            scheme, eta=eta, friction=frictions[c % len(frictions)],
            n_inner=2 if multi else 1,
            v_hat=v_hats[c % len(v_hats)] if scheme is Scheme.SGHMC else 0.0)
            for c, eta in enumerate(etas)]
        inits = inits or ["prior"] * R
        self.cfgs = [ChainConfig(n_samples=n_samples, burn_in=burn_in,
                                 thinning=thinning, seed=seed, init=init)
                     for seed, init in zip(seeds, inits)]
        self.indices = list(indices)

    def run(self, keep_momenta=True):
        return run_states(self.P, self.specs, self.modes, self.cfgs, self.indices,
                          keep_momenta=keep_momenta)

    def reference(self, c, formulas=False):
        sched = BatchSchedule(self.modes[c], self.P.n_batches,
                              RngStream(self.cfgs[c].seed, 4 * self.indices[c] + 2))
        return reference_chain(self.P, self.specs[c], sched, self.cfgs[c],
                               self.indices[c], formulas=formulas)

    def check(self, formulas=False):
        """Each chain's ensemble rows and its `run_chain` trace equal the
        reference loop (stepping by `reference_kernel`'s formulas where
        formulas is set)."""
        thetas, momenta = self.run()
        assert thetas.shape[0] == momenta.shape[0] == len(self.specs)
        for c in range(len(self.specs)):
            ref_thetas, ref_momenta, steps, times, effective = self.reference(c, formulas)
            assert_bits(thetas[c], ref_thetas)
            assert_bits(momenta[c], ref_momenta)
            trace = run_chain(self.P, self.specs[c], self.modes[c], self.cfgs[c],
                              self.indices[c])
            assert_bits(trace.thetas, ref_thetas)
            assert_bits(trace.momenta, ref_momenta)
            assert_bits(trace.steps, steps)
            assert_bits(trace.times, times)
            assert trace.effective_time == effective


@pytest.mark.usefixtures("small_chunks")
class TestEnsembleMatchesReference:
    """Every chain of an ensemble equals the plain one-chain loop, bit for bit."""

    @pytest.mark.parametrize("mode", ["full", "perm", "iid"])
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_every_scheme_and_mode(self, scheme, mode):
        Case(build_model("lingauss", 8), scheme, mode).check()

    @pytest.mark.parametrize("mode", ["full", "perm", "iid"])
    @pytest.mark.parametrize("scheme", [Scheme.LEAPFROG, Scheme.MT3, Scheme.SYMMETRIC])
    def test_single_chain(self, scheme, mode):
        Case(build_model("lingauss", 8), scheme, mode, etas=(0.15,),
             seeds=(5,), indices=(2,)).check()

    @pytest.mark.parametrize("K", [1, 8])
    @pytest.mark.parametrize("scheme", [Scheme.MT3, Scheme.LIE_TROTTER])
    def test_lingauss_batch_counts(self, scheme, K):
        Case(build_model("lingauss", K), scheme, "perm").check()

    @pytest.mark.parametrize("mode", ["full", "perm", "iid"])
    @pytest.mark.parametrize("scheme", [Scheme.MT3, Scheme.LEAPFROG])
    def test_dense_design_equal_blocks(self, scheme, mode):
        Case(dense_lingauss(32, 5, 4), scheme, mode).check()

    # design blocks gathered three steps at a time: runs of 3, 3 and 1
    # step per 7-step chunk
    @pytest.mark.parametrize("scheme", [Scheme.MT3, Scheme.LEAPFROG])
    def test_blocks_gathered_in_runs(self, scheme, monkeypatch):
        P = build_model("lingauss", 8)
        monkeypatch.setattr(potentials_module, "_GATHER_BYTES",
                            3 * len(ETAS) * P._blocks[0][0].nbytes)
        Case(P, scheme, "perm").check()

    @pytest.mark.parametrize("mode", ["full", "perm", "iid"])
    @pytest.mark.parametrize("scheme", [Scheme.MT3, Scheme.LEAPFROG])
    def test_dense_design_unequal_blocks(self, scheme, mode):
        Case(dense_lingauss(32, 4, 3), scheme, mode).check()

    @pytest.mark.parametrize("mode", ["full", "perm", "iid"])
    @pytest.mark.parametrize("model", ["toy", "logistic2d"])
    @pytest.mark.parametrize("scheme", [Scheme.MT3, Scheme.SPV])
    def test_toy_and_logistic(self, model, scheme, mode):
        Case(build_model(model, 2), scheme, mode).check()

    def test_mixed_schedules_and_fixed_start(self):
        P = build_model("lingauss", 8)
        start = State(r=np.full(4, 0.5), theta=np.arange(4.0))
        Case(P, Scheme.MT3, ("full", "perm", "iid", "perm", "full"),
             inits=[None, start, None, None, start]).check()

    # a sweep's merged ensemble: full rows then block rows, each group one
    # stacked call over a view of the state
    @pytest.mark.parametrize("model", ["lingauss", "dense-equal-blocks"])
    @pytest.mark.parametrize("scheme", [Scheme.MT3, Scheme.LIE_TROTTER])
    def test_full_and_block_groups(self, scheme, model):
        P = build_model("lingauss", 8) if model == "lingauss" else dense_lingauss(32, 5, 4)
        Case(P, scheme, ("full", "full", "perm", "perm", "perm")).check()


@pytest.mark.usefixtures("small_chunks")
class TestRunStatesMatchFormulas:
    """`run_states` steps write into the chunk's rows and its providers into
    arrays they own; every kept state must still equal a fresh-array loop
    over `reference_kernel`'s formulas and the one-point gradients, which
    shares no step code with the package."""

    @pytest.mark.parametrize("modes", [
        "full", "perm", "iid", ("full", "full", "perm", "perm", "perm")],
        ids=["full", "perm", "iid", "full+perm"])
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_lingauss(self, scheme, modes):
        Case(build_model("lingauss", 8), scheme, modes).check(formulas=True)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_logistic_iid(self, scheme):
        Case(build_model("logistic2d", 2), scheme, "iid").check(formulas=True)

    def test_toy_exact_kernel(self):
        from .oracles import REFERENCE_TOY
        from .test_toy_exact import check_ensemble

        check_ensemble(REFERENCE_TOY, [0.4, 0.05, 0.2, 0.1],
                       ["iid", "full", "perm", "iid"], [3, 3, 4, 5],
                       [0, 1, 0, 2])

    def test_diverging_chain(self):
        # chain 1 (eta 2) diverges first, at step 268 as before steps wrote
        # into buffers
        case = TestEnsembleDivergence().case()
        with pytest.raises(DivergenceError) as info, np.errstate(all="ignore"):
            case.reference(1, formulas=True)
        ref = info.value
        assert ref.step_index == 268
        with pytest.raises(DivergenceError) as info:
            case.run()
        assert info.value.chain == 1
        assert_same_error(info.value, ref)


class TestEnsembleRun:
    def test_default_chunks_and_buffer_refill(self, chunk_lengths):
        # 1120 MT3 steps draw 71680 normals per chain in several default
        # chunks of the ensemble: on d = 32 three chains fill the budget in
        # a few hundred steps
        case = Case(dense_lingauss(64, 32, 8), Scheme.MT3, "iid",
                    etas=(0.01, 0.02, 0.015), seeds=(1, 2, 3), indices=(0, 1, 2),
                    burn_in=1000, n_samples=60, thinning=2)
        case.check()
        assert 1120 > 2 * chunk_lengths[0]

    def test_specs_must_share_scheme(self):
        P = build_model("lingauss", 1)
        a = Case(P, Scheme.LEAPFROG, "full", etas=(0.1,), seeds=(1,), indices=(0,))
        b = Case(P, Scheme.SPV, "full", etas=(0.1,), seeds=(1,), indices=(1,))
        with pytest.raises(ValueError, match="scheme"):
            run_states(P, a.specs + b.specs, ["full"] * 2, a.cfgs + b.cfgs, [0, 1])

    def test_run_lengths_must_match(self):
        P = build_model("lingauss", 1)
        case = Case(P, Scheme.LEAPFROG, "full", etas=(0.1, 0.2), seeds=(1, 1),
                    indices=(0, 1))
        cfgs = [case.cfgs[0], ChainConfig(n_samples=3, burn_in=31, thinning=5, seed=1)]
        with pytest.raises(ValueError, match="share"):
            run_states(P, case.specs, ["full"] * 2, cfgs, [0, 1])


class TestPositionsOnly:
    def test_run_states_keeps_thetas_only_when_asked(self):
        case = Case(build_model("lingauss", 8), Scheme.MT3,
                    ("full", "perm", "iid", "perm", "full"))
        kept, _ = case.run()
        thetas, momenta = case.run(keep_momenta=False)
        assert momenta is None
        assert_bits(thetas, kept)

    def test_divergence_without_momenta(self):
        case = TestEnsembleDivergence().case()
        with pytest.raises(DivergenceError) as kept:
            case.run()
        with pytest.raises(DivergenceError) as info:
            case.run(keep_momenta=False)
        err, ref = info.value, kept.value
        assert (err.chain, err.step_index, err.eta) == (ref.chain, ref.step_index, ref.eta)
        assert err.chain == 1
        assert_bits(err.r, ref.r)
        assert_bits(err.partial[0], ref.partial[0])
        assert err.partial[1] is None


def assert_same_error(err, ref):
    """An ensemble's DivergenceError carries the reference loop's step,
    scheme, state and kept samples, bit for bit."""
    assert (err.step_index, err.scheme, err.eta) == (ref.step_index, ref.scheme, ref.eta)
    assert_bits(err.r, ref.r)
    assert_bits(err.theta, ref.theta)
    assert_bits(err.partial[0], ref.partial[0])
    assert_bits(err.partial[1], ref.partial[1])


class TestEnsembleDivergence:
    # with light friction, leapfrog on the sweep model diverges at step 268
    # for eta = 2 and at step 143 for eta = 6
    ETAS = (0.1, 2.0, 0.1, 6.0)

    def case(self):
        return Case(build_model("lingauss", 8), Scheme.LEAPFROG, "perm",
                    etas=self.ETAS, seeds=(4, 4, 4, 4), indices=(0, 1, 2, 3),
                    burn_in=0, n_samples=300, thinning=1, C=0.1)

    def reference_error(self, case, c):
        with pytest.raises(DivergenceError) as info, np.errstate(all="ignore"):
            case.reference(c)
        return info.value

    def test_first_diverging_chain_in_order_is_raised(self):
        case = self.case()
        late = self.reference_error(case, 1)
        early = self.reference_error(case, 3)
        assert early.step_index < late.step_index
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as info:
                case.run()
        err = info.value
        assert err.step_index == late.step_index
        assert err.scheme is Scheme.LEAPFROG
        assert err.eta == self.ETAS[1]
        assert err.partial[0].shape[0] == late.step_index - 1
        assert_same_error(err, late)

    def test_lone_unstable_chain_reports_its_own_state(self):
        case = self.case()
        case.specs, case.modes, case.cfgs, case.indices = (
            case.specs[2:], case.modes[2:], case.cfgs[2:], case.indices[2:])
        ref = self.reference_error(case, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as info:
                case.run()
        err = info.value
        assert err.eta == 6.0
        assert_same_error(err, ref)

    # divergence is checked once per chunk (7 steps here); with light
    # friction, leapfrog on the sweep model diverges at step 141 for eta =
    # 6.2 (the first step of a chunk) and at step 147 for eta = 5.6 (the
    # last step of the same chunk); chain 0 never diverges
    @pytest.mark.parametrize("etas, burn_in, thin, steps", [
        ((0.1, 6.2), 0, 1, (141,)),
        ((0.1, 5.6), 0, 1, (147,)),
        # during burn-in: nothing kept yet
        ((0.1, 5.6), 200, 1, (147,)),
        # 15 samples kept, the last at step 145
        ((0.1, 5.6), 100, 3, (147,)),
        # two chains in one chunk, the higher-indexed one first: chain 1's
        # error is raised
        ((0.1, 5.6, 6.2), 0, 1, (147, 141)),
    ], ids=["chunk-first-step", "chunk-last-step", "burn-in", "thinned",
            "two-in-one-chunk"])
    def test_chunk_level_check(self, etas, burn_in, thin, steps, small_chunks):
        R = len(etas)
        case = Case(build_model("lingauss", 8), Scheme.LEAPFROG, "perm", etas=etas,
                    seeds=(4,) * R, indices=range(R), burn_in=burn_in,
                    n_samples=300, thinning=thin, C=0.1)
        refs = [self.reference_error(case, c) for c in range(1, R)]
        assert tuple(ref.step_index for ref in refs) == steps
        assert len({(step - 1) // small_chunks for step in steps}) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as info:
                case.run()
        err = info.value
        assert err.eta == etas[1]
        assert err.partial[0].shape[0] == max(0, (steps[0] - 1 - burn_in) // thin)
        assert_same_error(err, refs[0])

    def test_lone_chain_in_a_long_default_chunk(self, chunk_lengths, monkeypatch):
        # eta = 6 diverges at step 143, early in the lone chain's first
        # default chunk, and steps on as NaN to the chunk's end; it must be
        # reported as at 7-step chunks and by the one-step loop
        case = TestEnsembleDivergence().case()
        cfg = ChainConfig(n_samples=9000, burn_in=0, thinning=1, seed=4)
        args = (case.P, case.specs[3], case.modes[3], cfg, case.indices[3])
        case.cfgs[3] = cfg
        ref = self.reference_error(case, 3)
        errors = []
        for chunk in (None, 7):
            if chunk:
                monkeypatch.setattr(chain_module, "_chunk_steps", lambda n, width: chunk)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DivergenceError) as info:
                    run_chain(*args)
            errors.append(info.value)
        assert chunk_lengths == [8192]
        assert ref.step_index == 143
        for err in errors:
            assert_same_error(err, ref)


class TestChunkSizing:
    """A chunk's length follows from the chain loop's memory budget over all
    its chains, not from a fixed step count."""

    @staticmethod
    def sweep_case(scheme, n_steps):
        # the gap report's ensembles: 32 chains on d = 4
        R = 32
        return Case(build_model("lingauss", 8), scheme, "perm", etas=(0.05,) * R,
                    seeds=range(R), indices=range(R), burn_in=0, n_samples=n_steps,
                    thinning=1)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_sweep_ensemble_keeps_256_step_chunks(self, scheme, chunk_lengths):
        # every scheme alike, one noise draw a step or two
        self.sweep_case(scheme, 1).run()
        assert chunk_lengths == [256]

    def test_run_is_split_into_chunks_of_that_length(self, chunk_lengths, monkeypatch):
        taken = []
        take = BatchSchedule.take
        monkeypatch.setattr(BatchSchedule, "take",
                            lambda sched, m: taken.append(m) or take(sched, m))
        self.sweep_case(Scheme.MT3, 600).run()
        assert chunk_lengths == [256]
        assert taken == [256] * 64 + [88] * 32

    def test_lone_chain_takes_thousands_of_steps(self, chunk_lengths):
        Case(build_model("lingauss", 8), Scheme.LEAPFROG, "iid", etas=(0.1,),
             seeds=(1,), indices=(0,), burn_in=0, n_samples=1, thinning=1).run()
        assert chunk_lengths[0] >= 4096

    def test_bottleneck_exact_ensemble(self, chunk_lengths):
        # the bottleneck report's ensemble: two etas x two modes
        from hsde.toy_exact import run_exact_states

        cfg = ChainConfig(n_samples=1, burn_in=0, thinning=1, seed=11)
        run_exact_states(build_model("toy", 2), [0.4, 0.4, 0.01, 0.01],
                         ["full", "iid"] * 2, [cfg] * 4, [0] * 4, friction=1.0)
        assert chunk_lengths[0] >= 2048

    def test_per_row_ensemble_ids_stay_within_the_budget(self, chunk_lengths, monkeypatch):
        # logistic2d serves each row of an ensemble through the per-row
        # providers; its chunk's ids as a list per step would hold more than
        # half the budget again, uncounted. An eighth of the budget keeps the
        # run short: a lone chain takes 2048-step chunks, a pair 1024
        import tracemalloc

        monkeypatch.setattr(chain_module, "_CHUNK_VALUES", chain_module._CHUNK_VALUES // 8)
        P = build_model("logistic2d", 4)
        spec = IntegratorSpec(Scheme.LEAPFROG, eta=0.01, friction=1.0)
        cfg = ChainConfig(n_samples=4, burn_in=2050, thinning=1, seed=1)
        peaks = []
        for R in (1, 2):
            tracemalloc.start()
            try:
                run_states(P, [spec] * R, ["iid"] * R, [cfg] * R, list(range(R)))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert chunk_lengths == [2048, 1024]
        assert peaks[1] <= peaks[0]

    @pytest.mark.parametrize("scheme", [Scheme.MT3, Scheme.LEAPFROG])
    def test_lone_dense_chain_stays_within_the_budget(self, scheme, chunk_lengths):
        # a d = 64 chain holds 256 values a step: a whole-run chunk of its
        # 4004 steps would hold 8 MB
        import tracemalloc

        budget = 8 * chain_module._CHUNK_VALUES
        spec = IntegratorSpec(scheme, eta=0.01, friction=1.0)
        cfg = ChainConfig(n_samples=4, burn_in=4000, thinning=1, seed=1)
        tracemalloc.start()
        try:
            thetas, momenta = run_states(dense_lingauss(128, 64, 8), [spec], ["iid"],
                                         [cfg], [0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 4004 > 2 * chunk_lengths[0]
        assert peak - thetas.nbytes - momenta.nbytes <= 2 * budget


@pytest.mark.usefixtures("small_chunks")
class TestOneChainPath:
    """A lone chain steps d-vectors, through `LinearGaussian`'s one-row
    providers where its design allows; an ensemble steps (R, d) rows through
    the stacked or per-row providers. Each must give the other's bits."""

    @pytest.mark.parametrize("model, mode", [
        ("lingauss", "full"), ("lingauss", "perm"), ("lingauss", "iid"),
        ("toy", "full"), ("toy", "perm"), ("logistic2d", "iid")])
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_trace_equals_ensemble_row(self, scheme, model, mode):
        case = Case(build_model(model, 8 if model == "lingauss" else 2), scheme, mode,
                    etas=ETAS[:3], seeds=SEEDS[:3], indices=INDICES[:3])
        thetas, momenta = case.run()
        for c in range(3):
            trace = run_chain(case.P, case.specs[c], case.modes[c], case.cfgs[c],
                              case.indices[c])
            assert_bits(trace.thetas, thetas[c])
            assert_bits(trace.momenta, momenta[c])

    def test_diverging_lone_chain(self):
        # eta = 6 diverges at step 143, mid-chunk, with 142 samples kept
        case = TestEnsembleDivergence().case()
        spec, mode, cfg, index = (x[3] for x in (case.specs, case.modes, case.cfgs,
                                                 case.indices))
        ref = TestEnsembleDivergence().reference_error(case, 3)
        assert ref.step_index == 143
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as info:
                run_chain(case.P, spec, mode, cfg, index)
        assert info.value.chain == 0
        assert_same_error(info.value, ref)


class TestStationaryMoments:
    @pytest.mark.parametrize("scheme", [Scheme.LEAPFROG, Scheme.SPV])
    def test_small_eta_matches_analytic_posterior(self, scheme):
        P = lingauss2()
        post = P.analytic_posterior()
        spec = spec_for(P, scheme=scheme, eta=0.01, C=2.0)
        cfg = ChainConfig(n_samples=1500, burn_in=2000, thinning=100, seed=101)
        t = run_chain(P, spec, "full", cfg)

        # thinning lag is 1.0 time units; relaxation rate is C/2 = 1, so
        # kept samples have lag-1 correlation near exp(-1)
        rho = np.exp(-1.0)
        n_eff = t.n_samples * (1 - rho) / (1 + rho)
        for j in range(2):
            sd_mean = np.sqrt(post.cov[j, j] / n_eff)
            assert abs(t.thetas[:, j].mean() - post.mean[j]) < 4 * sd_mean
            sd_var = post.cov[j, j] * np.sqrt(2.0 / n_eff)
            assert abs(t.thetas[:, j].var() - post.cov[j, j]) < 4 * sd_var
            # stationary momentum is N(0, M)
            assert abs(t.momenta[:, j].mean()) < 4 * np.sqrt(1.0 / n_eff)
            assert abs(t.momenta[:, j].var() - 1.0) < 4 * np.sqrt(2.0 / n_eff)

    def test_thinning_equivariance_of_mean(self):
        P = toy_twin()
        results = []
        for thinning, n in ((1, 4000), (10, 4000)):
            cfg = ChainConfig(n_samples=n, burn_in=2000, thinning=thinning, seed=55)
            t = run_chain(P, spec_for(P, eta=0.2, C=2.0), "full", cfg)
            results.append(t.thetas[:, 0].mean())
        # variance of each estimate ~ sigma^2 * (2/rate) / simulated time
        sd = np.sqrt(1.0 / 3.0 * 2.0 * (1.0 / 800.0 + 1.0 / 8000.0))
        assert abs(results[0] - results[1]) < 4 * sd


class TestPersistence:
    def test_csv_layout_and_determinism(self, tmp_path):
        P = lingauss2()
        cfg = ChainConfig(n_samples=5, burn_in=10, thinning=3, seed=9)
        t = run_chain(P, spec_for(P, eta=0.1), "full", cfg)

        p1 = tmp_path / "a.csv"
        save_trace(t, p1)

        lines = p1.read_text().strip().split("\n")
        assert lines[0] == "step,time,theta_0,theta_1,r_0,r_1"
        assert len(lines) == 6
        row = lines[1].split(",")
        assert int(row[0]) == 13
        # %.17g round-trips float64 exactly
        assert float(row[2]) == t.thetas[0, 0]
        assert "wall_time" not in p1.read_text()

    @pytest.mark.parametrize("block", [3, None])
    def test_bytes_match_row_writer(self, tmp_path, monkeypatch, block):
        # signed zero, the smallest subnormal, huge values, binary fractions
        # with no short form, non-finite values, float32 and empty traces;
        # rows are written in blocks, so check several partial blocks and a
        # trace longer than the default block
        if block is not None:
            monkeypatch.setattr(core_module, "_CSV_BLOCK", block)
        awkward = np.array([-0.0, 5e-324, 1e300, 0.1, -1e-310, np.inf, -np.inf, np.nan])
        P = lingauss2()
        ran = run_chain(P, spec_for(P, eta=0.1), "full",
                        ChainConfig(n_samples=4100, burn_in=10, thinning=1, seed=9))
        traces = [
            ran,
            Trace(thetas=np.stack([awkward, awkward[::-1]], axis=1),
                  momenta=np.stack([0.1 * np.arange(8), -awkward], axis=1),
                  steps=np.arange(3, 11, dtype=np.int64), times=awkward + 0.2,
                  effective_time=0.1 + 0.2),
            Trace(thetas=np.float32([[0.1], [1 / 3]]), momenta=np.float32([[-0.0], [7.0]]),
                  steps=np.array([1, 2]), times=np.array([0.1, 0.2]),
                  effective_time=5e-324),
            Trace(thetas=np.empty((0, 3)), momenta=np.empty((0, 3)),
                  steps=np.empty(0, dtype=np.int64), times=np.empty(0),
                  effective_time=0.0),
        ]
        for k, t in enumerate(traces):
            new, old = tmp_path / f"new{k}.csv", tmp_path / f"old{k}.csv"
            save_trace(t, new)
            reference_save_trace(t, old)
            assert new.read_bytes() == old.read_bytes()

    def test_rerun_same_seed_same_bytes(self, tmp_path):
        P = toy_twin()
        cfg = ChainConfig(n_samples=8, burn_in=4, thinning=2, seed=10)
        paths = []
        for name in ("r1.csv", "r2.csv"):
            t = run_chain(P, spec_for(P, eta=0.1), "full", cfg)
            path = tmp_path / name
            save_trace(t, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ValueError):
            ChainConfig(n_samples=-1)
        with pytest.raises(ValueError):
            ChainConfig(n_samples=1, thinning=0)
        with pytest.raises(ValueError):
            ChainConfig(n_samples=1, burn_in=-1)
        with pytest.raises(ValueError):
            ChainConfig(n_samples=1, init="zeros")
        with pytest.raises(ValueError):
            ChainConfig(n_samples=1, seed=-3)
