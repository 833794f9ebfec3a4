"""Chain runner: integrator steps under a batch schedule, with trace capture.

Stream convention (seed fixed, per chain index c):

    noise draws   -> RngStream(seed, 4c)
    initial state -> RngStream(seed, 4c + 1)
    batch schedule-> RngStream(seed, 4c + 2)

so parallel chains are independent and any chain is reproducible in
isolation. `run_loop` alone builds a chain's streams, for this module's
integrator chains and for the exact-kernel chains of `toy_exact` alike;
each runner draws its own start from the initial-state stream it is given.
A trace keeps every `thinning`-th state after `burn_in` steps; defaults
follow the oracle protocol used throughout the verification suite (burn-in
2000, thinning 500).

`run_states` advances R chains together as the rows of (R, d) arrays, each
on its own streams above. Noise is drawn per chain in chunks of steps and
handed to the stepper as arrays, and every schedule is asked for a chunk of
batch ids ahead in one `take_all` call; a stream gives the same numbers
whether drawn one step at a time or a chunk at a time, so every chain's kept
states are bit-identical to the ones it gives run alone. `run_chain` runs one chain this way and wraps
its states into a `Trace`.

A chunk's length follows from a memory budget, not a fixed step count: R
chains that each hold w float64 values per step of a chunk (its noise,
states and checks) take m = max(1, B // (R w)) steps a chunk, with
B = 2^17 values (1 MiB). An integrator chain counts w = 4 d whatever its
scheme: its noise at two draws, the most any scheme makes, plus r and
theta. So a 32-chain d = 4 ensemble takes 256 steps a chunk and a lone
d = 4 chain 8192. The length never changes output, only how often a
chunk's fixed cost is paid.

The per-step bookkeeping is done once per chunk, and so is the stepper
call: the potential resolves the chunk's mini-batch operands up front into
step-indexed gradient and Hessian-vector providers
(`Potential.step_providers`), the scheme's stepper takes every step of the
chunk in one call, writing each step's state straight into its rows of the
chunk's (m, R, d) arrays and its intermediates into scratch arrays, the
chunk's kept rows are copied out together and the divergence check runs
over all of its (step, chain) rows. One chain steps d-vectors and an
ensemble (R, d) rows. A diverging chain is reported with the step, state
and kept samples it had at its first non-finite step, exactly as a
step-by-step check would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .batching import BatchMode, BatchSchedule, take_all
from .core import RngStream, State, write_columns
from .integrators import (
    DivergenceError,
    IntegratorSpec,
    Scheme,
    compile_ensemble_step,
    noise_draws,
)
from .potentials import Potential

__all__ = ["ChainConfig", "Trace", "run_chain", "run_states", "save_trace"]

_MULTI_TIME = (Scheme.LIE_TROTTER, Scheme.HMC_PARTIAL)

# float64 values a chunk's working set may hold over all its chains (1 MiB)
_CHUNK_VALUES = 1 << 17


def _chunk_steps(n_chains: int, width: int) -> int:
    """Steps per chunk for n_chains chains that each hold `width` float64
    values per step of a chunk."""
    return max(1, _CHUNK_VALUES // (n_chains * width))


@dataclass(frozen=True)
class ChainConfig:
    """Sampling run shape: how many samples, how thinned, where started."""

    n_samples: int
    burn_in: int = 2000
    thinning: int = 500
    init: State | str = "prior"
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 0:
            raise ValueError("n_samples must be >= 0")
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if self.thinning < 1:
            raise ValueError("thinning must be >= 1")
        if isinstance(self.init, str) and self.init != "prior":
            raise ValueError("init must be a State or the string 'prior'")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must be a 64-bit nonnegative integer")


@dataclass
class Trace:
    """Kept samples of one chain.

    thetas and momenta are (n_samples, d); steps holds the global step index
    each sample was taken at, times its simulated time, and effective_time
    the simulated time of the whole run.
    """

    thetas: np.ndarray
    momenta: np.ndarray
    steps: np.ndarray
    times: np.ndarray
    effective_time: float

    @property
    def n_samples(self) -> int:
        return self.thetas.shape[0]

    @property
    def dim(self) -> int:
        return self.thetas.shape[1]


def _step_duration(spec: IntegratorSpec) -> float:
    # one LIE_TROTTER/HMC step advances n_inner leapfrogs of size eta
    mult = spec.n_inner if spec.scheme in _MULTI_TIME else 1
    return spec.eta * mult


def _initial_state(P: Potential, cfg: ChainConfig, rng: RngStream) -> State:
    if isinstance(cfg.init, State):
        if cfg.init.dim != P.dim:
            raise ValueError("initial state dimension does not match potential")
        return cfg.init
    theta = P.sample_prior(rng)
    r = rng.normal(P.dim)
    return State(r=r, theta=theta)


def _kept_rows(i: int, m: int, burn_in: int, thin: int) -> slice:
    """The rows of a chunk of steps i+1..i+m (row j is step i+1+j) that a
    trace keeps: steps burn_in + k thin, k >= 1."""
    lo = max(i + 1, burn_in + 1)
    return slice(lo + (burn_in - lo) % thin - i - 1, m, thin)


def _trace(thetas, momenta, cfg: ChainConfig, dt: float) -> Trace:
    """The Trace of one chain's (n, d) kept samples, each step lasting dt of
    simulated time. The k-th kept sample (k = 1..n) was taken at step
    burn_in + k thinning."""
    n, burn_in, thin = thetas.shape[0], cfg.burn_in, cfg.thinning
    steps = np.arange(burn_in + thin, burn_in + n * thin + 1, thin, dtype=np.int64)
    return Trace(thetas=thetas, momenta=momenta, steps=steps, times=steps * dt,
                 effective_time=(burn_in + n * thin) * dt)


def _check_etas(etas) -> None:
    """Refuse step sizes no chain runs on: each eta must be finite and > 0."""
    if not all(math.isfinite(eta) and eta > 0 for eta in etas):
        raise ValueError("running a chain requires a finite eta > 0")


def run_loop(setup, etas, modes, n_batches: int, cfgs, chain_indices,
             keep_momenta: bool = True, **per_chain) -> tuple:
    """The chain loop of `run_states` and `toy_exact.run_exact_states`.

    Chain c steps with eta etas[c] in batch mode modes[c] over n_batches
    batches on the streams of (cfgs[c].seed, chain_indices[c]); per_chain
    names the caller's own per-chain list for the argument check. Once the
    arguments are checked, `setup()` gives (scheme, n_draws, width, r, th,
    advance): the scheme a divergence error names, the d-vectors of noise
    one step draws, the width, the (R, d) start, and `advance(r, th, noise,
    ids)`, which takes the chains m steps on from (r, th), step j with the
    draws noise[:, j] (n_draws, R, d) and batch ids ids[j] (R,), -1 marking
    the full potential, and returns their (m, R, d) states (rs, ths); it may
    overwrite noise. A chunk is `_chunk_steps(R, width)` steps, the width
    counting every float64 value one chain holds per step of it: noise,
    states and whatever advance gathers for the whole chunk. It is the one
    memory budget of the sampling path.

    Returns and raises as `run_states` does.
    """
    # one entry per chain in each list, every eta finite and > 0, one run length
    per_chain.update(mode=modes, config=cfgs, index=chain_indices)
    R = len(cfgs)
    if R == 0 or any(len(arg) != R for arg in per_chain.values()):
        *names, last = per_chain
        raise ValueError(f"an ensemble needs one {', '.join(names)} and {last} per chain")
    _check_etas(etas)
    if len({(c.n_samples, c.burn_in, c.thinning) for c in cfgs}) > 1:
        raise ValueError("ensemble chains must share n_samples, burn_in and thinning")
    n, burn_in, thin = cfgs[0].n_samples, cfgs[0].burn_in, cfgs[0].thinning
    # chain c's streams: noise 4c, initial state 4c + 1, batch schedule 4c + 2
    rngs, inits, coins = zip(*[[RngStream(c.seed, 4 * i + k) for k in range(3)]
                               for c, i in zip(cfgs, chain_indices)])
    scheds = [BatchSchedule(mode, n_batches, coin) for mode, coin in zip(modes, coins)]
    scheme, n_draws, width, r, th, advance = setup(inits)
    chunk = _chunk_steps(R, width)
    d = th.shape[1]
    total_steps = burn_in + n * thin
    thetas = np.empty((R, n, d))
    momenta = np.empty((R, n, d)) if keep_momenta else None
    errors: dict = {}
    kept = 0
    i = 0
    # diverging chains overflow and then step on as NaN rows: no warnings,
    # the finiteness check below reports each chain once
    with np.errstate(all="ignore"):
        while i < total_steps and 0 not in errors:
            # noise and batch ids for the next m steps, drawn per chain in
            # the order its steps would draw them one by one; the noise is
            # laid out draw by draw, (n_draws, m, R, d)
            m = min(chunk, total_steps - i)
            noise = np.stack([rng.normal(m * n_draws * d).reshape(m, n_draws, d)
                              .swapaxes(0, 1) for rng in rngs], axis=2)
            ids = take_all(scheds, m)
            rs, ths = advance(r, th, noise, ids)
            # freed before the next chunk's are drawn, and the last states
            # copied so that the chunk's states are too (below): one chunk's
            # arrays are live at a time, as its length assumes
            del noise, ids
            r, th = rs[-1].copy(), ths[-1].copy()
            rows = _kept_rows(i, m, burn_in, thin)
            kept_th = ths[rows].swapaxes(0, 1)
            n_kept = kept_th.shape[1]
            thetas[:, kept:kept + n_kept] = kept_th
            if keep_momenta:
                momenta[:, kept:kept + n_kept] = rs[rows].swapaxes(0, 1)
            kept += n_kept
            # a chain has diverged once NaN or +-inf appears anywhere in its
            # state, which makes its row sum non-finite
            bad = ~np.isfinite(rs.sum(axis=2) + ths.sum(axis=2))
            for c in np.flatnonzero(bad.any(axis=0)).tolist():
                if c not in errors:
                    j = int(bad[:, c].argmax())
                    # samples kept before step i + 1 + j
                    k = max(0, (i + j - burn_in) // thin)
                    err = errors[c] = DivergenceError(
                        "chain diverged", r=rs[j, c].copy(), theta=ths[j, c].copy(),
                        step_index=i + 1 + j, eta=etas[c], scheme=scheme)
                    err.chain = c
                    err.partial = (thetas[c, :k].copy(),
                                   momenta[c, :k].copy() if keep_momenta else None)
            i += m
            del rs, ths, kept_th
    if errors:
        raise errors[min(errors)]
    return thetas, momenta


def run_states(P: Potential, specs, modes, cfgs, chain_indices,
               keep_momenta: bool = True) -> tuple:
    """Run R independent chains in lockstep as the rows of (R, d) arrays and
    return their kept states as (thetas, momenta), each (R, n_samples, d);
    with keep_momenta False, momenta is None and only positions are held.

    Chain c is (specs[c], modes[c], cfgs[c], chain_indices[c]) with its
    own streams, its batch schedule in mode modes[c] over the potential's
    n_batches, and its rows equal the ones that chain gives run alone, bit
    for bit. Each chunk of steps is one call of the scheme's stepper
    (`integrators.compile_ensemble_step`) over the chunk's step-indexed
    providers; a lone chain (R = 1) steps d-vectors, as `run_chain` runs
    it, and R > 1 chains the rows of (R, d) arrays. The chains share the
    potential, the scheme, n_inner and the run length (n_samples, burn_in,
    thinning); step size, friction, v_hat, seed, start and batch mode may
    differ per chain.

    If chains diverge, raises the DivergenceError of the first diverging
    chain in list order, carrying its position in the list (`chain`), its
    own step index, state (`r`, `theta`), scheme, eta and kept samples
    (`partial`: thetas, and momenta or None). Divergence is checked once per
    chunk of steps, over every step of the chunk, so each diverging chain is
    found at its first non-finite step; the run goes on chunk by chunk
    until no earlier chain is left that could diverge first.
    """
    specs, cfgs = list(specs), list(cfgs)
    modes = [BatchMode(mode) for mode in modes]

    def setup(inits):
        # checks that the specs share scheme and n_inner
        stepper = compile_ensemble_step(specs, P.dim)
        starts = [_initial_state(P, c, rng) for c, rng in zip(cfgs, inits)]
        # one chain steps d-vectors, R chains the rows of (R, d) arrays
        shape = (P.dim,) if len(specs) == 1 else (len(specs), P.dim)

        def advance(r, th, noise, ids):
            # one stepper call per chunk, writing each step's state
            # straight into its rows of the chunk's arrays
            m = len(ids)
            rs, ths = np.empty((2, m) + r.shape)
            grad, hess = P.step_providers(ids)
            stepper(r.reshape(shape), th.reshape(shape), grad, hess,
                    noise.reshape(noise.shape[:2] + shape), rs.reshape((m,) + shape),
                    ths.reshape((m,) + shape))
            return rs, ths

        scheme = specs[0].scheme
        # noise counted at two draws whatever the scheme draws, plus r and
        # theta: every scheme takes the same chunks for the same (R, d)
        return (scheme, noise_draws(scheme), 4 * P.dim, np.stack([z.r for z in starts]),
                np.stack([z.theta for z in starts]), advance)

    return run_loop(setup, [s.eta for s in specs], modes, P.n_batches, cfgs,
                    [int(c) for c in chain_indices], keep_momenta, spec=specs)


def run_chain(P: Potential, spec: IntegratorSpec, mode, cfg: ChainConfig,
              chain_index: int = 0) -> Trace:
    """Run one chain in batch mode `mode`; deterministic given (cfg.seed,
    chain_index).

    Raises DivergenceError (with step index and the samples kept so far
    attached as `partial`) if the state leaves the finite range.
    """
    thetas, momenta = run_states(P, [spec], [mode], [cfg], [chain_index])
    return _trace(thetas[0], momenta[0], cfg, _step_duration(spec))


def save_trace(trace: Trace, csv_path) -> None:
    """Write the kept samples as CSV.

    The CSV contains no wall-clock fields, so reruns with the same seed are
    byte-identical.
    """
    d = trace.dim
    header = (
        ["step", "time"]
        + [f"theta_{j}" for j in range(d)]
        + [f"r_{j}" for j in range(d)]
    )
    write_columns(csv_path, header,
                  [trace.steps, trace.times, *trace.thetas.T, *trace.momenta.T])
