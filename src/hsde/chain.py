"""Chain runner: integrator steps under a batch schedule, with trace capture.

Stream convention (seed fixed, per chain index c):

    noise draws   -> RngStream(seed, 4c)
    initial state -> RngStream(seed, 4c + 1)
    batch schedule-> RngStream(seed, 4c + 2)   (built by the caller)

so parallel chains are independent and any chain is reproducible in
isolation. A trace keeps every `thinning`-th state after `burn_in` steps;
defaults follow the oracle protocol used throughout the verification suite
(burn-in 2000, thinning 500).

`run_ensemble` advances R chains together as the rows of (R, d) arrays, each
on its own streams above. Noise is drawn per chain in chunks of steps and
handed to the stepper as arrays, and the schedule is asked for a chunk of
batch ids ahead; a stream gives the same numbers whether drawn one step at a
time or a chunk at a time, so every chain's trace is bit-identical to the one
it gives run alone. `run_chain` is the one-chain ensemble.

The per-step bookkeeping is done once per chunk: the potential may gather
the chunk's mini-batch operands up front (`Potential.chunk_batches`), the
chunk's states are stacked once at its end, its kept rows are copied out
together and the divergence check runs over all of its (step, chain) rows.
A diverging chain is reported with the step, state and kept samples it
had at its first non-finite step, exactly as a step-by-step check would.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .batching import BatchMode, BatchSchedule
from .core import RngStream, State, format_float, write_columns
from .integrators import (
    DivergenceError,
    IntegratorSpec,
    Scheme,
    compile_ensemble_step,
    noise_draws,
)
from .potentials import Potential

__all__ = ["ChainConfig", "Trace", "run_chain", "run_ensemble", "run_states",
           "ergodic_average", "acf1", "save_trace"]

_MULTI_TIME = (Scheme.LIE_TROTTER, Scheme.HMC_PARTIAL)

# steps of noise and batch ids drawn per chain at a time
_CHUNK = 256


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
    """Kept samples plus full reproducibility metadata.

    thetas and momenta are (n_samples, d); steps holds the global step index
    each sample was taken at and times its simulated time.
    """

    thetas: np.ndarray
    momenta: np.ndarray
    steps: np.ndarray
    times: np.ndarray
    meta: dict
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


def _initial_state(P: Potential, spec: IntegratorSpec, cfg: ChainConfig,
                   chain_index: int) -> State:
    if isinstance(cfg.init, State):
        if cfg.init.dim != P.dim:
            raise ValueError("initial state dimension does not match potential")
        return cfg.init
    rng = RngStream(cfg.seed, 4 * chain_index + 1)
    theta = P.sample_prior(rng)
    r = spec.mass.sqrt_diag * rng.normal(P.dim)
    return State(r=r, theta=theta)


def _divergence(spec: IntegratorSpec, chain: int, step_index: int, r, th, thetas,
                momenta):
    err = DivergenceError("chain diverged", r=r.copy(), theta=th.copy(),
                          step_index=step_index, eta=spec.eta, scheme=spec.scheme)
    err.chain = chain
    err.partial = (thetas.copy(), None if momenta is None else momenta.copy())
    return err


def _kept_rows(i: int, m: int, burn_in: int, thin: int) -> slice:
    """The rows of a chunk of steps i+1..i+m (row j is step i+1+j) that a
    trace keeps: steps burn_in + k thin, k >= 1."""
    lo = max(i + 1, burn_in + 1)
    return slice(lo + (burn_in - lo) % thin - i - 1, m, thin)


def _run_length(etas, cfgs, **per_chain) -> tuple[int, int, int]:
    """Check an ensemble's arguments: one entry per chain in each named list,
    every eta finite and > 0, and one run length. Returns (n_samples,
    burn_in, thinning)."""
    R = len(cfgs)
    if R == 0 or any(len(arg) != R for arg in per_chain.values()):
        *names, last = per_chain
        raise ValueError(f"an ensemble needs one {', '.join(names)} and {last} per chain")
    if not all(math.isfinite(eta) and eta > 0 for eta in etas):
        raise ValueError("running a chain requires a finite eta > 0")
    if len({(c.n_samples, c.burn_in, c.thinning) for c in cfgs}) > 1:
        raise ValueError("ensemble chains must share n_samples, burn_in and thinning")
    return cfgs[0].n_samples, cfgs[0].burn_in, cfgs[0].thinning


def _traces(thetas, momenta, cfgs, idx, wall, runs) -> list[Trace]:
    """One Trace per chain from an ensemble's (R, n, d) kept samples.

    runs[c] is (step duration, meta) with chain c's scheme, eta, friction,
    n_inner, v_hat, mode and K; the run length, seed, chain index, dimension
    and the whole run's wall time complete its 14-key meta. The k-th kept
    sample (k = 1..n) was taken at step burn_in + k thinning.
    """
    n, d = thetas.shape[1:]
    burn_in, thin = cfgs[0].burn_in, cfgs[0].thinning
    traces = []
    for c, (dt, meta) in enumerate(runs):
        meta.update(n_samples=n, burn_in=burn_in, thinning=thin, seed=cfgs[c].seed,
                    chain_index=idx[c], dim=d, wall_time_s=wall)
        steps = np.arange(burn_in + thin, burn_in + n * thin + 1, thin, dtype=np.int64)
        traces.append(Trace(
            thetas=thetas[c],
            momenta=momenta[c],
            steps=steps,
            times=steps * dt,
            meta=meta,
            effective_time=(burn_in + n * thin) * dt,
        ))
    return traces


def run_ensemble(P: Potential, specs, scheds, cfgs, chain_indices) -> list[Trace]:
    """Run R independent chains in lockstep as the rows of (R, d) arrays.

    Chain c is (specs[c], scheds[c], cfgs[c], chain_indices[c]) with its
    own streams, and its trace equals the one that chain gives run alone,
    bit for bit. The chains share the potential, the
    scheme, n_inner and the run length (n_samples, burn_in, thinning); step
    size, friction, mass, seed, start and schedule may differ per chain.
    Each trace's meta["wall_time_s"] is the wall time of the whole run.
    Divergence is raised as `run_states` raises it.
    """
    specs, scheds, cfgs = list(specs), list(scheds), list(cfgs)
    idx = [int(c) for c in chain_indices]
    t0 = time.perf_counter()
    thetas, momenta = run_states(P, specs, scheds, cfgs, idx)
    return _traces(thetas, momenta, cfgs, idx, time.perf_counter() - t0, [
        (_step_duration(spec), {
            "scheme": spec.scheme.value, "eta": spec.eta, "friction": spec.friction,
            "n_inner": spec.n_inner, "v_hat": spec.v_hat, "mode": sched.mode.value,
            "K": sched.n_batches,
        }) for spec, sched in zip(specs, scheds)])


def run_states(P: Potential, specs, scheds, cfgs, chain_indices,
               keep_momenta: bool = True) -> tuple:
    """The kept states of `run_ensemble`'s chains as (thetas, momenta), each
    (R, n_samples, d); with keep_momenta False, momenta is None and only
    positions are held.

    If chains diverge, raises the DivergenceError of the first diverging
    chain in list order, carrying its position in the list (`chain`), its
    own step index, state (`r`, `theta`), scheme, eta and kept samples
    (`partial`: thetas, and momenta or None). Divergence is checked once per
    chunk of steps, over every step of the chunk, so each diverging chain is
    found at its first non-finite step; the run goes on chunk by chunk
    until no earlier chain is left that could diverge first.
    """
    specs, scheds, cfgs = list(specs), list(scheds), list(cfgs)
    idx = [int(c) for c in chain_indices]
    n, burn_in, thin = _run_length([s.eta for s in specs], cfgs, spec=specs,
                                   schedule=scheds, config=cfgs, index=idx)
    R = len(specs)
    for spec, sched in zip(specs, scheds):
        if P.dim != spec.mass.dim:
            raise ValueError("potential and mass matrix dimensions differ")
        if sched.mode is not BatchMode.FULL and sched.n_batches != P.n_batches:
            raise ValueError("schedule and potential disagree on the batch count")

    starts = [_initial_state(P, s, c, i) for s, c, i in zip(specs, cfgs, idx)]
    rngs = [RngStream(c.seed, 4 * i) for c, i in zip(cfgs, idx)]
    full = [s.mode is BatchMode.FULL for s in scheds]
    total_steps = burn_in + n * thin
    d = P.dim
    n_draws = noise_draws(specs[0].scheme)
    thetas = np.empty((R, n, d))
    momenta = np.empty((R, n, d)) if keep_momenta else None
    r = np.stack([z.r for z in starts])
    th = np.stack([z.theta for z in starts])

    stepper = compile_ensemble_step(specs)
    scale = None
    if not all(full):
        # (R, d) like the state: same-shape products skip broadcasting
        scale = np.stack([np.full(d, 1.0 if f else float(s.n_batches))
                          for f, s in zip(full, scheds)])

    def grad(x):
        g = P.gradient_many(x, ids)
        return g if scale is None else scale * g

    def hess(x, v):
        h = P.hessian_vec_many(x, v, ids)
        return h if scale is None else scale * h

    errors: dict = {}
    kept = 0
    i = 0
    # diverging chains overflow and then step on as NaN rows: no warnings,
    # the finiteness check below reports each chain once
    with np.errstate(all="ignore"):
        while i < total_steps and 0 not in errors:
            # noise and batch operands for the next m steps, drawn per chain
            # in the order its steps would draw them one by one; noise[j]
            # holds step j's draws, each (R, d)
            m = min(_CHUNK, total_steps - i)
            noise = np.stack([rng.normal(m * n_draws * d).reshape(m, n_draws, d)
                              for rng in rngs], axis=2)
            batches = ([None] * m if scale is None else
                       P.chunk_batches(np.stack([s.take(m) for s in scheds], axis=1)))
            # the steppers return fresh arrays, so each step's state is kept
            # by reference and the chunk's states are stacked once, (m, R, d)
            rs, ths = [], []
            for noise_j, ids in zip(noise, batches):
                r, th = stepper(r, th, grad, hess, noise_j)
                rs.append(r)
                ths.append(th)
            # the chunk's noise and operands (the loop variables hold views
            # of them) are freed before the next chunk's are drawn
            del noise, noise_j, ids
            rs, ths = np.stack(rs), np.stack(ths)
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
                    errors[c] = _divergence(specs[c], c, i + 1 + j, rs[j, c], ths[j, c],
                                            thetas[c, :k],
                                            momenta[c, :k] if keep_momenta else None)
            i += m
    if errors:
        raise errors[min(errors)]
    return thetas, momenta


def run_chain(P: Potential, spec: IntegratorSpec, sched: BatchSchedule,
              cfg: ChainConfig, chain_index: int = 0) -> Trace:
    """Run one chain; deterministic given (cfg.seed, chain_index).

    The one-chain ensemble. Raises DivergenceError (with step index and the
    samples kept so far attached as `partial`) if the state leaves the
    finite range.
    """
    return run_ensemble(P, [spec], [sched], [cfg], [chain_index])[0]


def ergodic_average(trace: Trace, phi: Callable[[State], float]) -> float:
    """Arithmetic mean of phi over the kept states."""
    if trace.n_samples == 0:
        raise ValueError("ergodic average of an empty trace")
    total = 0.0
    for i in range(trace.n_samples):
        total += float(phi(State(r=trace.momenta[i], theta=trace.thetas[i])))
    return total / trace.n_samples


def acf1(trace: Trace, coord: int = 0, which: str = "theta") -> float:
    """Lag-1 sample autocorrelation of one coordinate of the kept samples."""
    if which not in ("theta", "r"):
        raise ValueError("which must be 'theta' or 'r'")
    series = (trace.thetas if which == "theta" else trace.momenta)[:, coord]
    if series.size < 3:
        raise ValueError("need at least 3 samples for acf1")
    x = series - series.mean()
    denom = float(np.dot(x, x))
    if denom == 0.0:
        raise ValueError("constant series has no autocorrelation")
    return float(np.dot(x[:-1], x[1:]) / denom)


def save_trace(trace: Trace, csv_path, meta_path=None) -> None:
    """Write the kept samples as CSV and the metadata as key = value lines.

    The CSV contains no wall-clock fields, so reruns with the same seed are
    byte-identical; wall time lives only in the metadata file.
    """
    d = trace.dim
    header = (
        ["step", "time"]
        + [f"theta_{j}" for j in range(d)]
        + [f"r_{j}" for j in range(d)]
    )
    write_columns(csv_path, header,
                  [trace.steps, trace.times, *trace.thetas.T, *trace.momenta.T])
    if meta_path is not None:
        keys = sorted(trace.meta)
        with open(meta_path, "w") as fh:
            for k in keys:
                fh.write(f"{k} = {trace.meta[k]}\n")
            fh.write(f"effective_time = {format_float(trace.effective_time)}\n")
