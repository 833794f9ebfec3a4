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
on its own streams above. Noise is drawn per chain in chunks of steps, and
the schedule is asked for a chunk of batch ids ahead; a stream gives the
same numbers whether drawn one step at a time or a chunk at a time, so every
chain's trace is bit-identical to the one it gives run alone. `run_chain` is
the one-chain ensemble.
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

__all__ = ["ChainConfig", "Trace", "run_chain", "run_ensemble", "ergodic_average",
           "acf1", "save_trace"]

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


def _finite(r: np.ndarray, th: np.ndarray) -> bool:
    """Whether sum(r) + sum(theta) is finite for every row: a chain has
    diverged once NaN or +-inf appears anywhere in its state."""
    if len(r) == 1:
        # a lone chain's own test, the cheapest form on the longest runs
        return math.isfinite(float(r.sum()) + float(th.sum()))
    # finite row totals can only add up to inf, never to NaN, so a finite
    # grand total clears every row and a non-finite one is rechecked per row
    return math.isfinite(np.add.reduce(r.sum(axis=1) + th.sum(axis=1)))


def _divergence(spec: IntegratorSpec, step_index: int, r, th, thetas, momenta):
    err = DivergenceError("chain diverged", r=r.copy(), theta=th.copy(),
                          step_index=step_index, eta=spec.eta, scheme=spec.scheme)
    err.partial = (thetas.copy(), momenta.copy())
    return err


def _run_length(etas, cfgs, **per_chain) -> tuple[int, int, int]:
    """Check an ensemble's arguments: one entry per chain in each named list,
    every eta > 0 and one run length. Returns (n_samples, burn_in, thinning)."""
    R = len(cfgs)
    if R == 0 or any(len(arg) != R for arg in per_chain.values()):
        *names, last = per_chain
        raise ValueError(f"an ensemble needs one {', '.join(names)} and {last} per chain")
    if not all(eta > 0 for eta in etas):
        raise ValueError("running a chain requires eta > 0")
    if len({(c.n_samples, c.burn_in, c.thinning) for c in cfgs}) > 1:
        raise ValueError("ensemble chains must share n_samples, burn_in and thinning")
    return cfgs[0].n_samples, cfgs[0].burn_in, cfgs[0].thinning


def _traces(thetas, momenta, steps, cfgs, idx, wall, runs) -> list[Trace]:
    """One Trace per chain from an ensemble's (R, n, d) kept samples.

    runs[c] is (step duration, meta) with chain c's scheme, eta, friction,
    n_inner, v_hat, mode and K; the run length, seed, chain index, dimension
    and the whole run's wall time complete its 14-key meta.
    """
    R, n, d = thetas.shape
    burn_in, thin = cfgs[0].burn_in, cfgs[0].thinning
    traces = []
    for c, (dt, meta) in enumerate(runs):
        meta.update(n_samples=n, burn_in=burn_in, thinning=thin, seed=cfgs[c].seed,
                    chain_index=idx[c], dim=d, wall_time_s=wall)
        traces.append(Trace(
            thetas=thetas[c],
            momenta=momenta[c],
            steps=steps if c == R - 1 else steps.copy(),
            times=steps.astype(float) * dt,
            meta=meta,
            effective_time=(burn_in + n * thin) * dt,
        ))
    return traces


class _Feed:
    """Hands out a chunk's pre-drawn noise to a stepper, one (R, d) draw per
    `normal` call, in the order the stepper asks for them."""

    def __init__(self, draws: np.ndarray):
        self._next = iter(draws).__next__

    def normal(self, d: int) -> np.ndarray:
        return self._next()


def run_ensemble(P: Potential, specs, scheds, cfgs, chain_indices) -> list[Trace]:
    """Run R independent chains in lockstep as the rows of (R, d) arrays.

    Chain c is (specs[c], scheds[c], cfgs[c], chain_indices[c]) with its
    own streams, and its trace equals the one that chain gives run alone,
    bit for bit. The chains share the potential, the
    scheme, n_inner and the run length (n_samples, burn_in, thinning); step
    size, friction, mass, seed, start and schedule may differ per chain.
    Each trace's meta["wall_time_s"] is the wall time of the whole run.

    If chains diverge, raises the DivergenceError of the first diverging
    chain in list order, carrying its own step index, scheme, eta and kept
    samples (`partial`). The run goes on until no earlier chain is left that
    could diverge first.
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

    t0 = time.perf_counter()
    starts = [_initial_state(P, s, c, i) for s, c, i in zip(specs, cfgs, idx)]
    rngs = [RngStream(c.seed, 4 * i) for c, i in zip(cfgs, idx)]
    full = [s.mode is BatchMode.FULL for s in scheds]
    total_steps = burn_in + n * thin
    d = P.dim
    n_draws = noise_draws(specs[0].scheme)
    thetas = np.empty((R, n, d))
    momenta = np.empty((R, n, d))
    steps = np.empty(n, dtype=np.int64)
    r = np.stack([z.r for z in starts])
    th = np.stack([z.theta for z in starts])

    stepper = compile_ensemble_step(specs)
    ids = scale = None
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
            # noise and batch ids for the next m steps, drawn per chain in the
            # order its steps would draw them one by one
            m = min(_CHUNK, total_steps - i)
            feed = _Feed(np.stack([rng.normal(m * n_draws * d).reshape(m * n_draws, d)
                                   for rng in rngs], axis=1))
            if scale is not None:
                ids_chunk = np.stack([s.take(m) for s in scheds], axis=1)
            for j in range(m):
                i += 1
                if scale is not None:
                    ids = ids_chunk[j]
                r, th = stepper(r, th, grad, hess, feed)
                if not _finite(r, th):
                    bad = ~np.isfinite(r.sum(axis=1) + th.sum(axis=1))
                    for c in np.flatnonzero(bad).tolist():
                        if c not in errors:
                            errors[c] = _divergence(specs[c], i, r[c], th[c],
                                                    thetas[c, :kept], momenta[c, :kept])
                    if 0 in errors:
                        # no earlier chain is left to diverge first
                        break
                if i > burn_in and (i - burn_in) % thin == 0:
                    thetas[:, kept] = th
                    momenta[:, kept] = r
                    steps[kept] = i
                    kept += 1
    if errors:
        raise errors[min(errors)]

    return _traces(thetas, momenta, steps, cfgs, idx, time.perf_counter() - t0, [
        (_step_duration(spec), {
            "scheme": spec.scheme.value, "eta": spec.eta, "friction": spec.friction,
            "n_inner": spec.n_inner, "v_hat": spec.v_hat, "mode": sched.mode.value,
            "K": sched.n_batches,
        }) for spec, sched in zip(specs, scheds)])


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
