"""One-step transition kernels for the damped Hamiltonian SDE.

The SDE being discretized, for potential U and friction C > 0, at unit
mass:

    d theta = r dt
    d r     = -grad U(theta) dt - C r dt + sqrt(2C) dW

Every scheme advances (r, theta) by one step of size eta, consuming a
gradient provider bound to the current (possibly mini-batch, K-rescaled)
potential and the step's standard-normal noise. Schemes:

- EULER: explicit Euler-Maruyama, both updates from pre-step values.
- LEAPFROG: half position drift, damped momentum kick with injected noise
  sqrt(2 C eta) w, half position drift.
- SGHMC: LEAPFROG with injected-noise std sqrt(2 (C - v_hat) eta).
- SPV: half drift, exact Ornstein-Uhlenbeck momentum update forced by the
  mid-point gradient, half drift.
- LIE_TROTTER: n_inner deterministic leapfrog steps, then one exact OU
  momentum refresh over time n_inner * eta.
- HMC_PARTIAL: LIE_TROTTER's stepper, its refresh read as the partial
  momentum refresh r' = alpha r + sqrt(1 - alpha^2) w,
  alpha = exp(-eta n_inner C).
- SYMMETRIC: half OU refresh, deterministic leapfrog, half OU refresh.
- MT3: three-stage quasi-symplectic scheme of weak third order with
  implicit-in-r stages (solved in closed form) and
  eta^{1/2}, eta^{3/2}, eta^{5/2} stochastic corrections; needs a
  Hessian-vector provider.

A stepper advances a whole chunk of steps per call. It takes each step's
noise as data, the `noise_draws(scheme)` normal vectors in the order listed
on `compile_step`; the same draws give the same step bit for bit, however
they were drawn. It writes each step's state into output arrays its caller
owns (a chain loop passes its chunk's) and keeps its intermediates in
scratch arrays made when it is compiled, so a step allocates nothing;
`compile_step` runs it as a chunk of one step for callers that want fresh
arrays back. Each scheme's formulas exist once, as that in-place sequence
of numpy calls.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Scheme",
    "IntegratorSpec",
    "DivergenceError",
    "compile_step",
    "compile_ensemble_step",
    "noise_draws",
]


class Scheme(str, enum.Enum):
    """A one-step integrator, named by its CLI spelling (see module docstring)."""

    EULER = "euler"
    LEAPFROG = "leapfrog"
    SPV = "spv"
    LIE_TROTTER = "lie-trotter"
    SYMMETRIC = "symmetric"
    MT3 = "mt3"
    SGHMC = "sghmc"
    HMC_PARTIAL = "hmc"


class DivergenceError(RuntimeError):
    """A step produced a non-finite state (usually from a non-finite gradient)."""

    def __init__(self, message: str, r=None, theta=None, step_index=None,
                 eta=None, scheme=None):
        self.r = None if r is None else np.asarray(r)
        self.theta = None if theta is None else np.asarray(theta)
        self.step_index = step_index
        self.eta = eta
        self.scheme = scheme
        parts = [message]
        if step_index is not None:
            parts.append(f"step={step_index}")
        if scheme is not None:
            parts.append(f"scheme={getattr(scheme, 'value', scheme)}")
        if eta is not None:
            parts.append(f"eta={eta}")
        super().__init__(" ".join(parts))


@dataclass(frozen=True)
class IntegratorSpec:
    """Frozen description of one scheme configuration.

    eta = 0 is allowed here (every scheme reduces to the identity map, which
    the tests rely on); running chains requires eta > 0 and enforces it at
    that layer. friction = 0 is allowed for deterministic-limit probes.
    """

    scheme: Scheme
    eta: float
    friction: float
    n_inner: int = 1
    v_hat: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "scheme", Scheme(self.scheme))
        object.__setattr__(self, "eta", float(self.eta))
        object.__setattr__(self, "friction", float(self.friction))
        object.__setattr__(self, "n_inner", int(self.n_inner))
        object.__setattr__(self, "v_hat", float(self.v_hat))
        if not np.isfinite(self.eta) or self.eta < 0:
            raise ValueError("eta must be finite and >= 0")
        if not np.isfinite(self.friction) or self.friction < 0:
            raise ValueError("friction must be finite and >= 0")
        if self.n_inner < 1:
            raise ValueError("n_inner must be >= 1")
        if not np.isfinite(self.v_hat) or self.v_hat < 0:
            raise ValueError("v_hat must be finite and >= 0")
        if self.scheme is Scheme.SGHMC and self.v_hat > self.friction:
            raise ValueError(
                "SGHMC needs v_hat <= friction for a PSD injected-noise covariance"
            )


_MT3_C1, _MT3_C2 = 7.0 / 24.0, 3.0 / 8.0


def noise_draws(scheme) -> int:
    """How many d-vectors of noise one step of the scheme draws."""
    return 2 if Scheme(scheme) in (Scheme.SYMMETRIC, Scheme.MT3) else 1


def _constants(spec: IntegratorSpec, d: int) -> dict:
    """Everything a stepper multiplies by, from the spec's Python-float eta,
    for d-vector states.

    Scalar products are formed here in the order the step formulas evaluate
    them (eta * C * r is (eta * C) * r), as Python floats; `_spread` then
    spreads them over arrays rather than recomputing them on arrays, where
    eta**1.5 and friends can round differently in the last bit. The OU
    decays and noise scales are taken on (d,) arrays, not scalars: numpy's
    array loops for exp and expm1 may round differently from its scalar
    path, and the steppers' bits are the array loops'.
    """
    eta = spec.eta
    C = spec.friction
    scheme = spec.scheme
    k = {"eta": eta, "half_eta": 0.5 * eta, "eta_C": eta * C, "C": C}

    if scheme is Scheme.EULER:
        k["noise_std"] = np.sqrt(2.0 * C * eta)
    elif scheme in (Scheme.LEAPFROG, Scheme.SGHMC):
        v_hat = spec.v_hat if scheme is Scheme.SGHMC else 0.0
        k["noise_std"] = np.sqrt(2.0 * (C - v_hat) * eta)
    elif scheme in (Scheme.SPV, Scheme.LIE_TROTTER, Scheme.HMC_PARTIAL, Scheme.SYMMETRIC):
        # the exact OU refresh over time t, x = C t: spv's step, lie-trotter's
        # and hmc's n_inner steps, symmetric's half step
        x = np.full(d, C * eta if scheme is Scheme.SPV
                    else C * (0.5 * eta) if scheme is Scheme.SYMMETRIC
                    else C * spec.n_inner * eta)
        k["decay"] = np.exp(-x)
        k["noise_std"] = np.sqrt(-np.expm1(-2.0 * x))
        if scheme is Scheme.SPV:
            # eta * (1 - e^{-x}) / x, continuous at x = 0 where it equals eta;
            # this times grad recovers the leapfrog kick in the frictionless limit
            kick = np.full(d, eta)
            nz = x > 0
            kick[nz] = eta * -np.expm1(-x[nz]) / x[nz]
            k["kick"] = kick
    elif scheme is Scheme.MT3:
        k["den1"] = 1.0 + _MT3_C1 * eta * C
        k["den2"] = 1.0 + _MT3_C2 * eta * C
        k["den3"] = 1.0 + eta * C
        s2c = np.sqrt(2.0 * C)
        amp_mix = eta**1.5 * s2c
        amp_high = eta**2.5 / 6.0 * s2c
        k.update(
            c1_eta=_MT3_C1 * eta, c2_eta=_MT3_C2 * eta, r_f=(2.0 / 3.0) * eta,
            th2_r=(25.0 / 24.0) * eta, th2_f1=0.5 * eta * eta,
            th3_f1=(17.0 / 36.0) * eta * eta, th3_f2=(1.0 / 36.0) * eta * eta,
            amp_r=np.sqrt(eta) * s2c, amp_mix=amp_mix, amp_mix_C=amp_mix * C,
            amp_high=amp_high, amp_high_C=amp_high * C, amp_high_CC=amp_high * C * C,
        )
    return k


def _spread(specs, d: int) -> dict:
    """The constants of `_constants` for each spec, spread over (d,) for one
    spec and stacked over (R, d) for R, row c from specs[c]: same-shape numpy
    operations skip broadcasting, the slow path for small arrays, and each
    row gets the bits its own spec's constants give."""
    per_chain = [_constants(s, d) for s in specs]
    shape = (d,) if len(specs) == 1 else (len(specs), d)
    return {key: np.stack([np.broadcast_to(c[key], (d,)) for c in per_chain]).reshape(shape)
            for key in per_chain[0]}


def _kernel(scheme: Scheme, n_inner: int, k: dict, shape) -> Callable:
    """The chunk stepper for one scheme over the constants in k, on states of
    shape `shape`.

    Every operation is elementwise, so the same code steps one chain
    (constants, state and each noise draw are (d,)) or R chains (all
    (R, d)); constants broadcast over the state where their shapes differ.
    `stepper(r, th, grad, hess, noise, rs, ths)` takes m steps from (r, th)
    and writes step j's state into rs[j] and ths[j], which must not overlap
    r or th: noise is the chunk's (n_draws, m) + shape array of standard
    normals, draw i of step j at noise[i, j], which the stepper overwrites
    with its noise-only products, and grad(j, x) and hess(j, x, v) are
    step j's providers, returning arrays that the stepper only reads, and
    only until its next call of the same provider. Intermediates live in
    scratch arrays made here, once, so a chunk allocates nothing.

    Each formula, given in the comment above it, runs as the numpy calls its
    expression makes, on the same operands and in the same order: the bits
    are the expression's. A chunk forms the noise-only products of all its
    steps at once, and a step keeps the product of its r' that the next
    step would form again.
    """
    eta, half_eta, eta_C, C = k["eta"], k["half_eta"], k["eta_C"], k["C"]
    mul, add, sub, div, neg = np.multiply, np.add, np.subtract, np.divide, np.negative
    decay, noise_std = k.get("decay"), k.get("noise_std")
    # h = half_eta r for a step's r, kept where the next step starts from
    # that r
    a, b, x, h = (np.empty(shape) for _ in range(4))

    def det_leapfrogs(j, r, th, grad, r_out, th_out, count):
        # count deterministic leapfrogs from (r, th), into (r_out, th_out):
        # th_half = th + half_eta r, r' = r - eta grad(th_half),
        # th' = th_half + half_eta r'
        mul(half_eta, r, h)
        for _ in range(count):
            add(th, h, x)
            mul(eta, grad(j, x), a)
            sub(r, a, r_out)
            mul(half_eta, r_out, h)
            add(x, h, th_out)
            r, th = r_out, th_out

    def refresh(r, noise_w, r_out):
        # r' = decay r + noise_std w, noise_w holding noise_std w
        mul(decay, r, a)
        add(a, noise_w, r_out)

    def scale_noise(noise, ths):
        # noise_std w, the momentum kick's or refresh's, for every draw of
        # the chunk at once, in place: noise_std is spread over ths, which
        # the steps write later, so that no product broadcasts (numpy's
        # broadcasting loop allocates a buffer)
        ths[...] = noise_std
        for w in noise:
            mul(ths, w, w)

    if scheme is Scheme.EULER:
        def stepper(r, th, grad, hess, noise, rs, ths):
            scale_noise(noise, ths)
            for j, (kick_w, r_out, th_out) in enumerate(zip(noise[0], rs, ths)):
                # th' = th + eta r
                mul(eta, r, a)
                add(th, a, th_out)
                # r' = r - eta_C r - eta grad(th) + noise_std w
                mul(eta_C, r, a)
                sub(r, a, a)
                mul(eta, grad(j, th), b)
                sub(a, b, a)
                add(a, kick_w, r_out)
                r, th = r_out, th_out

        return stepper

    if scheme in (Scheme.LEAPFROG, Scheme.SGHMC, Scheme.SPV):
        spv, kick = scheme is Scheme.SPV, k.get("kick")

        def stepper(r, th, grad, hess, noise, rs, ths):
            scale_noise(noise, ths)
            mul(half_eta, r, h)
            for j, (kick_w, r_out, th_out) in enumerate(zip(noise[0], rs, ths)):
                # th_half = th + half_eta r
                add(th, h, x)
                if spv:
                    # r' = decay r - kick grad(th_half) + noise_std w
                    mul(decay, r, a)
                    mul(kick, grad(j, x), b)
                else:
                    # r' = r - eta grad(th_half) - eta_C r + noise_std w
                    mul(eta, grad(j, x), a)
                    sub(r, a, a)
                    mul(eta_C, r, b)
                sub(a, b, a)
                add(a, kick_w, r_out)
                # th' = th_half + half_eta r'
                mul(half_eta, r_out, h)
                add(x, h, th_out)
                r, th = r_out, th_out

        return stepper

    if scheme in (Scheme.LIE_TROTTER, Scheme.HMC_PARTIAL):
        def stepper(r, th, grad, hess, noise, rs, ths):
            scale_noise(noise, ths)
            for j, (refresh_w, r_out, th_out) in enumerate(zip(noise[0], rs, ths)):
                # n_inner deterministic leapfrogs, then one momentum refresh
                det_leapfrogs(j, r, th, grad, r_out, th_out, n_inner)
                refresh(r_out, refresh_w, r_out)
                r, th = r_out, th_out

        return stepper

    if scheme is Scheme.SYMMETRIC:
        def stepper(r, th, grad, hess, noise, rs, ths):
            scale_noise(noise, ths)
            for j, (w1, w2, r_out, th_out) in enumerate(
                    zip(*noise, rs, ths)):
                # half refresh, deterministic leapfrog, half refresh
                refresh(r, w1, r_out)
                det_leapfrogs(j, r_out, th, grad, r_out, th_out, 1)
                refresh(r_out, w2, r_out)
                r, th = r_out, th_out

        return stepper

    if scheme is Scheme.MT3:
        den1, den2, den3 = k["den1"], k["den2"], k["den3"]
        c1_eta, c2_eta, r_f = k["c1_eta"], k["c2_eta"], k["r_f"]
        th2_r, th2_f1, th3_f1, th3_f2 = k["th2_r"], k["th2_f1"], k["th3_f1"], k["th3_f2"]
        amp_r, amp_mix, amp_mix_C = k["amp_r"], k["amp_mix"], k["amp_mix_C"]
        amp_high, amp_high_C, amp_high_CC = k["amp_high"], k["amp_high_C"], k["amp_high_CC"]
        c, F1, F2 = (np.empty(shape) for _ in range(3))

        def stepper(r, th, grad, hess, noise, rs, ths):
            w1s, mixes = noise
            # mix = w1 0.5 + w2 for every step, into w2's place; rs, written by
            # the steps only, holds w1 0.5 until then
            mul(w1s, 0.5, rs)
            add(rs, mixes, mixes)
            for j, (w1, mix, r_out, th_out) in enumerate(zip(w1s, mixes, rs, ths)):
                # th1 = th + c1_eta r, g1 = grad(th1)
                mul(c1_eta, r, a)
                add(th, a, x)
                g = grad(j, x)
                # r1 = (r - c1_eta g1) / den1, F1 = -g1 - C r1
                mul(c1_eta, g, a)
                sub(r, a, a)
                div(a, den1, a)
                neg(g, F1)
                mul(C, a, a)
                sub(F1, a, F1)

                # th2 = th + th2_r r + th2_f1 F1, g2 = grad(th2)
                mul(th2_r, r, a)
                add(th, a, x)
                mul(th2_f1, F1, a)
                add(x, a, x)
                g = grad(j, x)
                # r2 = (r + r_f F1 - c2_eta g2) / den2, F2 = -g2 - C r2
                mul(r_f, F1, a)
                add(r, a, a)
                mul(c2_eta, g, b)
                sub(a, b, a)
                div(a, den2, a)
                neg(g, F2)
                mul(C, a, a)
                sub(F2, a, F2)

                # th3 = th + eta r + th3_f1 F1 + th3_f2 F2, g3 = grad(th3)
                mul(eta, r, a)
                add(th, a, x)
                mul(th3_f1, F1, a)
                add(x, a, x)
                mul(th3_f2, F2, a)
                add(x, a, x)
                g = grad(j, x)
                # r3 = (r + r_f (F1 - F2) - eta g3) / den3, into a
                sub(F1, F2, a)
                mul(r_f, a, a)
                add(r, a, a)
                mul(eta, g, b)
                sub(a, b, a)
                div(a, den3, a)

                # th' = th3 + amp_mix mix - amp_high_C w1
                mul(amp_mix, mix, c)
                add(x, c, th_out)
                mul(amp_high_C, w1, c)
                sub(th_out, c, th_out)
                # r' = r3 + amp_r w1 - amp_mix_C mix
                #      - amp_high hess(th3, w1) + amp_high_CC w1
                mul(amp_r, w1, c)
                add(a, c, r_out)
                mul(amp_mix_C, mix, c)
                sub(r_out, c, r_out)
                mul(amp_high, hess(j, x, w1), c)
                sub(r_out, c, r_out)
                mul(amp_high_CC, w1, c)
                add(r_out, c, r_out)
                r, th = r_out, th_out

        return stepper

    raise ValueError(f"unknown scheme {scheme!r}")


def compile_step(spec: IntegratorSpec) -> Callable:
    """One step of the spec's scheme: the chunk stepper of `_kernel` over
    the spec's constants spread over (d,), d the states' last axis, taking a
    chunk of one step.

    The returned callable has signature (r, theta, grad, hess, noise) and
    returns the new (r, theta) as fresh arrays without validation; callers
    own the divergence check. r and theta are d-vectors, or (S, d) stacks
    of them that step in one call; grad(x) and hess(x, v) return arrays of
    x's shape. `noise` holds the step's `noise_draws(scheme)` standard-normal
    draws, each of r's shape, in order:

    EULER / LEAPFROG / SGHMC: one (the momentum kick's).
    SPV / LIE_TROTTER / HMC_PARTIAL: one (the momentum refresh's).
    SYMMETRIC: two (first then second half refresh).
    MT3: two (w1, the sqrt-eta one, then w2).
    """
    def step(r, th, grad, hess, noise):
        shape = np.shape(r)
        rs, ths = np.empty((1,) + shape), np.empty((1,) + shape)
        # a copy: the stepper overwrites its noise
        noise = np.array(noise, dtype=np.float64)[:, None]
        _kernel(spec.scheme, spec.n_inner, _spread([spec], shape[-1]), shape)(
            r, th, lambda j, x: grad(x), lambda j, x, v: hess(x, v), noise, rs, ths)
        return rs[0], ths[0]

    return step


def compile_ensemble_step(specs, d: int) -> Callable:
    """The chunk stepper of `_kernel` for R chains of dimension d: one chain
    steps d-vectors, R > 1 chains the rows of (R, d) arrays.

    Chain c uses specs[c]'s constants, spread over the state's shape (see
    `_spread`), so each row gets the bits its own `compile_step` stepper
    would give. The specs must share scheme and n_inner. The
    stepper is `(r, th, grad, hess, noise, rs, ths)`, as `_kernel` says:
    noise is (n_draws, m, d) or (n_draws, m, R, d), row c of each draw for
    chain c, and grad(j, x) and hess(j, x, v) map states to arrays of their
    shape.
    """
    specs = list(specs)
    if not specs:
        raise ValueError("an ensemble needs at least one spec")
    first = specs[0]
    if any((s.scheme, s.n_inner) != (first.scheme, first.n_inner) for s in specs):
        raise ValueError("ensemble specs must share scheme and n_inner")
    shape = (d,) if len(specs) == 1 else (len(specs), d)
    return _kernel(first.scheme, first.n_inner, _spread(specs, d), shape)

