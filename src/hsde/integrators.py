"""One-step transition kernels for the damped Hamiltonian SDE.

The SDE being discretized, for potential U, friction C > 0, diagonal mass M:

    d theta = M^-1 r dt
    d r     = -grad U(theta) dt - C M^-1 r dt + sqrt(2C) dW

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
- HMC_PARTIAL: identical path law to LIE_TROTTER, restricted to M = I, with
  the refresh written as r' = alpha r + sqrt(1 - alpha^2) w,
  alpha = exp(-eta n_inner C).
- SYMMETRIC: half OU refresh, deterministic leapfrog, half OU refresh.
- MT3: three-stage quasi-symplectic scheme of weak third order with
  implicit-in-r stages (solved in closed form for diagonal M) and
  eta^{1/2}, eta^{3/2}, eta^{5/2} stochastic corrections; needs a
  Hessian-vector provider.

A stepper takes its step's noise as data, the `noise_draws(scheme)` normal
vectors in the order listed on `compile_step`; the same draws give the same
step bit for bit, however they were drawn. It writes the new state into
output arrays its caller owns (a chain loop passes the rows of its chunk)
and keeps its intermediates in scratch arrays made when it is compiled, so
a step allocates nothing; `compile_step` wraps it for callers that want
fresh arrays back. Each scheme's formulas exist once, as that in-place
sequence of numpy calls.

Unit factors are skipped: in IEEE-754, x * 1.0 is x bit for bit, so where
every chain's M^-1 diagonal is exactly 1.0 (`MassMatrix.identity`, the mass
of every CLI chain) a stepper leaves out each product by M^-1. The choice is
made once, when the stepper is compiled, and every input gets the bits the
full products would give.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import MassMatrix, RngStream, State

__all__ = [
    "Scheme",
    "IntegratorSpec",
    "DivergenceError",
    "compile_step",
    "compile_ensemble_step",
    "noise_draws",
    "step",
]

GradFn = Callable[[np.ndarray], np.ndarray]
HessFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


class Scheme(str, enum.Enum):
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
    mass: MassMatrix
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
        if self.v_hat < 0:
            raise ValueError("v_hat must be >= 0")
        if self.scheme is Scheme.SGHMC and self.v_hat > self.friction:
            raise ValueError(
                "SGHMC needs v_hat <= friction for a PSD injected-noise covariance"
            )
        if self.scheme is Scheme.HMC_PARTIAL and not self.mass.is_identity():
            raise ValueError(
                "the partial-refresh HMC scheme is defined with identity mass only"
            )

    @property
    def dim(self) -> int:
        return self.mass.dim


def _non_unit(factor):
    """factor, or None where every entry of it is exactly 1.0: x * 1.0 is x
    bit for bit, so a stepper skips that product."""
    return None if np.all(np.asarray(factor) == 1.0) else factor


_MT3_C1, _MT3_C2 = 7.0 / 24.0, 3.0 / 8.0


def noise_draws(scheme) -> int:
    """How many d-vectors of noise one step of the scheme draws."""
    return 2 if Scheme(scheme) in (Scheme.SYMMETRIC, Scheme.MT3) else 1


def _constants(spec: IntegratorSpec) -> dict:
    """Everything a stepper multiplies by, from the spec's Python-float eta.

    Scalar products are formed here in the order the step formulas evaluate
    them (eta * C * r is (eta * C) * r), so a stepper gets the same bits
    whether it receives them as floats or as arrays. Ensembles stack these
    per chain rather than recomputing them on arrays, where eta**1.5 and
    friends can round differently in the last bit.
    """
    eta = spec.eta
    C = spec.friction
    inv = spec.mass.inv_diag
    diag = spec.mass.diag
    scheme = spec.scheme
    k = {"eta": eta, "half_eta": 0.5 * eta, "eta_C": eta * C, "C": C, "inv": inv}

    if scheme is Scheme.EULER:
        k["noise_std"] = np.sqrt(2.0 * C * eta)
    elif scheme in (Scheme.LEAPFROG, Scheme.SGHMC):
        v_hat = spec.v_hat if scheme is Scheme.SGHMC else 0.0
        k["noise_std"] = np.sqrt(2.0 * (C - v_hat) * eta)
    elif scheme is Scheme.SPV:
        x = C * eta * inv
        k["decay"] = np.exp(-x)
        k["noise_std"] = np.sqrt(diag * -np.expm1(-2.0 * x))
        # eta * (1 - e^{-x}) / x, continuous at x = 0 where it equals eta;
        # this times grad recovers the leapfrog kick in the frictionless limit
        kick = np.full(spec.dim, eta)
        nz = x > 0
        kick[nz] = eta * -np.expm1(-x[nz]) / x[nz]
        k["kick"] = kick
    elif scheme in (Scheme.LIE_TROTTER, Scheme.HMC_PARTIAL):
        x = C * spec.n_inner * eta * inv
        k["decay"] = np.exp(-x)
        k["noise_std"] = np.sqrt(diag * -np.expm1(-2.0 * x))
    elif scheme is Scheme.SYMMETRIC:
        x_half = C * (0.5 * eta) * inv
        k["decay"] = np.exp(-x_half)
        k["noise_std"] = np.sqrt(diag * -np.expm1(-2.0 * x_half))
    elif scheme is Scheme.MT3:
        k["den1"] = 1.0 + _MT3_C1 * eta * C * inv
        k["den2"] = 1.0 + _MT3_C2 * eta * C * inv
        k["den3"] = 1.0 + eta * C * inv
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


def _kernel(scheme: Scheme, n_inner: int, k: dict, shape) -> Callable:
    """The stepper for one scheme over the constants in k, on states of shape
    `shape`.

    Every operation is elementwise, so the same code steps one chain
    (constants are floats and d-vectors, state and each noise draw are (d,))
    or R chains (constants, state and each noise draw are (R, d) arrays).
    `stepper(r, th, grad, hess, noise, r_out, th_out)` writes the new state
    into r_out and th_out, which must not overlap r or th, and keeps its
    intermediates in scratch arrays made here, once, so a step allocates
    nothing. grad(x) and hess(x, v) return arrays that the stepper only
    reads, and only until its next call of the same provider. Each formula,
    given in the comment above it, runs as the numpy calls its expression
    makes, on the same operands and in the same order: the bits are the
    expression's.
    """
    eta, half_eta, eta_C, C = k["eta"], k["half_eta"], k["eta_C"], k["C"]
    # inv(y) in the formulas below is y * M^-1: one product by this factor,
    # left out where it is None (a unit mass)
    inv = _non_unit(k["inv"])
    mul, add, sub, div, neg = np.multiply, np.add, np.subtract, np.divide, np.negative
    decay, noise_std = k.get("decay"), k.get("noise_std")
    a, b, x = (np.empty(shape) for _ in range(3))

    def det_leapfrog(r, th, grad, r_out, th_out):
        # th_half = th + inv(half_eta r), r' = r - eta grad(th_half),
        # th' = th_half + inv(half_eta r'); r_out may be r and th_out th
        mul(half_eta, r, a)
        if inv is not None: mul(a, inv, a)
        add(th, a, x)
        mul(eta, grad(x), a)
        sub(r, a, r_out)
        mul(half_eta, r_out, a)
        if inv is not None: mul(a, inv, a)
        add(x, a, th_out)

    def refresh(r, w, r_out):
        # r' = decay r + noise_std w
        mul(decay, r, a)
        mul(noise_std, w, b)
        add(a, b, r_out)

    if scheme is Scheme.EULER:
        def stepper(r, th, grad, hess, noise, r_out, th_out):
            # th' = th + inv(eta r)
            mul(eta, r, a)
            if inv is not None: mul(a, inv, a)
            add(th, a, th_out)
            # r' = r - inv(eta_C r) - eta grad(th) + noise_std w
            mul(eta_C, r, a)
            if inv is not None: mul(a, inv, a)
            sub(r, a, a)
            mul(eta, grad(th), b)
            sub(a, b, a)
            mul(noise_std, noise[0], b)
            add(a, b, r_out)

        return stepper

    if scheme in (Scheme.LEAPFROG, Scheme.SGHMC):
        def stepper(r, th, grad, hess, noise, r_out, th_out):
            # th_half = th + inv(half_eta r)
            mul(half_eta, r, a)
            if inv is not None: mul(a, inv, a)
            add(th, a, x)
            # r' = r - eta grad(th_half) - inv(eta_C r) + noise_std w
            mul(eta, grad(x), a)
            sub(r, a, a)
            mul(eta_C, r, b)
            if inv is not None: mul(b, inv, b)
            sub(a, b, a)
            mul(noise_std, noise[0], b)
            add(a, b, r_out)
            # th' = th_half + inv(half_eta r')
            mul(half_eta, r_out, a)
            if inv is not None: mul(a, inv, a)
            add(x, a, th_out)

        return stepper

    if scheme is Scheme.SPV:
        kick = k["kick"]

        def stepper(r, th, grad, hess, noise, r_out, th_out):
            # th_half = th + inv(half_eta r)
            mul(half_eta, r, a)
            if inv is not None: mul(a, inv, a)
            add(th, a, x)
            # r' = decay r - kick grad(th_half) + noise_std w
            mul(decay, r, a)
            mul(kick, grad(x), b)
            sub(a, b, a)
            mul(noise_std, noise[0], b)
            add(a, b, r_out)
            # th' = th_half + inv(half_eta r')
            mul(half_eta, r_out, a)
            if inv is not None: mul(a, inv, a)
            add(x, a, th_out)

        return stepper

    if scheme in (Scheme.LIE_TROTTER, Scheme.HMC_PARTIAL):
        def stepper(r, th, grad, hess, noise, r_out, th_out):
            # n_inner deterministic leapfrogs, then one momentum refresh
            det_leapfrog(r, th, grad, r_out, th_out)
            for _ in range(n_inner - 1):
                det_leapfrog(r_out, th_out, grad, r_out, th_out)
            refresh(r_out, noise[0], r_out)

        return stepper

    if scheme is Scheme.SYMMETRIC:
        def stepper(r, th, grad, hess, noise, r_out, th_out):
            # half refresh, deterministic leapfrog, half refresh
            refresh(r, noise[0], r_out)
            det_leapfrog(r_out, th, grad, r_out, th_out)
            refresh(r_out, noise[1], r_out)

        return stepper

    if scheme is Scheme.MT3:
        den1, den2, den3 = k["den1"], k["den2"], k["den3"]
        c1_eta, c2_eta, r_f = k["c1_eta"], k["c2_eta"], k["r_f"]
        th2_r, th2_f1, th3_f1, th3_f2 = k["th2_r"], k["th2_f1"], k["th3_f1"], k["th3_f2"]
        amp_r, amp_mix, amp_mix_C = k["amp_r"], k["amp_mix"], k["amp_mix_C"]
        amp_high, amp_high_C, amp_high_CC = k["amp_high"], k["amp_high_C"], k["amp_high_CC"]
        c, F1, F2 = (np.empty(shape) for _ in range(3))

        def stepper(r, th, grad, hess, noise, r_out, th_out):
            # th1 = th + inv(c1_eta r), g1 = grad(th1)
            mul(c1_eta, r, a)
            if inv is not None: mul(a, inv, a)
            add(th, a, x)
            g = grad(x)
            # r1 = (r - c1_eta g1) / den1, F1 = -g1 - inv(C r1)
            mul(c1_eta, g, a)
            sub(r, a, a)
            div(a, den1, a)
            neg(g, F1)
            mul(C, a, a)
            if inv is not None: mul(a, inv, a)
            sub(F1, a, F1)

            # th2 = th + inv(th2_r r) + inv(th2_f1 F1), g2 = grad(th2)
            mul(th2_r, r, a)
            if inv is not None: mul(a, inv, a)
            add(th, a, x)
            mul(th2_f1, F1, a)
            if inv is not None: mul(a, inv, a)
            add(x, a, x)
            g = grad(x)
            # r2 = (r + r_f F1 - c2_eta g2) / den2, F2 = -g2 - inv(C r2)
            mul(r_f, F1, a)
            add(r, a, a)
            mul(c2_eta, g, b)
            sub(a, b, a)
            div(a, den2, a)
            neg(g, F2)
            mul(C, a, a)
            if inv is not None: mul(a, inv, a)
            sub(F2, a, F2)

            # th3 = th + inv(eta r) + inv(th3_f1 F1) + inv(th3_f2 F2),
            # g3 = grad(th3)
            mul(eta, r, a)
            if inv is not None: mul(a, inv, a)
            add(th, a, x)
            mul(th3_f1, F1, a)
            if inv is not None: mul(a, inv, a)
            add(x, a, x)
            mul(th3_f2, F2, a)
            if inv is not None: mul(a, inv, a)
            add(x, a, x)
            g = grad(x)
            # r3 = (r + r_f (F1 - F2) - eta g3) / den3, into a
            sub(F1, F2, a)
            mul(r_f, a, a)
            add(r, a, a)
            mul(eta, g, b)
            sub(a, b, a)
            div(a, den3, a)

            w1, w2 = noise
            # mix = w1 0.5 + w2, into b
            mul(w1, 0.5, b)
            add(b, w2, b)
            # th' = th3 + inv(amp_mix mix) - inv(inv(amp_high_C w1))
            mul(amp_mix, b, c)
            if inv is not None: mul(c, inv, c)
            add(x, c, th_out)
            mul(amp_high_C, w1, c)
            if inv is not None: mul(mul(c, inv, c), inv, c)
            sub(th_out, c, th_out)
            # r' = r3 + amp_r w1 - inv(amp_mix_C mix)
            #      - amp_high hess(th3, inv(w1)) + inv(inv(amp_high_CC w1))
            mul(amp_r, w1, c)
            add(a, c, r_out)
            mul(amp_mix_C, b, c)
            if inv is not None: mul(c, inv, c)
            sub(r_out, c, r_out)
            mul(amp_high, hess(x, w1 if inv is None else mul(w1, inv, c)), c)
            sub(r_out, c, r_out)
            mul(amp_high_CC, w1, c)
            if inv is not None: mul(mul(c, inv, c), inv, c)
            add(r_out, c, r_out)

        return stepper

    raise ValueError(f"unknown scheme {scheme!r}")


def compile_step(spec: IntegratorSpec) -> Callable:
    """Bake the spec's constants into a raw stepper.

    The returned callable has signature (r, theta, grad, hess, noise) and
    returns the new (r, theta) as fresh arrays without validation; callers
    own the divergence check. grad(x) and hess(x, v) return arrays. `noise`
    holds the step's `noise_draws(scheme)` standard-normal d-vectors, in
    order:

    EULER / LEAPFROG / SGHMC: one (the momentum kick's).
    SPV / LIE_TROTTER / HMC_PARTIAL: one (the momentum refresh's).
    SYMMETRIC: two (first then second half refresh).
    MT3: two (w1, the sqrt-eta one, then w2).
    """
    k = _constants(spec)

    def step(r, th, grad, hess, noise):
        r_out, th_out = np.empty(np.shape(r)), np.empty(np.shape(th))
        _kernel(spec.scheme, spec.n_inner, k, r_out.shape)(
            r, th, grad, hess, noise, r_out, th_out)
        return r_out, th_out

    return step


def compile_ensemble_step(specs) -> Callable:
    """One raw stepper for R chains held as the rows of (R, d) arrays.

    Row c uses specs[c]'s constants, computed exactly as `compile_step`
    computes them and spread over row c of (R, d) arrays (same-shape numpy
    operations skip broadcasting, the slow path for small arrays), so each
    row gets the bits its own `compile_step` stepper would give. The specs
    must share scheme, n_inner and dimension. The stepper is
    `(r, th, grad, hess, noise, r_out, th_out)`: it writes the step from
    (r, th) into the (R, d) arrays r_out and th_out, which must not overlap
    r or th, and allocates nothing. Each of the `noise` draws is (R, d), row
    c for chain c; grad and hess map (R, d) to (R, d) arrays that the
    stepper only reads.
    """
    specs = list(specs)
    if not specs:
        raise ValueError("an ensemble needs at least one spec")
    first = specs[0]
    for s in specs:
        if (s.scheme, s.n_inner, s.dim) != (first.scheme, first.n_inner, first.dim):
            raise ValueError("ensemble specs must share scheme, n_inner and dimension")
    per_chain = [_constants(s) for s in specs]
    stacked = {key: np.stack([np.broadcast_to(c[key], (first.dim,)) for c in per_chain])
               for key in per_chain[0]}
    return _kernel(first.scheme, first.n_inner, stacked, (len(specs), first.dim))


def step(z: State, grad: GradFn, spec: IntegratorSpec, rng: RngStream,
         hess: HessFn | None = None) -> State:
    """Apply one step of whatever scheme the spec selects: the single-step
    call, its noise drawn from `rng` one d-vector at a time. MT3 needs the
    Hessian-vector provider `hess`; a non-finite result raises
    DivergenceError."""
    if z.dim != spec.mass.dim:
        raise ValueError("state dimension does not match mass matrix")
    if spec.scheme is Scheme.MT3 and hess is None:
        raise ValueError("MT3 needs a Hessian-vector provider")
    noise = [rng.normal(z.dim) for _ in range(noise_draws(spec.scheme))]
    r, th = compile_step(spec)(z.r, z.theta, grad, hess, noise)
    # NaN or +-inf anywhere makes the sum non-finite
    if not np.isfinite(float(np.sum(r)) + float(np.sum(th))):
        raise DivergenceError(
            "non-finite state after step", r=r, theta=th, eta=spec.eta,
            scheme=spec.scheme,
        )
    return State(r=r, theta=th)
