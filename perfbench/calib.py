"""Host-speed calibration: a fixed kernel timed alongside the workload.

On a shared host the same work runs up to 1.5-2x slower for minutes at a
time, and CPU time slows with wall time, so the slowdown is the core's speed,
not scheduling. Timing a fixed kernel in the same process, on the same core
and over the same interval gives the core's current speed. The kernel mimics
what the workloads spend their time on: an interpreted loop over a small
state object that calls small-array numpy operations, draws normals, checks
finiteness and formats floats. On the reference host its time tracked the
workloads' wall times with a log-log slope of 1.05-1.14 and correlation
0.95-0.99, where a pure arithmetic loop gave slopes of 1.2-1.3.

A time T measured while the kernel took k seconds is reported as
``T * REF_KERNEL_S / k``: the time T would have taken on the reference host,
where the kernel takes ``REF_KERNEL_S``. The kernel does not depend on hsde,
so a change to hsde moves the adjusted time by the same factor as the raw one.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# kernel time that defines reference speed; the kernel takes 2.0-2.5 ms on a
# shared Intel Xeon vCPU at 2.0 GHz with Python 3.11, numpy 2.4, one BLAS thread
REF_KERNEL_S = 2.0e-3

_A = np.random.default_rng(12345).standard_normal((4, 4)) * 0.1
_STEPS = 60


class _State:
    def __init__(self, theta, r):
        self.theta = theta
        self.r = r


def kernel() -> dict:
    """One calibration unit (a damped 4-d linear walk); returns its output
    so no work is skipped."""
    z = _State(np.ones(4), np.zeros(4))
    rng = np.random.default_rng(7)
    rows = {}
    for i in range(_STEPS):
        g = _A @ z.theta
        z.r = 0.9 * z.r - 0.05 * g + 0.1 * rng.standard_normal(4)
        z.theta = z.theta + 0.05 * z.r
        if not np.isfinite(float(np.sum(z.r)) + float(np.sum(z.theta))):
            break
        rows[i % 5] = ",".join(repr(float(v)) for v in z.theta)
    return rows


def typical(samples: list) -> float:
    """Kernel time that stands for the host's speed over the sampled
    interval: the harmonic mean, as work done is the time integral of
    speed, which is proportional to 1 / kernel time."""
    return len(samples) / sum(1.0 / k for k in samples)


def burst(n: int = 15) -> float:
    """Typical time of `n` back-to-back kernels, in seconds."""
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return typical(times)


class Probe:
    """Times one kernel every `interval_s` of wall time while work runs.

    The kernel runs from a SIGALRM handler in the main thread, between two
    bytecodes of whatever the workload is doing; `busy_s` is the time spent
    in the handler, which the caller subtracts from its own wall time.
    """

    def __init__(self, interval_s: float = 0.1):
        self.interval_s = interval_s
        self.samples: list[float] = []
        self.busy_s = 0.0
        self._running = False
        self._previous = signal.SIG_DFL

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.busy_s += time.perf_counter() - t0

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.siginterrupt(signal.SIGALRM, False)  # restart interrupted I/O in C code
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        self._running = True

    def stop(self) -> None:
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
            self._running = False


def adjust(seconds: float, kernel_s: float) -> float:
    """`seconds` measured while the kernel took `kernel_s`, at reference speed."""
    return seconds * REF_KERNEL_S / kernel_s
