"""Fixed, stdlib-only kernels that measure how fast the machine runs now.

The benchmark runs on shared machines whose speed drifts by tens of
percent over minutes, and can halve or double within a second, which
moves every timing of a run together.  Each run therefore times a kernel
beside its timed work and scales its times by the kernel's reference time
over the kernel's time in the run: the reported times are those of a
machine on which the kernel takes its reference time.  The kernels share
no code with vconway, so no change to the package can move them, and
they run with the cyclic garbage collector off, so objects the package
keeps alive do not slow them either.

Two kernels, because a change of machine speed moves different kinds of
work by different shares:

  sample        a product of two sparse polynomials stored as dicts of
                packed exponents to big integers, like vconway's inner
                loop; it scales the operations
  setup_sample  compiling and executing a fixed synthetic module with
                dataclasses, like importing vconway; it scales set-up
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import statistics
import time

# The kernels' median times on the machine where the reference figures in
# README.md were measured; the scale is 1 on such a machine.
REF_S = 0.0114
REF_SETUP_S = 0.027

_rng = random.Random(20020)
_A = {_rng.randrange(1 << 20): _rng.randrange(1 << 40) for _ in range(160)}
_B = {_rng.randrange(1 << 20): _rng.randrange(1 << 40) for _ in range(160)}


def _kernel() -> dict[int, int]:
    out: dict[int, int] = {}
    for ka, va in _A.items():
        for kb, vb in _B.items():
            k = ka + kb
            out[k] = out.get(k, 0) + va * vb
    return out


def _setup_source() -> str:
    rng = random.Random(20021)
    parts = ["from dataclasses import dataclass\n"]
    for i in range(12):
        fields = "".join(f"    f{j}: int = {rng.randrange(100)}\n" for j in range(6))
        parts.append(f"@dataclass(frozen=True)\nclass C{i}:\n{fields}\n"
                     f"    def total(self):\n        return self.f0 + self.f1 * {i}\n\n")
    for i in range(40):
        parts.append(
            f"def g{i}(xs, k={i}):\n"
            f"    out = {{}}\n"
            f"    for a, b in enumerate(xs):\n"
            f"        if a % {rng.randrange(2, 9)} == k % 3:\n"
            f"            out[a] = out.get(a, 0) + b * {rng.randrange(1, 99)}\n"
            f"        elif b > {rng.randrange(50)}:\n"
            f"            out[b] = [a, b, (a, b), {{'x': a}}]\n"
            f"    return sorted(out.items(), key=lambda kv: (kv[0], str(kv[1])))\n\n")
    return "".join(parts)


_SETUP_SOURCE = _setup_source()


def _setup_kernel() -> None:
    code = compile(_SETUP_SOURCE, "<setup-calibration>", "exec", dont_inherit=True)
    exec(code, {"__name__": "setup_calibration"})


def _timed(kernel) -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def sample() -> float:
    """Time one run of the operations' kernel, in seconds, with the collector off."""
    return _timed(_kernel)


def setup_sample() -> float:
    """Time one run of the set-up kernel, in seconds, with the collector off."""
    return _timed(_setup_kernel)


class Sampler:
    """Samples of the operations' kernel taken through a run's measurement.

    A SIGALRM interval timer takes one every PERIOD_S, also in the middle of
    an operation, so that a long operation is scaled by the speed the
    machine had while it ran; `bracket` adds samples outside the timer.
    Samples run in the main thread, and the time of those that fall inside
    an operation is taken off its time (`inside`)."""

    PERIOD_S = 0.25
    # samples that end this close to an operation scale it
    WINDOW_S = 0.5

    def __init__(self) -> None:
        self.ends: list[float] = []
        self.times: list[float] = []

    def take(self, *_signal) -> None:
        self.times.append(sample())
        self.ends.append(time.perf_counter())

    def bracket(self, count: int) -> None:
        for _ in range(count):
            self.take()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.take)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def inside(self, t0: float, t1: float) -> float:
        """Total time of the samples taken between t0 and t1."""
        lo, hi = bisect.bisect_right(self.ends, t0), bisect.bisect_right(self.ends, t1)
        return sum(self.times[lo:hi])

    def scale(self, t0: float, t1: float) -> float:
        """REF_S over the median sample near the span from t0 to t1 (over
        every sample when none is near): the factor for the span's time."""
        lo = bisect.bisect_left(self.ends, t0 - self.WINDOW_S)
        hi = bisect.bisect_right(self.ends, t1 + self.WINDOW_S)
        return REF_S / statistics.median(self.times[lo:hi] or self.times)
