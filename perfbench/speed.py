"""Machine-speed calibration for timings taken on a shared host.

On a host shared with other tenants the same pure-Python loop can take 1.5x
to 2x as long from one minute to the next, and it switches between a fast
and a slow mode every few tens of milliseconds.  While a run measures, a
timer signal therefore interrupts it every PERIOD_S or so (jittered) to time
a fixed reference kernel, the benchmark's own code that no library change
can touch.  A timed chunk of work excludes the time spent in the kernel, and
is scaled to a nominal speed: multiplied by REF_S over the kernel's mean
time during the chunk, or over the MIN_TICKS samples nearest to it when the
chunk is too short to hold that many.  Interleaved this finely, the kernel
tracks the library's own speed to within a few percent, where raw timings
drift by 10% or more.

A call of a few milliseconds sits inside one fast or slow stretch, which the
timer's samples around it miss: scaled by them, such calls still spread by
20% or more.  ``bracketed`` runs the kernel right before and right after the
call instead and scales by those two times.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace

# Nominal time of one reference-kernel call: about its mean on a 2-vCPU
# x86-64 VM with Python 3.11, where the bounds in BENCHMARK.json were set.
REF_S = 0.0012
PERIOD_S = 0.05
MIN_TICKS = 10


@dataclass(frozen=True)
class _Pair:
    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a < 0:
            raise ValueError("negative")

    @property
    def total(self) -> int:
        return self.a + self.b


_WIDE = random.Random(3).getrandbits(400)


def reference_kernel() -> int:
    """A fixed mix of what the library's hot paths do in the interpreter:
    small-int arithmetic with tuples, dicts and lists; frozen dataclass
    construction and property access; shifts and masks on a wide int.
    Mixing them tracks the speed of all three workloads better than any one.
    """
    counts: dict[tuple[int, int], int] = {}
    acc = 0
    out = []
    for i in range(1200):
        k = (i * 2654435761) & 0xFFFF
        t = (k, i & 7)
        counts[t] = counts.get(t, 0) + 1
        acc ^= (k << (i & 15)) | (acc >> 3)
        out.append(t)
    pairs = [_Pair(i, i & 3) for i in range(600)]
    acc += sum(p.total for p in pairs)
    for i in range(1000):
        acc ^= (_WIDE >> (i % 397)) & 0xFFFF
    return acc + len(counts) + len(out)


@dataclass(frozen=True)
class Chunk:
    start: float
    end: float
    seconds: float  # raw wall time less the reference kernel's
    ref_s: float | None = None  # kernel time measured around it, if bracketed


class SpeedProbe:
    def __init__(self) -> None:
        self.tick_at: list[float] = []  # when each kernel call started
        self.tick_s: list[float] = []  # and how long it took
        self.spent = 0.0  # seconds taken by the signal handler, overhead included
        self._jitter = random.Random(0)
        self._armed = False

    @staticmethod
    def _kernel_seconds() -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference_kernel()
            return time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()

    def _tick(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        self.tick_at.append(t0)
        self.tick_s.append(self._kernel_seconds())
        if self._armed:  # a tick handled while stopping must not re-arm the timer
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S * self._jitter.uniform(0.5, 1.5))
        self.spent += time.perf_counter() - t0

    @contextmanager
    def running(self):
        """Sample the machine's speed for the duration of the block."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        try:
            yield self
        finally:
            self._armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def timed(self, fn):
        """Run fn; return its result and its Chunk."""
        spent = self.spent
        t0 = time.perf_counter()
        result = fn()
        t1 = time.perf_counter()
        return result, Chunk(t0, t1, t1 - t0 - (self.spent - spent))

    def bracketed(self, fn):
        """Run fn between two reference-kernel calls; return its result and
        its Chunk, to be scaled by the mean time of those two calls."""
        before = self.timed(self._kernel_seconds)[1].seconds  # less any tick
        result, chunk = self.timed(fn)
        after = self.timed(self._kernel_seconds)[1].seconds
        return result, replace(chunk, ref_s=(before + after) / 2)

    def nominal(self, chunk: Chunk) -> float:
        """The chunk's seconds at nominal speed; call once the run is over."""
        if chunk.ref_s is not None:
            return chunk.seconds * REF_S / chunk.ref_s
        i = bisect.bisect_left(self.tick_at, chunk.start)
        j = bisect.bisect_right(self.tick_at, chunk.end)
        n = len(self.tick_at)
        if n < MIN_TICKS:
            raise RuntimeError("too few speed samples: the run was too short")
        while j - i < MIN_TICKS:
            before = chunk.start - self.tick_at[i - 1] if i > 0 else float("inf")
            after = self.tick_at[j] - chunk.end if j < n else float("inf")
            if before <= after:
                i -= 1
            else:
                j += 1
        return chunk.seconds * REF_S / statistics.fmean(self.tick_s[i:j])
