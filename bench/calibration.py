"""The host's current speed, from a fixed kernel timed while ops run.

On a shared host the same op runs up to twice as slow while other tenants
are busy, for seconds to minutes at a time, and the slowdown is real CPU
time, not time the process waits.  A fixed interpreter loop run in the same
thread runs slow in the same stretches: its time next to an op correlates
0.7 to 0.87 with that of fadelab's ops, about as well as small numpy,
scipy, memory-streaming or formatting kernels or mixes of them do, and
better than the same loop run on the other CPU at the same time (0.58).

``Probe`` times the kernel every ``PROBE_EVERY_S`` seconds from a timer
signal, so an op that runs for seconds is sampled throughout, not only at
its ends.  An op's time is its wall time less the kernel runs inside it,
scaled by ``K_REF_S`` over the mean kernel time from the last sample before
the op to the first after it.  That states it in reference seconds: the
time the op would take on a host where the kernel takes ``K_REF_S``.

The kernel does not touch fadelab, so a change to the program does not
move it, and this module imports nothing heavy, so a fresh interpreter can
time the kernel before importing the program.
"""

from __future__ import annotations

import bisect
import signal
import time

#: the kernel's time on the reference host, in seconds (about its median on
#: a shared 2-CPU x86_64 virtual machine when the benchmark was defined)
K_REF_S = 0.04

#: wall time from the end of one kernel sample to the start of the next
PROBE_EVERY_S = 0.5


def kernel() -> float:
    """Seconds taken by a fixed amount of interpreter work."""
    t0 = time.perf_counter()
    s = 0
    for i in range(300_000):
        s += i * i % 7
    return time.perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor from seconds measured between two kernel samples to reference
    seconds."""
    return 2.0 * K_REF_S / (before + after)


class Probe:
    """Kernel samples every ``every`` seconds, taken from SIGALRM in the main
    thread, which runs the ops; one more on entry and on exit.

    The handler re-arms a one-shot timer when its kernel run ends, so
    samples never nest.  Python runs the handler between bytecodes, so a
    sample falls wholly inside or wholly outside an op.
    """

    def __init__(self, every: float = PROBE_EVERY_S):
        self.every = every
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.kernels: list[float] = []

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        k = kernel()
        self.starts.append(t0)
        self.ends.append(time.perf_counter())
        self.kernels.append(k)
        if signum is not None:
            signal.setitimer(signal.ITIMER_REAL, self.every)

    def __enter__(self) -> "Probe":
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.siginterrupt(signal.SIGALRM, False)     # restart system calls the timer interrupts
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.every)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()

    def _inside(self, a: float, b: float) -> tuple[int, int]:
        return bisect.bisect_left(self.starts, a), bisect.bisect_left(self.starts, b)

    def net(self, a: float, b: float) -> float:
        """Seconds from ``a`` to ``b`` less the kernel runs that started between."""
        i, j = self._inside(a, b)
        return (b - a) - sum(self.ends[n] - self.starts[n] for n in range(i, j))

    def scale(self, a: float, b: float) -> float:
        """Factor to reference seconds for ``net(a, b)``: the samples from the
        last one before ``a`` to the first one after ``b``.  Call once the
        sample after ``b`` exists."""
        i, j = self._inside(a, b)
        ks = self.kernels[max(i - 1, 0):j + 1]
        return K_REF_S * len(ks) / sum(ks)
