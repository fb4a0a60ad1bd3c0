"""Core-speed sampling, so that timings survive a shared host.

On a 2-vCPU Intel Xeon virtual machine shared with other tenants, the same
deterministic work took up to 1.6x longer from one minute to the next while
nothing else ran on the machine: the other tenants slow the core.

While a `CoreSpeed` block runs, a SIGALRM handler in the same thread times a
fixed piece of interpreter work (`probe`) every INTERVAL_S. The mean speed
over those samples tracks the speed of the measured work: over 18 identical
curve traces the spread of the raw times (IQR over median) was 0.24 and that
of the scaled times 0.04.

`scale()` maps a wall time to the time on a core that runs `probe` in
REF_PROBE_S, the probe's time on an uncontended core of the recording machine
(Intel Xeon at 2.0 GHz, Python 3.11). The handler costs about 1% of the time.

The scaling assumes that the measured work runs in this one thread. A thread
of the program's own would hold the GIL or share the core while a probe runs,
so the probe would read the program's contention as a slower core and the
scaled time would shrink. A block therefore records the process's thread
count at every sample and the CPU time of its waited-for child processes, and
`parallel()` names any growth of either; the caller then fails the timed
work. A thread that lives for less than INTERVAL_S can go unseen.
"""

from __future__ import annotations

import os
import signal
import time

INTERVAL_S = 0.02
PROBE_ROUNDS = 400
REF_PROBE_S = 1.8e-4


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y


def _step(a, b):
    return a * b + 1


def probe() -> int:
    """Fixed interpreter work: object creation, attribute reads and calls."""
    acc = 0
    for i in range(PROBE_ROUNDS):
        p = _Point(i, i + 1)
        acc += _step(p.x, p.y)
    return acc


def threads() -> int:
    """Threads of this process (Linux)."""
    return len(os.listdir("/proc/self/task"))


def children_cpu_s() -> float:
    t = os.times()
    return t.children_user + t.children_system


class CoreSpeed:
    """Context manager sampling the core speed; not reentrant."""

    def __enter__(self) -> "CoreSpeed":
        self.samples: list[float] = []
        self.threads_at_start = threads()
        self.max_threads = self.threads_at_start
        self._children_at_start = children_cpu_s()
        self.children_s = 0.0
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.max_threads = max(self.max_threads, threads())
        self.children_s = children_cpu_s() - self._children_at_start

    def _sample(self, *_signal) -> None:
        t0 = time.perf_counter()
        probe()
        self.samples.append(time.perf_counter() - t0)
        self.max_threads = max(self.max_threads, threads())

    def parallel(self) -> str | None:
        """Why the block did not run in one thread alone, or None."""
        if self.max_threads > self.threads_at_start:
            return (
                f"{self.max_threads} threads ran, {self.threads_at_start} at start: "
                "the core-speed scaling assumes one thread"
            )
        if self.children_s > 0:
            return (
                f"child processes used {self.children_s:.2f} s of CPU: "
                "the core-speed scaling assumes one thread"
            )
        return None

    def scale(self) -> float:
        """Reference time per wall second: the mean sampled speed relative
        to the reference speed (a harmonic mean of the probe times, which a
        probe stretched by an interrupt barely moves)."""
        return REF_PROBE_S * sum(1.0 / t for t in self.samples) / len(self.samples)
