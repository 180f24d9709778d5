"""Host speed probe, run outside the measured process.

The host the benchmark was built on alternates, for seconds to minutes at a
time, between a fast state and one 1.5 to 1.8 times slower, whatever else
runs on it; raw wall times of identical passes spread by 20% and
more.  The slowdown belongs to one virtual CPU at a time: a probe on the
other CPU does not follow it.  So ``HostProbe`` is a thread of the parent
process (``run.py``), pinned to the one CPU the worker is pinned to.  Every
``PERIOD_S`` it runs a fixed kernel twice and times the second, warm run in
thread CPU time.  The figure thus follows the speed of that CPU, but not
the worker's heap, caches or scheduling, which a probe inside the worker
would share.

A time measured over a window ``[a, b]`` of ``time.perf_counter()`` (the
same clock in every process) is scaled to the host's fast state by
``factor(a, b)``; ``busy(a, b)`` is the CPU time the probe took from the
worker inside the window, which the timers subtract.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

PERIOD_S = 0.2
# The warm kernel's time in the fast state of the host the baseline was
# recorded on; scaled times are seconds at this kernel time.
REF_S = 0.002
# factor() also takes samples this close to a window, so that a window
# shorter than PERIOD_S (a set-up) has some.
MARGIN_S = 0.5

# Interpreter work plus small and mid-sized int64 numpy operations, as
# gorlab does.
_SMALL = np.arange(64, dtype=np.int64).reshape(8, 8)
_MID = np.arange(96 * 96, dtype=np.int64).reshape(96, 96) % 5


def kernel():
    a = _SMALL.copy()
    for i in range(120):
        a = (a * 3 + i) % 5
        a[[0, 1]] = a[[1, 0]]
        np.nonzero(a[:, 0])
    return (_MID @ _MID) % 5


def pick_cpu():
    """The CPU to pin the worker and the probe to, or None if the
    platform cannot pin."""
    try:
        return max(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return None


def pin(pid, cpu) -> bool:
    """Pin process or thread ``pid`` to ``cpu``; False if that fails."""
    if cpu is None:
        return False
    try:
        os.sched_setaffinity(pid, {cpu})
    except OSError:
        return False
    return True


class HostProbe:
    """Samples the speed of one CPU from a thread until ``stop()``."""

    def __init__(self, cpu):
        self.cpu = cpu
        self.pinned = False
        # (wall start, warm kernel CPU time, CPU time of the whole sample);
        # appended whole, so the main thread never sees half a sample
        self.samples = []
        self._ready = threading.Event()
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def start(self):
        self._thread.start()
        self._ready.wait()

    def stop(self):
        self._done.set()
        self._thread.join()

    def _loop(self):
        self.pinned = pin(threading.get_native_id(), self.cpu)
        self._ready.set()
        while True:
            wall = time.perf_counter()
            c0 = time.thread_time()
            kernel()
            c1 = time.thread_time()
            kernel()
            c2 = time.thread_time()
            self.samples.append((wall, c2 - c1, c2 - c0))
            if self._done.wait(PERIOD_S):
                return

    def busy(self, a, b) -> float:
        return sum(busy for wall, _, busy in list(self.samples)
                   if a <= wall < b)

    def factor(self, a, b) -> float:
        xs = [k for wall, k, _ in list(self.samples)
              if a - MARGIN_S <= wall <= b + MARGIN_S]
        if not xs:
            raise RuntimeError("no host speed sample near [%.3f, %.3f]"
                               % (a, b))
        return REF_S * len(xs) / sum(xs)
