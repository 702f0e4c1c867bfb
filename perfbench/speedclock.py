"""A stopwatch that rescales wall time to a reference machine speed.

The benchmark runs on a few cores of a shared host whose speed changes from
second to second with other tenants' load: the same pass can take 1.2 s or
2.1 s within a minute, with process CPU time equal to wall time, so neither
clock is steady.  ``SpeedClock`` samples the machine's speed while the
program runs.  A ``SIGALRM`` tick every ``INTERVAL`` seconds runs a short
fixed calibration kernel (interpreted Python with a heap and a dict, plus a
little numpy, the two kinds of work the package does) and times it.  Each
stretch of program time between two samples is scaled by ``REFERENCE_S``
over the mean kernel time at its two ends, raised to ``exponent``, so
``norm_s`` reads in seconds at the speed where the kernel takes
``REFERENCE_S``.  Kernel time is left out of both ``wall_s`` and ``norm_s``.

``exponent`` is how strongly the timed work follows the kernel: a workload
that slows by a factor ``r**e`` when the kernel slows by ``r`` wants ``e``.
Interpreted tree code follows it fully (1); numpy walker batches over large
arrays follow it by about two thirds.

The kernel uses its own random generators and touches no state of the
package, so the program's results do not change; the benchmark's
correctness check confirms that on every pass.
"""

from __future__ import annotations

import gc
import heapq
import random
import signal
import time

import numpy as np

INTERVAL = 0.25
# About the kernel's time on a quiet 2-vCPU x86-64 VM (Python 3.11); the
# unit of norm_s.  Any constant works, as long as compared commits share it.
REFERENCE_S = 0.010


def kernel() -> float:
    """Seconds the fixed calibration work takes now."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        rng = random.Random(12345)
        heap: list = []
        sums: dict = {}
        for i in range(6000):
            x = rng.random()
            heapq.heappush(heap, (x, i))
            sums[i % 977] = sums.get(i % 977, 0.0) + x
            if len(heap) > 64:
                heapq.heappop(heap)
        gen = np.random.default_rng(12345)
        for _ in range(12):
            a = gen.random(20_000)
            b = np.cumsum(np.log(a))
            np.searchsorted(b, b[::7])
            int((a < 0.3).sum())
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


_active: "SpeedClock | None" = None


def _on_alarm(_signum, _frame) -> None:
    if _active is not None:  # an alarm that arrives after a clock stopped is dropped
        _active._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL)  # one-shot: ticks never nest


class SpeedClock:
    """Context manager: ``wall_s`` and speed-normalized ``norm_s`` of its body.

    With ``ticks=False`` the speed is sampled only at the two ends, so no
    kernel runs inside the body (the traced run uses this, so that layer self
    times stay clean).  ``exponent`` is described in the module docstring.  Only one may run at a time, in the main thread.  It
    installs a ``SIGALRM`` handler for the rest of the process.
    """

    def __init__(self, ticks: bool = True, exponent: float = 1.0) -> None:
        self.ticks = ticks
        self.exponent = exponent
        self.wall_s = 0.0
        self.norm_s = 0.0
        self.samples: list[float] = []

    def _sample(self) -> None:
        """Close the stretch since the last sample and start the next."""
        end = time.perf_counter()
        k = kernel()
        stretch = end - self._mark
        self.wall_s += stretch
        self.norm_s += stretch * (REFERENCE_S / (0.5 * (self.samples[-1] + k))) ** self.exponent
        self.samples.append(k)
        self._mark = time.perf_counter()

    def __enter__(self) -> "SpeedClock":
        global _active
        assert _active is None, "SpeedClock does not nest"
        signal.signal(signal.SIGALRM, _on_alarm)
        self.samples.append(kernel())
        _active = self
        self._mark = time.perf_counter()
        if self.ticks:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL)
        return self

    def __exit__(self, *_exc) -> None:
        global _active
        signal.setitimer(signal.ITIMER_REAL, 0)
        _active = None
        self._sample()
