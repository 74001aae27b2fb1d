"""Host speed, sampled on the timed work's own CPU while it runs.

On a shared virtual machine a CPU slows down and speeds up by up to 2x
as other tenants come and go, over tens of seconds to minutes: the
same fig05 iteration took 1.7 s and 3.7 s a minute apart, with CPU time
equal to wall time.  Medians over a run cannot remove a slow spell
that lasts the whole run.  A :class:`SpeedProbe` runs sidecar threads
that, every ``PERIOD_S``, time a fixed pure-Python loop on the CPUs of
the timed work; :meth:`SpeedProbe.factor` turns the loop times
sampled during an iteration into the factor that scales the
iteration's times to a host running at reference speed.

A loop on the *other* CPU does not track the slowdown (correlation 0.2
over 68 fig05 iterations), one on the same CPU does (0.98), so the
probe runs one sampling thread pinned to each CPU the timed work uses.
It costs the timed work about 1%, the same on every run.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Iterable, List, Tuple

#: Seconds between samples.
PERIOD_S = 0.02
#: Iterations of the sample loop (about 0.2 ms).
LOOP_N = 3000
#: Seconds one sample's loop takes at reference speed: about its time
#: on an idle CPU of the 2-vCPU Xeon VM the baseline was taken on.
#: Changing it rescales every timing the benchmark reports.
REFERENCE_LOOP_S = 2.0e-4


def _loop(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


class SpeedProbe:
    """Daemon threads, one pinned to each of ``cpus``, each timing
    ``_loop(LOOP_N)`` every ``PERIOD_S``."""

    def __init__(self, cpus: Iterable[int]):
        #: ``(perf_counter at the sample's end, loop seconds)``.
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(target=self._sample, args=(cpu,),
                             name=f"figbench-speed-probe-{cpu}",
                             daemon=True)
            for cpu in sorted(cpus)]

    def start(self) -> "SpeedProbe":
        for thread in self._threads:
            thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()

    def _sample(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})  # this thread only
        while not self._stop.wait(PERIOD_S):
            started = time.perf_counter()
            _loop(LOOP_N)
            ended = time.perf_counter()
            self.samples.append((ended, ended - started))

    def loop_s(self, start: float, end: float) -> float:
        """Mean sample loop time between two ``perf_counter`` readings."""
        loops = [seconds for at, seconds in self.samples
                 if start <= at <= end]
        if not loops:
            raise RuntimeError("no speed sample inside the timed span")
        return sum(loops) / len(loops)

    def factor(self, start: float, end: float) -> float:
        """Reference over measured loop time: multiply a time by it."""
        return REFERENCE_LOOP_S / self.loop_s(start, end)
