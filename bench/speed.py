"""Machine-speed probe that makes timings on shared cores comparable.

The benchmark runs on virtual CPUs that share physical cores with other
tenants. Their load slows pure-Python code by up to 1.8x, often for a minute
or more, so raw wall times of the same work drift by 10-20% between runs.
The probe times a fixed reference loop next to the workload; a timing taken
alongside it is scaled to an uncontended core by REFERENCE_NOMINAL_S divided
by the mean reference time observed. On this benchmark's workloads that cut
the run-to-run spread of a 30 s window from about 10% to about 2%.

The probe measures the speed of the thread it runs on. It assumes the
workload runs on that one thread; a change that adds threads or worker
processes must be judged on the raw times, which the benchmark prints too.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
from fractions import Fraction
from time import perf_counter

# Reference loop time on an uncontended core of an Intel Xeon under CPython
# 3.11; it only fixes the unit of scaled timings.
REFERENCE_NOMINAL_S = 0.002


def reference_loop() -> None:
    seen = set()
    for i in range(1, 400):
        value = Fraction(i, 7) * Fraction(3, i + 2) - Fraction(1, i)
        seen.add(value.numerator & 255)


class SpeedProbe:
    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent_s = 0.0  # time spent in the reference loop so far
        self.begun = perf_counter()

    def sample(self) -> None:
        t0 = perf_counter()
        reference_loop()
        elapsed = perf_counter() - t0
        self.samples.append(elapsed)
        self.spent_s += elapsed

    @contextlib.contextmanager
    def periodic(self, interval_s: float = 0.1):
        """Sample every interval_s seconds from a timer signal, interleaving
        the reference loop with a long operation on the main thread. Callers
        subtract the growth of spent_s from what they time inside."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, interval_s, interval_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self) -> float:
        """Multiplier that scales timings taken alongside the samples to an
        uncontended core."""
        return REFERENCE_NOMINAL_S / statistics.mean(self.samples)

    def elapsed_s(self) -> float:
        """Scaled seconds since the probe was made, less its reference loops;
        a run that stops on this clock does the same work on a busy machine
        as on an idle one."""
        wall = perf_counter() - self.begun - self.spent_s
        return wall * self.factor() if self.samples else wall
