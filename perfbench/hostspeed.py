"""How fast the host runs while a job runs.

The shared 2-vCPU host this benchmark was tuned on changes speed by up to
about 2x, in spells from a fraction of a second to several minutes, and a
whole run can fall into one slow spell.  Best-of-passes timing cannot remove
that, so every job is timed together with a probe: a fixed kernel of
small-array numpy and Python arithmetic, like the program's hot loops, run
before the job, after it, and every ``INTERVAL_S`` during it from a SIGALRM
handler in the job's own thread.  The job's wall time, less the probe's own
time, is scaled by ``(REFERENCE_S / median kernel time) ** SENSITIVITY``:
the result estimates the job's time on a host where the kernel takes
``REFERENCE_S``.  ``SENSITIVITY`` is below 1 because the kernel feels the
host's state more than the program does: between the host's fast and slow
states the kernel slowed 1.6-1.75x and the validate and audit jobs
1.35-1.5x, so the job time changes as the kernel time to the power 0.6-0.75.

The probe costs about 1% of a job.  It cannot tell a slow host from a change
that slows the kernel too, such as a background thread holding the GIL; the
report prints the uncorrected wall times beside the corrected ones.
"""
from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
REFERENCE_S = 4e-4      # kernel time at the reference speed (0.3-0.6 ms seen)
SENSITIVITY = 0.7

_A = np.array([[0.0, 1.0], [-1.0, 0.0]])


def kernel() -> float:
    """Seconds taken by one fixed, small piece of work."""
    start = time.perf_counter()
    y = np.array([1.0, 0.5])
    acc = 0.0
    for i in range(150):
        y = y + 1e-3 * (_A @ y)
        acc += math.sin(i * 1e-3) * float(y[0])
    return time.perf_counter() - start


class Probe:
    """Context manager that samples ``kernel()`` around and during a job."""

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        self.samples.append(kernel())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "Probe":
        self.samples, self.spent = [], 0.0
        self._sample()
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()

    @property
    def factor(self) -> float:
        """Scale from this job's wall time to the reference speed."""
        return (REFERENCE_S / statistics.median(self.samples)) ** SENSITIVITY
