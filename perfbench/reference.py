"""The reference kernel that samples the machine's speed during a pass.

On a shared machine the same pass can take 30 % longer in one minute
than in the next, and CPU time swings with wall time.  The benchmark
therefore times this fixed stdlib kernel between ops and reports timed
metrics scaled to a machine on which one kernel run takes REFERENCE_S.

The kernel uses no quadalg code, but it runs in the measured process.
``time_kernel`` keeps quadalg's state out of the sample: the garbage
collector is off while it runs, so the size of quadalg's heap does not
enter, and an untimed first run refills the caches that the previous op
evicted.  ``reference_check.py`` compares the samples with those of a
fresh interpreter that holds only the kernel.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.001
# An op's latency is scaled by this many samples before it and as many after.
LOCAL_SAMPLES = 3


def reference_kernel():
    """Fixed work with quadalg's instruction mix: Fractions, dicts, tuples."""
    total, acc = Fraction(0), {}
    for i in range(1, 300):
        total += Fraction(i % 7 - 3, i)
        key = (i % 13, i % 7)
        acc[key] = acc.get(key, 0) + i
    return total, len(acc)


def time_kernel():
    """Seconds of one warm run of the kernel, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        reference_kernel()
        t0 = time.perf_counter()
        reference_kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def speed(samples):
    """Factor that scales times measured alongside ``samples`` to REFERENCE_S.

    The mean, not the median, because a pass's wall time integrates the
    machine's speed over the pass, and the samples are spread evenly in
    time.
    """
    return REFERENCE_S / statistics.mean(samples)


def local_speeds(samples, counts, window=LOCAL_SAMPLES):
    """Speed factor for each op from the samples taken around it.

    ``counts[i]`` is the number of samples taken before op i started.  The
    machine's speed drifts within a pass, so an op's latency is scaled by
    the speed near the time it ran rather than by the pass's mean.
    """
    return [speed(samples[max(0, n - window):n + window]) for n in counts]
