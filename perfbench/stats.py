"""The tail rule for latency percentiles."""

from __future__ import annotations

TAIL_BEYOND = 10


def tail(samples, beyond=TAIL_BEYOND):
    """The highest percentile that still has ``beyond`` samples above it.

    Returns ``(value, percentile, count)``: the sample with exactly
    ``beyond`` samples strictly after it in sorted order, the share of
    samples at or below it (in percent) and the sample count.  Raises
    ValueError when there are not enough samples for such a percentile.
    """
    n = len(samples)
    if n <= beyond:
        raise ValueError("need more than %d samples for a tail, got %d" % (beyond, n))
    ordered = sorted(samples)
    k = n - beyond - 1
    return ordered[k], 100.0 * (k + 1) / n, n

