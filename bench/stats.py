"""Which latency percentiles a run has enough samples to report."""

from __future__ import annotations

TAIL_SAMPLES = 10   # a percentile is reported only with this many samples beyond it


def tail_supported(count: int, q: float) -> bool:
    """True when ``count`` samples leave at least TAIL_SAMPLES beyond the
    ``q`` percentile."""
    return count * (1.0 - q) >= TAIL_SAMPLES - 1e-9


def highest_supported(count: int, ladder=(0.999, 0.99, 0.95, 0.9, 0.75, 0.5)):
    """The highest percentile of ``ladder`` with TAIL_SAMPLES beyond it, or
    None when even the lowest has too few."""
    for q in ladder:
        if tail_supported(count, q):
            return q
    return None
