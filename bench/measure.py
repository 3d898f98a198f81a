"""Arithmetic of the benchmark's metrics: medians, means and the division
by the reference kernel that cancels drift in the machine's speed."""

from __future__ import annotations

import statistics
from typing import Dict, Sequence


def normalised(value_s: float, ref_s: float) -> float:
    """A time in units of the reference kernel's time."""
    if ref_s <= 0:
        raise ValueError("reference time must be positive")
    return value_s / ref_s


def request_metrics(latencies_s: Sequence[float],
                    refs_s: Sequence[float]) -> Dict[str, float]:
    """End-to-end request metrics of one run; ``refs_s[i]`` is the kernel's
    time around request ``i``. The machine's speed drifts within seconds,
    so each request is divided by the kernel timed next to it, not by the
    run's median. Reference-kernel time is not request time, so it is left
    out of the rate."""
    if len(latencies_s) != len(refs_s):
        raise ValueError("one reference time per request")
    return {
        "requests_per_s": len(latencies_s) / sum(latencies_s),
        "latency_p50_ms": 1000.0 * statistics.median(latencies_s),
        "latency_mean_ref": statistics.fmean(
            normalised(t, r) for t, r in zip(latencies_s, refs_s)),
    }


def setup_metrics(setup_s: Sequence[float],
                  probe_ref_s: Sequence[float]) -> Dict[str, float]:
    """Set-up time and its ratio to the reference kernel timed in the same
    fresh interpreter, each the median over the interpreters."""
    return {
        "setup_s": statistics.median(setup_s),
        "setup_ref": statistics.median(
            [normalised(s, r) for s, r in zip(setup_s, probe_ref_s)]),
    }
