"""Serving latency: a bounded recorder per tenant and lane.

:class:`LatencyRecorder` is a fixed-size ring of latency samples with
percentile readout — cheap enough to update on every request, bounded so a
long-lived serving process cannot grow without limit.  Each tenant's
recorders appear in :meth:`~repro.serve.runtime.ServeRuntime.snapshot`; the
process-global counters are in ``manager.snapshot()``.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["LatencyRecorder"]


class LatencyRecorder:
    """Bounded ring buffer of latency samples (seconds) with percentiles."""

    def __init__(self, capacity: int = 4096) -> None:
        self._lock = threading.Lock()
        self._ring = np.zeros(max(1, int(capacity)), dtype=np.float64)
        self._next = 0
        self.count = 0

    def record(self, seconds: float) -> None:
        with self._lock:
            self._ring[self._next] = seconds
            self._next = (self._next + 1) % self._ring.size
            self.count += 1

    def snapshot(self) -> dict:
        """count plus p50/p99/mean/max (ms) over the retained window."""
        with self._lock:
            n = min(self.count, self._ring.size)
            window = self._ring[:n].copy()
        if n == 0:
            return {"count": 0, "p50_ms": None, "p99_ms": None,
                    "mean_ms": None, "max_ms": None}
        return {
            "count": self.count,
            "p50_ms": float(np.percentile(window, 50)) * 1e3,
            "p99_ms": float(np.percentile(window, 99)) * 1e3,
            "mean_ms": float(window.mean()) * 1e3,
            "max_ms": float(window.max()) * 1e3,
        }
