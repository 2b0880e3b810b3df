"""Throughput/latency accounting for data-center runs.

The latency summary is a :class:`repro.obs.metrics.LatencyHistogram`, so
data-center benches and the observability layer report quantiles through
the same nearest-rank machinery (``repro.sim.trace.rank_of``).
"""

from __future__ import annotations

from repro.obs.metrics import LatencyHistogram

__all__ = ["DataCenterMetrics"]


class DataCenterMetrics:
    """Completed-transaction counters and latency summary."""

    def __init__(self, env):
        self.env = env
        self.completed = 0
        self.latency = LatencyHistogram("latency_us")
        self._t0 = env.now

    def start_window(self) -> None:
        """Reset the measurement window (e.g. after warm-up)."""
        self.completed = 0
        self.latency = LatencyHistogram("latency_us")
        self._t0 = self.env.now

    def record(self, started_at: float) -> None:
        self.completed += 1
        self.latency.observe(self.env.now - started_at)

    @property
    def elapsed_us(self) -> float:
        return self.env.now - self._t0

    def tps(self) -> float:
        """Transactions per *second* over the current window."""
        if self.elapsed_us <= 0:
            return 0.0
        return self.completed / (self.elapsed_us / 1e6)

    def mean_latency_us(self) -> float:
        return self.latency.tally.mean
