"""Lightweight measurement helpers: time series and tallies.

Used by benches and services to record latencies, throughput windows and
time-weighted quantities without pulling in external dependencies.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

__all__ = ["Tally", "TimeSeries", "TimeWeighted", "percentile", "rank_of"]


def rank_of(q: float, n: int) -> int:
    """Nearest-rank index for percentile ``q`` over ``n`` observations.

    The single rank rule shared by :func:`percentile` (exact, sorted
    samples) and :meth:`repro.obs.metrics.LatencyHistogram.percentile`
    (log-bucketed counts), so benches and the observability layer report
    identical quantiles for identical data.
    """
    if not 0 <= q <= 100:
        raise ValueError(f"percentile out of range: {q}")
    if n <= 0:
        raise ValueError("percentile of empty sequence")
    return max(0, min(n - 1, math.ceil(q / 100 * n) - 1))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sequence.

    NaN inputs are rejected: NaN is unordered, so ``sorted`` would place
    it arbitrarily and silently corrupt every quantile after it.
    """
    if not values:
        raise ValueError("percentile of empty sequence")
    if any(math.isnan(v) for v in values):
        raise ValueError("percentile of sequence containing NaN")
    ordered = sorted(values)
    return ordered[rank_of(q, len(ordered))]


class Tally:
    """Streaming count/mean/min/max/variance of scalar observations."""

    def __init__(self, name: str = ""):
        self.name = name
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, x: float) -> None:
        if x != x:  # NaN
            # A NaN observation would poison mean/variance forever and
            # make min/max comparisons silently false; refuse it here,
            # at the boundary, where the caller can still see why.
            raise ValueError(f"NaN observation in tally {self.name!r}")
        self.count += 1
        delta = x - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (x - self._mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    def merge(self, other: "Tally") -> "Tally":
        """Fold ``other``'s observations into this tally (in place).

        Uses the parallel variance combination (Chan et al.), so merging
        per-shard tallies yields the same count/mean/variance as one
        tally over the union.  Merging an empty tally — either side — is
        a no-op on the statistics; ``self`` is returned for chaining.
        """
        if other.count == 0:
            return self
        if self.count == 0:
            self.count = other.count
            self._mean = other._mean
            self._m2 = other._m2
            self.min = other.min
            self.max = other.max
            return self
        n1, n2 = self.count, other.count
        delta = other._mean - self._mean
        total = n1 + n2
        self._mean += delta * n2 / total
        self._m2 += other._m2 + delta * delta * n1 * n2 / total
        self.count = total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return self

    @property
    def mean(self) -> float:
        return self._mean if self.count else math.nan

    @property
    def variance(self) -> float:
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Tally {self.name} n={self.count} mean={self.mean:.3f} "
                f"min={self.min:.3f} max={self.max:.3f}>")


class TimeSeries:
    """(time, value) samples with simple aggregation helpers."""

    def __init__(self, name: str = ""):
        self.name = name
        self.times: List[float] = []
        self.values: List[float] = []

    def record(self, t: float, v: float) -> None:
        if self.times and t < self.times[-1]:
            raise ValueError("time series must be recorded in time order")
        self.times.append(t)
        self.values.append(v)

    def __len__(self) -> int:
        return len(self.values)

    def window_rate(self, t0: float, t1: float) -> float:
        """Events per microsecond within [t0, t1)."""
        if t1 <= t0:
            raise ValueError("empty window")
        n = sum(1 for t in self.times if t0 <= t < t1)
        return n / (t1 - t0)

    def last(self) -> Tuple[float, float]:
        if not self.times:
            raise ValueError("empty time series")
        return self.times[-1], self.values[-1]


class TimeWeighted:
    """Time-weighted average of a piecewise-constant quantity."""

    def __init__(self, t0: float = 0.0, v0: float = 0.0):
        self._t = t0
        self._v = v0
        self._integral = 0.0
        self._start = t0

    def set(self, t: float, v: float) -> None:
        if t < self._t:
            raise ValueError("time went backwards")
        self._integral += self._v * (t - self._t)
        self._t = t
        self._v = v

    def mean(self, t: Optional[float] = None) -> float:
        t = self._t if t is None else t
        horizon = t - self._start
        if horizon <= 0:
            return self._v
        return (self._integral + self._v * (t - self._t)) / horizon
