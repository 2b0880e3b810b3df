"""Lightweight measurement helpers: tallies and percentiles.

Used by benches and services to record latencies without pulling in
external dependencies.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["Tally", "percentile", "rank_of"]


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
