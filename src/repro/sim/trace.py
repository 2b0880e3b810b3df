"""Lightweight measurement helpers: tallies and the nearest-rank rule.

Used by benches and services to record latencies without pulling in
external dependencies.
"""

from __future__ import annotations

import math

__all__ = ["Tally", "rank_of"]


def rank_of(q: float, n: int) -> int:
    """Nearest-rank index for percentile ``q`` over ``n`` observations.

    The rank rule of :meth:`repro.obs.metrics.LatencyHistogram.percentile`
    (log-bucketed counts): it picks the observation an exact sorted-sample
    percentile picks, and differs only by the bucket's rounding.
    """
    if not 0 <= q <= 100:
        raise ValueError(f"percentile out of range: {q}")
    if n <= 0:
        raise ValueError("percentile of empty sequence")
    return max(0, min(n - 1, math.ceil(q / 100 * n) - 1))


class Tally:
    """Streaming count/mean/min/max of scalar observations."""

    def __init__(self, name: str = ""):
        self.name = name
        self.count = 0
        self._mean = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, x: float) -> None:
        self.extend((x,))

    def extend(self, xs: Sequence[float]) -> None:
        """Add each of ``xs`` in order, in one loop.

        A non-finite value is refused, leaving the tally as it was: NaN
        would poison the mean and make min/max silently false, and two
        infinities make the mean NaN.  The loop's mean is NaN after a
        NaN, and an infinity is the min or max: no test per value.
        """
        if not xs:
            return
        count, mean = self.count, self._mean
        for x in xs:
            count += 1
            mean += (x - mean) / count
        lo, hi = min(xs), max(xs)
        if mean != mean or lo == -math.inf or hi == math.inf:
            raise ValueError(
                f"non-finite observation in tally {self.name!r}")
        self.count, self._mean = count, mean
        if lo < self.min:
            self.min = lo
        if hi > self.max:
            self.max = hi

    @property
    def mean(self) -> float:
        return self._mean if self.count else math.nan

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Tally {self.name} n={self.count} mean={self.mean:.3f} "
                f"min={self.min:.3f} max={self.max:.3f}>")
