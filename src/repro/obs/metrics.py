"""Counters, gauges and log-bucketed latency histograms.

One :class:`MetricsRegistry` lives per :class:`~repro.sim.core.Environment`
(installed as part of ``env.obs``).  Metrics are named with dotted paths
(``nic.rdma_read_us``) and optionally scoped to a node — the registry
key is ``name`` or ``name@n<node>`` — so per-node and cluster-wide views
coexist without double counting: callers pick the scope at the call
site.

A counter that would copy a tally the program keeps anyway is *pulled*
(:meth:`MetricsRegistry.pull`): read at export, not pushed per event.

:class:`LatencyHistogram` buckets observations by power of two (the
exponent from :func:`math.frexp`), which keeps memory constant while
giving quantiles with at-most-2x relative error.  Its ``percentile``
uses the same nearest-rank rule (:func:`repro.sim.trace.rank_of`) as
the exact :func:`repro.sim.trace.percentile`, so benches sorting raw
samples and obs walking buckets report the *same rank* — they differ
only in bucket rounding, never in which observation is chosen.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional

from ..errors import ConfigError
from ..sim.trace import Tally, rank_of

__all__ = ["Counter", "Gauge", "LatencyHistogram", "MetricsRegistry"]


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += n

    def to_dict(self) -> int:
        return self.value


class Gauge:
    """Last-set value plus the extremes it visited."""

    __slots__ = ("name", "value", "min", "max")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.min = math.inf
        self.max = -math.inf

    def set(self, v: float) -> None:
        if math.isnan(v):
            raise ValueError(f"NaN gauge value for {self.name!r}")
        self.value = v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v

    def add(self, dv: float) -> None:
        self.set(self.value + dv)

    def to_dict(self) -> Dict[str, float]:
        if self.min is math.inf:  # never set
            return {"value": self.value, "min": None, "max": None}
        return {"value": self.value, "min": self.min, "max": self.max}


class LatencyHistogram:
    """Log2-bucketed distribution of simulated-µs latencies.

    Buckets are keyed by the binary exponent ``e`` such that the bucket
    covers ``(2**(e-1), 2**e]``; an observation ``x`` lands in
    ``math.frexp(x)[1]`` (zero gets its own bucket).  Reported
    percentiles are bucket *upper bounds* — a conservative estimate
    within 2x of the true value, which is plenty for the order-of-
    magnitude comparisons the paper's figures make.
    """

    __slots__ = ("name", "tally", "buckets", "zeros")

    def __init__(self, name: str = ""):
        self.name = name
        self.tally = Tally(name)
        self.buckets: Dict[int, int] = {}
        self.zeros = 0

    # -- recording ------------------------------------------------------
    def observe(self, us: float) -> None:
        if not us >= 0.0:  # negative or NaN
            raise ValueError(
                f"invalid latency for histogram {self.name!r}: {us}")
        self.tally.add(us)
        if us == 0.0:
            self.zeros += 1
            return
        _m, e = math.frexp(us)
        self.buckets[e] = self.buckets.get(e, 0) + 1

    @property
    def count(self) -> int:
        return self.tally.count

    # -- quantiles ------------------------------------------------------
    def percentile(self, q: float) -> float:
        """Nearest-rank percentile, reported as the bucket upper bound."""
        n = self.count
        rank = rank_of(q, n)  # raises on empty / out-of-range q
        if rank < self.zeros:
            return 0.0
        seen = self.zeros
        for e in sorted(self.buckets):
            seen += self.buckets[e]
            if rank < seen:
                return float(2.0 ** e)
        raise AssertionError("histogram bucket counts disagree with tally")

    # -- combination ----------------------------------------------------
    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Fold another histogram in (same semantics as Tally.merge)."""
        self.tally.merge(other.tally)
        self.zeros += other.zeros
        for e, c in other.buckets.items():
            self.buckets[e] = self.buckets.get(e, 0) + c
        return self

    # -- export ---------------------------------------------------------
    def to_dict(self) -> Dict[str, Optional[float]]:
        if self.count == 0:
            return {"count": 0, "mean_us": None, "min_us": None,
                    "max_us": None, "p50_us": None, "p95_us": None,
                    "p99_us": None}
        return {
            "count": self.count,
            "mean_us": self.tally.mean,
            "min_us": self.tally.min,
            "max_us": self.tally.max,
            "p50_us": self.percentile(50),
            "p95_us": self.percentile(95),
            "p99_us": self.percentile(99),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LatencyHistogram {self.name} n={self.count}>"


def _key(name: str, node: Optional[int]) -> str:
    return name if node is None else f"{name}@n{node}"


class MetricsRegistry:
    """All metrics of one Environment, keyed ``name`` / ``name@n<node>``."""

    def __init__(self, env):
        self.env = env
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, LatencyHistogram] = {}
        #: key -> [count, value, c, v]: (c, v) is (count(), value()) at
        #: registration while live, the moves since then while frozen
        self.pulled: Dict[str, list] = {}
        self.frozen = False

    # -- accessors (create on first use) --------------------------------
    def counter(self, name: str, node: Optional[int] = None) -> Counter:
        k = _key(name, node)
        c = self.counters.get(k)
        if c is None:
            c = self.counters[k] = Counter(k)
        return c

    def gauge(self, name: str, node: Optional[int] = None) -> Gauge:
        k = _key(name, node)
        g = self.gauges.get(k)
        if g is None:
            g = self.gauges[k] = Gauge(k)
        return g

    def histogram(self, name: str,
                  node: Optional[int] = None) -> LatencyHistogram:
        k = _key(name, node)
        h = self.histograms.get(k)
        if h is None:
            h = self.histograms[k] = LatencyHistogram(k)
        return h

    # -- pulled counters ------------------------------------------------
    def pull(self, name: str, count: Callable[[], int],
             value: Optional[Callable[[], int]] = None,
             node: Optional[int] = None) -> None:
        """Register a counter read from a tally: exported once ``count()``
        has moved since now, as ``value()`` (default ``count()``) minus
        its value now."""
        k = _key(name, node)
        if k in self.pulled or k in self.counters:
            raise ConfigError(f"counter {k!r} is already registered")
        value = value or count
        self.pulled[k] = [count, value, count(), value()]

    def freeze(self, frozen: bool = True) -> None:
        """Stop (``False``: resume) reading the pulled counters' tallies."""
        if frozen != self.frozen:
            self.frozen = frozen
            for p in self.pulled.values():
                p[2], p[3] = p[0]() - p[2], p[1]() - p[3]

    def pulled_values(self) -> Dict[str, int]:
        """The pulled counters whose count has moved, by key."""
        if self.frozen:
            return {k: v for k, (_, _, c, v) in self.pulled.items() if c}
        return {k: value() - v for k, (count, value, c, v)
                in self.pulled.items() if count() != c}

    # -- export ---------------------------------------------------------
    def to_dict(self) -> Dict[str, Dict]:
        """Deterministic snapshot: sorted keys, plain JSON types only."""
        counters = {k: c.to_dict() for k, c in self.counters.items()}
        counters.update(self.pulled_values())
        return {
            "counters": dict(sorted(counters.items())),
            "gauges": {k: g.to_dict()
                       for k, g in sorted(self.gauges.items())},
            "histograms": {k: h.to_dict()
                           for k, h in sorted(self.histograms.items())},
        }
