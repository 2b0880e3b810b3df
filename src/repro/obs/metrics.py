"""Counters and log-bucketed latency histograms.

One :class:`MetricsRegistry` lives per :class:`~repro.sim.core.Environment`
(installed as part of ``env.obs``).  Metrics are named with dotted paths
(``nic.rdma_read_us``) and optionally scoped to a node — the registry
key is ``name`` or ``name@n<node>`` — so per-node and cluster-wide views
coexist without double counting: callers pick the scope at the call
site.

A counter that would copy a tally the program keeps anyway is *pulled*
(:meth:`MetricsRegistry.pull`): read at export, not pushed per event.

:class:`LatencyHistogram` buckets observations by power of two (the
exponent from :func:`math.frexp`), giving quantiles with at-most-2x
relative error.  It buffers at most :data:`FOLD_AT` raw samples and
folds them into its tally and buckets on read or at that bound, so its
memory is bounded by the fold and recording one sample is one append.
Its ``percentile`` uses the nearest-rank rule
(:func:`repro.sim.trace.rank_of`), so it reports the *same rank* as an
exact percentile over the sorted raw samples — the two differ only in
bucket rounding, never in which observation is chosen.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Callable, Dict, List, Optional

from ..errors import ConfigError
from ..sim.trace import Tally, rank_of

__all__ = ["Counter", "LatencyHistogram", "MetricsRegistry"]

#: samples a :class:`LatencyHistogram` buffers before folding them in
FOLD_AT = 1024

_EXPONENT = itemgetter(1)  # of a math.frexp pair


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


class LatencyHistogram:
    """Log2-bucketed distribution of simulated-µs latencies.

    Buckets are keyed by the binary exponent ``e`` such that the bucket
    covers ``[2**(e-1), 2**e)``; an observation ``x`` lands in
    ``math.frexp(x)[1]`` (zero gets its own bucket).  Reported
    percentiles are bucket *upper bounds* — a conservative estimate
    within 2x of the true value, which is plenty for the order-of-
    magnitude comparisons the paper's figures make.

    Observations are buffered in ``samples`` and folded into the tally
    and buckets, in arrival order, when the histogram is read or the
    buffer reaches :data:`FOLD_AT`.  A probe that has already checked
    its sample may append to ``samples`` itself and fold at the bound.
    """

    __slots__ = ("name", "samples", "_tally", "_buckets", "_zeros")

    def __init__(self, name: str = ""):
        self.name = name
        self.samples: List[float] = []
        self._tally = Tally(name)
        self._buckets: Dict[int, int] = {}
        self._zeros = 0

    # -- recording ------------------------------------------------------
    def observe(self, us: float) -> None:
        if not 0.0 <= us < math.inf:  # negative, NaN or infinite
            raise ValueError(
                f"invalid latency for histogram {self.name!r}: {us}")
        samples = self.samples
        samples.append(us)
        if len(samples) >= FOLD_AT:
            self.fold()

    def fold(self) -> None:
        """Move the buffered samples into the tally and buckets."""
        samples = self.samples
        if not samples:
            return
        self._tally.extend(samples)  # raises on a non-finite sample
        buckets = self._buckets
        exps = list(map(_EXPONENT, map(math.frexp, samples)))
        for e in set(exps):  # a few dozen exponents, counted in C
            buckets[e] = buckets.get(e, 0) + exps.count(e)
        zeros = samples.count(0.0)
        if zeros:  # frexp(0.0) has exponent 0, as all of [0.5, 1) has
            self._zeros += zeros
            buckets[0] -= zeros
            if not buckets[0]:
                del buckets[0]
        samples.clear()

    # -- reads (each folds first) --------------------------------------
    @property
    def tally(self) -> Tally:
        self.fold()
        return self._tally

    @property
    def count(self) -> int:
        return self.tally.count

    # -- quantiles ------------------------------------------------------
    def percentile(self, q: float) -> float:
        """Nearest-rank percentile, reported as the bucket upper bound."""
        n = self.count
        rank = rank_of(q, n)  # raises on empty / out-of-range q
        if rank < self._zeros:
            return 0.0
        seen = self._zeros
        buckets = self._buckets
        for e in sorted(buckets):
            seen += buckets[e]
            if rank < seen:
                return float(2.0 ** e)
        raise AssertionError("histogram bucket counts disagree with tally")

    # -- export ---------------------------------------------------------
    def to_dict(self) -> Dict[str, Optional[float]]:
        self.fold()
        tally = self._tally
        if tally.count == 0:
            return {"count": 0, "mean_us": None, "min_us": None,
                    "max_us": None, "p50_us": None, "p95_us": None,
                    "p99_us": None}
        return {
            "count": tally.count,
            "mean_us": tally.mean,
            "min_us": tally.min,
            "max_us": tally.max,
            "p50_us": self.percentile(50),
            "p95_us": self.percentile(95),
            "p99_us": self.percentile(99),
        }


def _key(name: str, node: Optional[int]) -> str:
    return name if node is None else f"{name}@n{node}"


class MetricsRegistry:
    """All metrics of one Environment, keyed ``name`` / ``name@n<node>``."""

    def __init__(self, env):
        self.env = env
        self.counters: Dict[str, Counter] = {}
        self.histograms: Dict[str, LatencyHistogram] = {}
        #: key -> [count, value, c, v]: (c, v) is (count(), value())
        #: at registration
        self.pulled: Dict[str, list] = {}

    # -- accessors (create on first use) --------------------------------
    def counter(self, name: str, node: Optional[int] = None) -> Counter:
        k = _key(name, node)
        c = self.counters.get(k)
        if c is None:
            c = self.counters[k] = Counter(k)
        return c

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

    def pulled_values(self) -> Dict[str, int]:
        """The pulled counters whose count has moved, by key."""
        return {k: value() - v for k, (count, value, c, v)
                in self.pulled.items() if count() != c}

    # -- export ---------------------------------------------------------
    def to_dict(self) -> Dict[str, Dict]:
        """Deterministic snapshot: sorted keys, plain JSON types only."""
        counters = {k: c.to_dict() for k, c in self.counters.items()}
        counters.update(self.pulled_values())
        return {
            "counters": dict(sorted(counters.items())),
            "histograms": {k: h.to_dict()
                           for k, h in sorted(self.histograms.items())},
        }
