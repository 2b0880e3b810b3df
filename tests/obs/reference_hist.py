"""Latency histograms as they were before samples were buffered.

Every observation went straight through a per-sample Welford update
and a ``math.frexp`` bucket count, and the latency probes called
:meth:`observe` on both histograms of their pair.  :func:`patch_reference`
puts that histogram and those probes back, so
``tests/obs/test_reference_hist.py`` can require the same exports from
both.  :func:`percentile` is the exact quantile over sorted samples that
the histogram's bucketed one must pick the same rank as.
"""

import math

import repro.obs.metrics
from repro.obs import Observability
from repro.sim.trace import rank_of


def percentile(values, q):
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


class ReferenceTally:
    """Count/mean/min/max, one Welford step per observation."""

    def __init__(self, name=""):
        self.name = name
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, x):
        if not -math.inf < x < math.inf:
            raise ValueError(f"non-finite observation in tally {self.name!r}")
        self.count += 1
        delta = x - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (x - self._mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    @property
    def mean(self):
        return self._mean if self.count else math.nan


class ReferenceHistogram:
    """The per-sample :class:`repro.obs.LatencyHistogram`."""

    def __init__(self, name=""):
        self.name = name
        self.tally = ReferenceTally(name)
        self.buckets = {}
        self.zeros = 0

    def observe(self, us):
        if not 0.0 <= us < math.inf:
            raise ValueError(
                f"invalid latency for histogram {self.name!r}: {us}")
        self.tally.add(us)
        if us == 0.0:
            self.zeros += 1
            return
        _m, e = math.frexp(us)
        self.buckets[e] = self.buckets.get(e, 0) + 1

    @property
    def count(self):
        return self.tally.count

    def percentile(self, q):
        rank = rank_of(q, self.count)
        if rank < self.zeros:
            return 0.0
        seen = self.zeros
        for e in sorted(self.buckets):
            seen += self.buckets[e]
            if rank < seen:
                return float(2.0 ** e)
        raise AssertionError("histogram bucket counts disagree with tally")

    def to_dict(self):
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


def _verb_done(self, node, op, dst, t0, ev):
    if ev._ok:
        us = self.env.now - t0
        self.trace.emit("verb.complete", node=node, op=op, dst=dst, us=us)
        for h in (self._hists.get((op, node))
                  or self._pair((op, node), f"nic.{op}_us", node)):
            h.observe(us)
    else:
        self.trace.emit("verb.fail", node=node, op=op, dst=dst)
        self.metrics.counter("nic.verb_fails", node=node).inc()


def _latency_done(self, name, node, t0, ev):
    if ev._ok:
        us = self.env.now - t0
        for h in (self._hists.get((name, node))
                  or self._pair((name, node), name, node)):
            h.observe(us)


def patch_reference(monkeypatch):
    """Record the per-sample way for the rest of the test."""
    monkeypatch.setattr(repro.obs.metrics, "LatencyHistogram",
                        ReferenceHistogram)
    monkeypatch.setattr(Observability, "_verb_done", _verb_done)
    monkeypatch.setattr(Observability, "_latency_done", _latency_done)
