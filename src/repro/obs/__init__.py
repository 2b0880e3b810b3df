"""Observability: structured tracing and metrics, judged by the oracles.

:class:`Observability` bundles a ring-buffered
:class:`~repro.obs.tracer.Tracer` and a
:class:`~repro.obs.metrics.MetricsRegistry` and installs them on an
:class:`~repro.sim.core.Environment` as ``env.obs``.  The run is judged
by the :mod:`repro.verify` oracles, replayed over the ring after the
fact.

Zero cost when off: ``Environment.obs`` defaults to ``None`` and every
emission site in the library guards with ``if env.obs is not None`` (or
reads it once into a local).  A run without ``install()`` executes the
identical event sequence it always did — verified by the byte-identical
export test in ``tests/obs/test_zero_overhead.py``.

Typical use::

    cluster = Cluster(n_nodes=4, seed=7)
    obs = cluster.observe()              # tracing + metrics
    ... run workload ...
    obs.check()                          # replay: raise on any violation
    obs.export_trace_json("obs.json")    # deterministic trace document
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional

from ..errors import ConfigError, SanitizerError
from .events import TAXONOMY, TraceEvent
from .fairness import FairnessTracker, jain_index
from .metrics import (FOLD_AT, Counter, Gauge, LatencyHistogram,
                      MetricsRegistry)
from .tracer import Tracer, trace_chunks

__all__ = [
    "Observability",
    "Probe",
    "TraceEvent",
    "TAXONOMY",
    "Tracer",
    "Counter",
    "FairnessTracker",
    "Gauge",
    "jain_index",
    "LatencyHistogram",
    "MetricsRegistry",
]


class Probe(partial):
    """A callback that observes an event without watching it: a failure
    only probes see still surfaces, as with obs off (``_obs_passive``)."""

    __slots__ = ()
    _obs_passive = True


class Observability:
    """Tracer + metrics for one Environment.

    Parameters
    ----------
    ring:
        Trace ring capacity (old events fall off; totals are kept).
    strict, sanitize:
        Accepted at ``False`` and ``True`` only, for callers that still
        pass them: a run is always judged, by :meth:`violations`
        replaying the ring, and no oracle is attached to the live trace.
    """

    def __init__(self, env, ring: int = 65536, strict: bool = False,
                 sanitize: bool = True):
        if sanitize is not True or strict is not False:
            raise ConfigError("sanitize=False and strict=True are gone: "
                              "a run is always judged, by replaying its "
                              "trace")
        self.env = env
        #: what a repeat ``Cluster.observe`` must not contradict
        self.options = dict(ring=ring, strict=strict)
        self.trace = Tracer(env, capacity=ring)
        self.metrics = MetricsRegistry(env)
        #: (verb op or latency name, node) -> (cluster, per-node)
        #: histogram: no registry lookup per completion
        self._hists: Dict[tuple, tuple] = {}

    # -- lifecycle ------------------------------------------------------
    def install(self) -> "Observability":
        """Become ``env.obs``; emission sites start firing."""
        if self.env.obs is not None and self.env.obs is not self:
            raise ConfigError("another Observability is already installed")
        self.env.obs = self
        return self

    # -- verdicts -------------------------------------------------------
    def violations(self) -> List[dict]:
        """Replay the ring through fresh oracles; their violations, in
        trace order.  An overflowed ring raises :class:`ConfigError`."""
        from ..verify import ALL_ORACLES, TraceView, replay_fresh
        view = TraceView.from_obs(self).require_complete()
        return replay_fresh(view, ALL_ORACLES)[1]

    def check(self) -> None:
        """Raise :class:`SanitizerError` if the replay finds a violation."""
        bad = self.violations()
        if bad:
            head = bad[0]
            raise SanitizerError(f"{len(bad)} violation(s); first: "
                                 f"[{head['oracle']}] {head['msg']}")

    # -- latency probes ------------------------------------------------
    def verb(self, nic, op: str, dst: int, nbytes: int, ev) -> None:
        """Trace a one-sided verb and probe its latency (``nic.<op>_us``)."""
        node = nic.node.id
        self.trace.emit("verb.issue", node=node,
                        op=op, dst=dst, nbytes=nbytes)
        # a verb's completion event is fresh: it has a callback list
        ev.callbacks.append(
            Probe(self._verb_done, node, op, dst, self.env.now))

    def _verb_done(self, node: int, op: str, dst: int, t0: float,
                   ev) -> None:
        if ev._ok:
            us = self.env.now - t0
            self.trace.emit("verb.complete", node=node,
                            op=op, dst=dst, us=us)
            # simulated time never runs back: ``us`` needs no check
            for h in (self._hists.get((op, node))
                      or self._pair((op, node), f"nic.{op}_us", node)):
                h.samples.append(us)
                if len(h.samples) >= FOLD_AT:
                    h.fold()
        else:
            self.trace.emit("verb.fail", node=node, op=op, dst=dst)
            self.metrics.counter("nic.verb_fails", node=node).inc()

    def latency(self, ev, name: str, node: int) -> None:
        """Probe ``ev`` into histograms ``name`` and ``name@n<node>``."""
        ev.add_callback(Probe(self._latency_done, name, node, self.env.now))

    def _latency_done(self, name: str, node: int, t0: float, ev) -> None:
        if ev._ok:
            us = self.env.now - t0
            for h in (self._hists.get((name, node))
                      or self._pair((name, node), name, node)):
                h.samples.append(us)
                if len(h.samples) >= FOLD_AT:
                    h.fold()

    def _pair(self, key: tuple, name: str, node: int) -> tuple:
        pair = self._hists[key] = (self.metrics.histogram(name),
                                   self.metrics.histogram(name, node=node))
        return pair

    # -- export ---------------------------------------------------------
    def trace_dict(self) -> dict:
        """Full-event trace snapshot for offline replay (``repro.verify``).

        Unlike ``metrics.to_dict()`` (counts only, bounded size) this
        carries every buffered event verbatim, so it is opt-in.
        ``emitted`` > ``len(events)`` means the ring overflowed and the
        trace is not replayable end to end — the verify layer refuses
        such traces.
        """
        return {
            "format": "repro-trace-v1",
            "sim_now_us": self.env.now,
            "emitted": self.trace.emitted,
            "events": self.trace.snapshot(),
        }

    def export_trace_json(self, path: Optional[str] = None,
                          **extra) -> str:
        """Serialize :meth:`trace_dict` plus ``extra`` top-level keys
        (deterministic, sorted keys)."""
        doc = dict(self.trace_dict(), **extra)
        text = "".join(trace_chunks(doc, doc["events"].json_rows))
        if path is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        return text

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Observability events={self.trace.emitted} "
                f"{self.options}>")
