"""Observability: structured tracing, metrics, and protocol sanitizers.

:class:`Observability` bundles the three pieces — a ring-buffered
:class:`~repro.obs.tracer.Tracer`, a
:class:`~repro.obs.metrics.MetricsRegistry`, and the protocol
sanitizers — and installs them on an
:class:`~repro.sim.core.Environment` as ``env.obs``.

Zero cost when off: ``Environment.obs`` defaults to ``None`` and every
emission site in the library guards with ``if env.obs is not None`` (or
reads it once into a local).  A run without ``install()`` executes the
identical event sequence it always did — verified by the byte-identical
export test in ``tests/obs/test_zero_overhead.py``.

Typical use::

    cluster = Cluster(n_nodes=4, seed=7)
    obs = cluster.observe()              # install tracing + sanitizers
    ... run workload ...
    obs.check()                          # raise if any invariant broke
    obs.export_json("obs.json")          # deterministic snapshot
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from ..errors import ConfigError, SanitizerError
from .events import TAXONOMY, TraceEvent
from .fairness import FairnessTracker, jain_index
from .metrics import Counter, Gauge, LatencyHistogram, MetricsRegistry
from .sanitizers import (
    ALL_SANITIZERS,
    CacheAccountingSanitizer,
    FlowControlSanitizer,
    LockWordSanitizer,
    RpcAtMostOnceSanitizer,
    Sanitizer,
    SingleOwnerSanitizer,
)
from .tracer import Tracer, trace_chunks

__all__ = [
    "Observability",
    "TraceEvent",
    "TAXONOMY",
    "Tracer",
    "Counter",
    "FairnessTracker",
    "Gauge",
    "jain_index",
    "LatencyHistogram",
    "MetricsRegistry",
    "Sanitizer",
    "FlowControlSanitizer",
    "LockWordSanitizer",
    "RpcAtMostOnceSanitizer",
    "SingleOwnerSanitizer",
    "CacheAccountingSanitizer",
    "ALL_SANITIZERS",
]


class Observability:
    """Tracer + metrics + sanitizers for one Environment.

    Parameters
    ----------
    ring:
        Trace ring capacity (old events fall off; totals are kept).
    sanitize:
        Attach all protocol sanitizers to the trace stream.
    strict:
        Sanitizer mode: ``True`` raises :class:`SanitizerError` at the
        violating event; ``False`` collects violations for
        :meth:`check` / the JSON export.
    """

    def __init__(self, env, ring: int = 65536,
                 sanitize: bool = True, strict: bool = True):
        self.env = env
        self.trace = Tracer(env, capacity=ring)
        self.metrics = MetricsRegistry(env)
        #: (op, node) -> (cluster histogram, per-node histogram); avoids
        #: two string-keyed registry lookups per verb completion.
        self._verb_hists: Dict[tuple, tuple] = {}
        self.sanitizers: Dict[str, Sanitizer] = {}
        if sanitize:
            for cls in ALL_SANITIZERS:
                san = cls(strict=strict)
                san.attach(self.trace)
                self.sanitizers[san.NAME] = san

    # -- lifecycle ------------------------------------------------------
    def install(self) -> "Observability":
        """Become ``env.obs``; emission sites start firing."""
        if self.env.obs is not None and self.env.obs is not self:
            raise ConfigError("another Observability is already installed")
        self.env.obs = self
        return self

    def uninstall(self) -> None:
        if self.env.obs is self:
            self.env.obs = None

    # -- sanitizer verdicts ---------------------------------------------
    def violations(self) -> List[dict]:
        """All violations across sanitizers, in (time, name) order."""
        out = []
        for name in sorted(self.sanitizers):
            for v in self.sanitizers[name].violations:
                out.append(dict(v, sanitizer=name))
        out.sort(key=lambda v: (v["t"], v["sanitizer"]))
        return out

    @property
    def clean(self) -> bool:
        return all(s.clean for s in self.sanitizers.values())

    def check(self) -> None:
        """Raise if any sanitizer collected a violation (collect mode)."""
        bad = self.violations()
        if bad:
            head = bad[0]
            raise SanitizerError(
                f"{len(bad)} sanitizer violation(s); first: "
                f"[{head['sanitizer']}] t={head['t']:.3f} {head['msg']}")

    # -- verb instrumentation (called from repro.net.nic) ---------------
    def verb(self, nic, op: str, dst: int, nbytes: int, ev) -> None:
        """Trace a one-sided verb and record its completion latency.

        The completion probe is marked ``_obs_passive`` so it does not
        count as a watcher of the verb process — an unobserved verb
        failure still surfaces exactly as it does without obs installed.
        """
        node = nic.node.id
        t0 = self.env.now
        self.trace.emit("verb.issue", node=node,
                        op=op, dst=dst, nbytes=nbytes)

        def done(e):
            if e.ok:
                us = self.env.now - t0
                self.trace.emit("verb.complete", node=node,
                                op=op, dst=dst, us=us)
                hists = self._verb_hists.get((op, node))
                if hists is None:
                    hists = self._verb_hists[(op, node)] = (
                        self.metrics.histogram(f"nic.{op}_us"),
                        self.metrics.histogram(f"nic.{op}_us", node=node))
                hists[0].observe(us)
                hists[1].observe(us)
            else:
                self.trace.emit("verb.fail", node=node, op=op, dst=dst)
                self.metrics.counter("nic.verb_fails", node=node).inc()

        done._obs_passive = True
        ev.add_callback(done)

    # -- export ---------------------------------------------------------
    def to_dict(self) -> dict:
        """Deterministic snapshot: JSON types only, stable ordering."""
        return {
            "sim_now_us": self.env.now,
            "events": {
                "emitted": self.trace.emitted,
                "buffered": len(self.trace),
                "by_type": self.trace.counts(),
            },
            "metrics": self.metrics.to_dict(),
            "sanitizers": {name: self.sanitizers[name].to_dict()
                           for name in sorted(self.sanitizers)},
        }

    def trace_dict(self) -> dict:
        """Full-event trace snapshot for offline replay (``repro.verify``).

        Unlike :meth:`to_dict` (counts only, bounded size) this carries
        every buffered event verbatim, so it is opt-in.  ``emitted`` >
        ``len(events)`` means the ring overflowed and the trace is not
        replayable end to end — the verify layer refuses such traces.
        """
        return {
            "format": "repro-trace-v1",
            "sim_now_us": self.env.now,
            "emitted": self.trace.emitted,
            "events": self.trace.snapshot(),
        }

    def export_trace_json(self, path: Optional[str] = None) -> str:
        """Serialize :meth:`trace_dict` (deterministic, sorted keys)."""
        doc = self.trace_dict()
        text = "".join(trace_chunks(doc, doc["events"].json_rows))
        if path is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        return text

    def export_json(self, path: Optional[str] = None) -> str:
        """Serialize :meth:`to_dict`; optionally write it to ``path``.

        Same seed, same workload => byte-identical output (guarded by
        ``tests/obs/test_determinism.py``): keys are sorted, no wall
        clock, no object ids.
        """
        text = json.dumps(self.to_dict(), sort_keys=True, indent=2)
        if path is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        return text

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "clean" if self.clean else "VIOLATIONS"
        return (f"<Observability events={self.trace.emitted} "
                f"sanitizers={len(self.sanitizers)} {state}>")
