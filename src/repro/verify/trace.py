"""Trace loading and the oracle base class.

The verify layer consumes ``repro-trace-v1`` documents — the full-event
export produced by :meth:`repro.obs.Observability.trace_dict` — and
replays them through *oracles*: sequential reference models that flag
the first divergence from a protocol's contract.

An oracle is fed events in emission order by :func:`replay`.  Checks
that need the whole trace (e.g. a get justified by a put whose
completion event appears later because the two overlapped in simulated
time) run in :meth:`Oracle.finish`.
"""

from __future__ import annotations

import json
import math
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..errors import ConfigError
from ..obs.events import TraceEvent
from ..obs.tracer import RouteTable

__all__ = ["TRACE_FORMAT", "TraceView", "Oracle", "replay",
           "replay_fresh"]

TRACE_FORMAT = "repro-trace-v1"


class TraceView:
    """An event list plus provenance, as the oracles consume it."""

    def __init__(self, events: Sequence[TraceEvent], emitted: int = None,
                 meta: Optional[Dict[str, Any]] = None):
        self.events = events if isinstance(events, tuple) else list(events)
        self.emitted = len(self.events) if emitted is None else emitted
        self.meta = dict(meta or {})

    @property
    def complete(self) -> bool:
        """False when the tracer ring overflowed: events fell off the
        front and the trace cannot be replayed end to end."""
        return self.emitted == len(self.events)

    def require_complete(self) -> "TraceView":
        if not self.complete:
            raise ConfigError(
                f"trace is incomplete: {self.emitted} events emitted but "
                f"only {len(self.events)} buffered (raise the obs ring "
                f"capacity to capture the full run)")
        return self

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_obs(cls, obs) -> "TraceView":
        return cls(obs.trace.snapshot(), emitted=obs.trace.emitted,
                   meta={"sim_now_us": obs.env.now})

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "TraceView":
        if not isinstance(doc, dict):
            raise ConfigError(f"trace is a {type(doc).__name__}, not an object")
        fmt = doc.get("format")
        if fmt != TRACE_FORMAT:
            raise ConfigError(
                f"not a {TRACE_FORMAT} document (format={fmt!r}); "
                f"export one with Observability.export_trace_json / "
                f"`repro check run <row> --export PATH`")
        if not isinstance(doc.get("events"), list):
            raise ConfigError("trace document has no 'events' list")
        events = []
        for idx, row in enumerate(doc["events"]):
            if not (isinstance(row, list) and len(row) == 4
                    and isinstance(row[3], dict)):
                raise ConfigError(f"trace event #{idx} is not a [t, node, "
                                  f"etype, fields] row: {row!r}")
            t, node, etype, fields = row
            if not ((type(t) is int or type(t) is float and math.isfinite(t))
                    and type(node) is int and isinstance(etype, str)):
                raise ConfigError(f"trace event #{idx} needs a finite t, an "
                                  f"int node and a str etype: {row!r}")
            events.append(TraceEvent(t, node, etype, dict(fields)))
        return cls(events, emitted=doc.get("emitted", len(events)),
                   meta={"sim_now_us": doc.get("sim_now_us")})

    @classmethod
    def load(cls, path: str) -> "TraceView":
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read trace {path}: {exc}")
        except ValueError as exc:
            raise ConfigError(f"corrupt trace {path}: {exc}")
        return cls.from_dict(doc)

    def __len__(self) -> int:
        return len(self.events)


class Oracle:
    """Sequential reference model replaying one subsystem's events.

    Subclasses set ``NAME`` and ``PREFIXES`` (dotted-type prefixes they
    consume), implement :meth:`feed` and optionally :meth:`finish`.
    ``checked`` counts consumed events so a suite can prove an oracle
    actually saw traffic (a clean verdict over zero events is vacuous).
    """

    NAME = "oracle"
    PREFIXES: Sequence[str] = ()

    def __init__(self):
        self.violations: List[Dict[str, Any]] = []
        self.checked = 0

    # -- replay hooks ---------------------------------------------------
    def feed(self, idx: int, ev: TraceEvent) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Called once after the last event (end-of-trace checks)."""

    # -- verdict --------------------------------------------------------
    def flag(self, idx: Optional[int], ev: Optional[TraceEvent],
             msg: str, **scope) -> None:
        self.violations.append({
            "oracle": self.NAME,
            "index": idx,
            "t": None if ev is None else ev.t,
            "node": None if ev is None else ev.node,
            "etype": None if ev is None else ev.etype,
            "msg": msg,
            "scope": dict(scope),
        })

    def to_dict(self) -> Dict[str, Any]:
        return {"checked": self.checked,
                "violations": list(self.violations)}


def replay(view: TraceView,
           oracles: Sequence[Oracle]) -> List[Dict[str, Any]]:
    """Feed every event once to each oracle whose ``PREFIXES`` match it;
    return the combined violation list ordered by trace position."""
    routes = RouteTable([(tuple(o.PREFIXES), o) for o in oracles])
    try:
        for idx, ev in enumerate(view.events):
            for oracle in routes[ev.etype]:
                oracle.checked += 1
                oracle.feed(idx, ev)
    except (KeyError, TypeError, ValueError) as exc:
        # a loaded trace's rows are shaped, but their fields are the
        # file's: name the row an oracle could not read
        raise ConfigError(f"trace event #{idx} ({ev.etype}) is malformed: "
                          f"{type(exc).__name__} {exc}") from None
    for oracle in oracles:
        oracle.finish()
    out = []
    for oracle in oracles:
        out.extend(oracle.violations)
    out.sort(key=lambda v: (v["index"] is None,
                            v["index"] if v["index"] is not None else 0))
    return out


def replay_fresh(view: TraceView,
                 factories: Sequence[Callable[[], Oracle]]):
    """Replay with freshly constructed oracles; returns (oracles,
    violations).  The shrinker re-runs this on candidate sub-traces."""
    oracles = [f() for f in factories]
    return oracles, replay(view, oracles)
