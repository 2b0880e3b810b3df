"""Ring-buffered structured event tracer.

The tracer is the single funnel every instrumented subsystem emits
through.  Events land in a bounded ring (old events fall off the back;
``emitted`` keeps the true total) and are simultaneously pushed to any
*subscribers* — callables registered for a dotted-type prefix, routed
per event type.  Strict-mode oracles are subscribers; so are tests
that want to watch one subsystem without buffering everything.

Emission sites never construct a tracer themselves: they guard on
``env.obs`` and call ``env.obs.trace.emit(...)`` only when observability
is installed, so a disabled run pays one attribute load per site.
"""

from __future__ import annotations

import json
from collections import deque
from functools import cached_property
from itertools import repeat
from typing import Any, Callable, Dict, Iterator, List, Sequence

from .events import TraceEvent

__all__ = ["Tracer", "RouteTable", "TraceSnapshot", "trace_chunks"]

_new_row = tuple.__new__


class RouteTable(dict):
    """Maps an etype to the consumers whose prefix (a ``str.startswith``
    argument) it matches, on first lookup; new consumers, new table."""

    def __init__(self, subs: Sequence[tuple]):
        self.subs = tuple(subs)

    def __missing__(self, etype: str) -> tuple:
        return self.setdefault(etype, tuple(c for p, c in self.subs
                                            if etype.startswith(p)))


class Tracer:
    """Bounded in-memory trace with prefix-filtered subscriptions,
    notified synchronously in registration order; a subscribe, even
    inside a callback, applies from the next emit on."""

    def __init__(self, env, capacity: int = 65536):
        if capacity <= 0:
            raise ValueError(f"tracer capacity must be positive: {capacity}")
        self.env = env
        self.ring: deque = deque(maxlen=capacity)
        self.emitted = 0
        self._routes = RouteTable(())  # over (prefix, callback) pairs
        self._snap, self._snap_at = None, -1

    # -- emission -------------------------------------------------------
    def emit(self, etype: str, node: int = -1, **fields: Any) -> TraceEvent:
        """Record one event at the current simulated time."""
        # tuple.__new__ builds the row in C; TraceEvent.__new__ is Python
        ev = _new_row(TraceEvent, (self.env.now, node, etype, fields))
        self.ring.append(ev)
        self.emitted += 1
        for fn in self._routes[etype]:
            fn(ev)
        return ev

    # -- subscription ---------------------------------------------------
    def subscribe(self, fn: Callable[[TraceEvent], None],
                  prefix="") -> None:
        """Call ``fn`` for every future event whose type starts with
        ``prefix``, a string or a tuple of them (empty = everything)."""
        self._routes = RouteTable(self._routes.subs + ((prefix, fn),))

    # -- queries --------------------------------------------------------
    def snapshot(self) -> "TraceSnapshot":
        """The buffered events; one object until the next emit."""
        if self._snap_at != self.emitted:
            self._snap, self._snap_at = TraceSnapshot(self.ring), self.emitted
        return self._snap

    def select(self, prefix: str = "", node: int = None) -> List[TraceEvent]:
        """Buffered events matching a type prefix (and node, if given)."""
        return [ev for ev in self.ring
                if ev.etype.startswith(prefix)
                and (node is None or ev.node == node)]

    def counts(self) -> Dict[str, int]:
        """Buffered event count by type (sorted for stable output)."""
        out: Dict[str, int] = {}
        for ev in self.ring:
            out[ev.etype] = out.get(ev.etype, 0) + 1
        return dict(sorted(out.items()))

    def __len__(self) -> int:
        return len(self.ring)

    def __iter__(self):
        return iter(self.ring)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Tracer emitted={self.emitted} "
                f"buffered={len(self.ring)}/{self.ring.maxlen}>")


_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_ROW = json.encoder.c_make_encoder(  # _ENCODE's C encoder, built once
    None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
    None, ":", ",", True, False, True)


class TraceSnapshot(tuple):
    """Immutable ``[t, node, etype, fields]`` rows, encoded at most once."""

    @cached_property
    def json_rows(self) -> List[str]:
        return list(map("".join, map(_ROW, self, repeat(0))))


def trace_chunks(doc: Dict[str, Any], rows: List[str]) -> Iterator[str]:
    """The compact, key-sorted JSON of ``dict(doc, events=...)`` in pieces
    of up to 4096 rows, the events written from ``rows`` (encoded)."""
    head, key, tail = _ENCODE(dict(doc, events=())).partition('"events":[')
    yield head + key
    for i in range(0, len(rows), 4096):
        yield ("," if i else "") + ",".join(rows[i:i + 4096])
    yield tail
