"""Event loop, events and generator-based processes.

The kernel is deliberately small and deterministic:

* :class:`Environment` owns the clock (``now``, a plain attribute that
  only the drains write) and the agenda.
* :class:`Event` is a one-shot occurrence that carries a value (or an
  exception) and a list of callbacks.
* :class:`Process` wraps a generator.  Each ``yield`` must produce an
  :class:`Event`; the process resumes when that event fires.  The process
  itself is an event that fires when the generator returns, so processes
  compose (``yield env.process(...)`` joins a child).

Determinism: events scheduled for the same timestamp fire in scheduling
order (a monotonically increasing sequence number breaks ties), so a
seeded simulation always replays identically.

One agenda, one drain (DESIGN.md §9): a binary heap of ``(when, seq,
event, value)`` plus a FIFO deque for entries scheduled *at the current
time* (triggered events, process start calls, zero-delay timeouts).
Every schedule — heap or deque — consumes one number from the shared
sequence counter, and the drain pops whichever of (deque head, heap
head) has the globally smallest ``(when, seq)``, so the total firing
order is exactly the heap-only order.  The drain behind :meth:`run` and
:meth:`Environment.run_until_event` also dispatches consecutive
same-instant heap entries as one batch: one head inspection plus a
tight loop instead of a full merge per entry.  The heap-only kernel it
reproduces is kept, frozen, as ``tests/sim/reference_kernel.py``.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional


__all__ = [
    "SimulationError",
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "settle",
    "Environment",
]


class SimulationError(Exception):
    """Raised for kernel misuse (double trigger, yield of non-event...)."""


# Sentinel distinguishing "no value yet" from a legitimate ``None`` value.
_PENDING = object()
# Sentinel for agenda entries whose event value was set at trigger time.
_ALREADY = object()
# Sentinel marking an agenda entry that carries a bare callable instead
# of an Event: no allocation, no callback list, just ``fn()`` at fire
# time.  Used by the net-layer fast paths for their internal stages.
_CALL = object()

_INF = float("inf")


def _bad_delay(delay: float) -> "SimulationError":
    kind = "negative" if delay < 0 else "non-finite"
    return SimulationError(f"{kind} timeout delay: {delay}")


class Event:
    """A one-shot occurrence.

    An event is *triggered* once :meth:`succeed` or :meth:`fail` is called;
    its callbacks then run from the event loop at the current simulation
    time.  Callbacks receive the event itself.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list] = []
        self._value: Any = _PENDING
        self._ok = True

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not have fired yet)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._value = value
        # _queue_event's body, flattened: one frame per trigger
        env = self.env
        seq = env._seq = env._seq + 1
        env._imm.append((seq, self, _ALREADY))
        return self

    def fail(self, exc: BaseException) -> "Event":
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._value = exc
        self.env._queue_event(self)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        if self.callbacks is None:
            # Already processed: run at once so late subscribers don't hang.
            fn(self)
        else:
            self.callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


#: the target of an unbounded drain: an event no entry can process
_NEVER = Event(None)


class Timeout(Event):
    """An event that fires ``delay`` microseconds after creation.

    Only :meth:`Environment.timeout` builds one, field by field.
    """

    __slots__ = ("delay",)


class Process(Event):
    """A running generator; also an event that fires when it returns."""

    __slots__ = ("_gen", "name")

    def __init__(self, env: "Environment",
                 gen: Generator[Event, Any, Any],
                 name: str = ""):
        if not hasattr(gen, "send"):
            raise SimulationError(
                f"process requires a generator, got {type(gen).__name__}")
        self.env = env
        self.callbacks: Optional[list] = []
        self._value: Any = _PENDING
        self._ok = True
        self._gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        # Kick off at the current time with a bare call to _resume (no
        # event), pushed inline on the queue and seq a trigger would take.
        seq = env._seq = env._seq + 1
        env._imm.append((seq, self._resume, _CALL))

    # -- internal ------------------------------------------------------
    def _resume(self, event: Optional[Event] = None) -> None:
        # Hot path: one resume per yield of every process.  The
        # ``triggered`` accessor is inlined to a plain slot read.  The
        # start call passes no event.
        if self._value is not _PENDING:
            return
        try:
            if event is None:
                nxt = self._gen.send(None)
            elif event._ok:
                nxt = self._gen.send(event._value)
            else:
                nxt = self._gen.throw(event._value)
        except StopIteration as stop:
            self._value = stop.value
            # the process's own trigger, flattened like succeed()'s push
            env = self.env
            seq = env._seq = env._seq + 1
            env._imm.append((seq, self, _ALREADY))
            return
        except BaseException as exc:
            self._ok = False
            self._value = exc
            self.env._queue_event(self)
            if all(getattr(cb, "_obs_passive", False)
                   for cb in self.callbacks):
                # Nobody is watching this process (observability
                # completion probes don't count as watchers): surface
                # the crash instead of swallowing it.
                raise
            return
        # Attribute reads reject a non-event: no isinstance call per yield.
        try:
            env = nxt.env
            cbs = nxt.callbacks
        except AttributeError:
            raise SimulationError(
                f"process {self.name!r} yielded non-event {nxt!r}") from None
        if env is not self.env:
            raise SimulationError("yielded event belongs to another Environment")
        if cbs is None:
            # Yielded an already-processed event: resume immediately,
            # same as Event.add_callback would.
            self._resume(nxt)
        else:
            cbs.append(self._resume)


class _Condition(Event):
    """Base for AnyOf / AllOf composite events."""

    __slots__ = ("events", "_remaining")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        for ev in self.events:
            if ev.env is not env:
                raise SimulationError("condition mixes environments")
        self._remaining = len(self.events)
        if not self.events:
            self.succeed({})
        else:
            for ev in self.events:
                ev.add_callback(self._on_child)

    def _collect(self) -> dict:
        return {ev: ev._value for ev in self.events if ev.triggered}

    def _on_child(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AnyOf(_Condition):
    """Fires when the first of its children fires (value: dict of done)."""

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
        else:
            self.succeed(self._collect())


class AllOf(_Condition):
    """Fires when all children have fired (value: dict event -> value)."""

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._collect())


class _Join(Event):
    """:func:`settle`'s wait: one callback on every pending child; the
    last one to fire dispatches the join's callbacks inline."""

    __slots__ = ("events", "_remaining")

    def _on_child(self, _event: Event) -> None:
        self._remaining -= 1
        if self._remaining == 0:
            self._value = [(ev._ok, ev._value) for ev in self.events]
            callbacks, self.callbacks = self.callbacks, None
            for cb in callbacks:
                cb(self)


def settle(events: Iterable[Event]):
    """Generator helper: wait for *all* of ``events``, report each.

    ``results = yield from settle(events)`` returns one
    ``(ok, value_or_exception)`` per event, in order.  Unlike
    :class:`AllOf` it does not fail fast — a caller that posted k verbs
    learns which landed — and it resumes the waiter once: every pending
    child is watched by one join, and the last child to fire resumes
    the waiter from inside its own callback dispatch, with no agenda
    entry of the join's own.  Children already processed cost no wait
    at all.  A close of the waiter propagates; the children stay
    watched, so their failures are not crashes.
    """
    events = list(events)
    pending = 0
    for ev in events:
        if ev.env is not events[0].env:
            raise SimulationError("settle mixes environments")
        pending += ev.callbacks is not None
    if not pending:
        return [(ev._ok, ev._value) for ev in events]
    join = _Join(events[0].env)
    join.events = events
    join._remaining = pending
    on_child = join._on_child
    for ev in events:
        if ev.callbacks is not None:
            ev.callbacks.append(on_child)
    return (yield join)


class Environment:
    """The simulation clock and agenda."""

    #: Observability handle (:class:`repro.obs.Observability`), installed
    #: by ``Observability.install()``.  ``None`` means tracing/metrics are
    #: off: every emission site guards on this attribute, the same inert
    #: pattern :class:`repro.faults.FaultInjector` uses on the fabric, so
    #: a disabled run pays one attribute load per hook and nothing else,
    #: not even building the hook's arguments (fingerprints, key lists).
    obs = None

    def __init__(self):
        #: current simulation time in microseconds, from 0; only the
        #: drain writes it, everything else reads the plain attribute
        self.now = 0.0
        #: the agenda: a binary heap of ``(when, seq, event, value)``.
        self._heap: list = []
        #: FIFO of ``(seq, event, value)`` entries scheduled at the
        #: current time; merged with the heap by seq in :meth:`_drain`.
        self._imm: deque = deque()
        self._seq = 0
        self._id_streams: dict = {}

    # -- identifiers ----------------------------------------------------
    def next_id(self, stream: str = "default") -> int:
        """Monotonically increasing id from a named per-environment stream.

        Scoped to this Environment so that two simulations in one process
        never share counters (message ids, request ids) — a requirement
        for reproducibility.
        """
        n = self._id_streams.get(stream, 0) + 1
        self._id_streams[stream] = n
        return n

    # -- factories ------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        # Flattened Timeout construction: one call, no __init__ chain —
        # this is the single hottest allocation site in the kernel
        # benchmarks.  The chained comparison also rejects NaN, which
        # would silently corrupt the heap order.
        if not 0 <= delay < _INF:
            raise _bad_delay(delay)
        ev = Timeout.__new__(Timeout)
        ev.env = self
        ev.callbacks = []
        ev._value = _PENDING
        ev._ok = True
        ev.delay = delay
        now = self.now
        when = now + delay
        seq = self._seq = self._seq + 1
        if when == now:
            self._imm.append((seq, ev, value))
        else:
            heappush(self._heap, (when, seq, ev, value))
        return ev

    def process(self, gen: Generator[Event, Any, Any],
                name: str = "") -> Process:
        return Process(self, gen, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling -----------------------------------------------------
    # These three are the whole seam between the rest of the package and
    # the agenda: everything that ever fires was pushed by one of them or
    # by a flattened copy of their push — :meth:`timeout`,
    # :meth:`Event.succeed`, a starting or returning :class:`Process`,
    # ``Resource.acquire``'s grant, ``CPU.run`` and ``CPU._update``,
    # ``Fabric._arrival`` and the NIC's three verb legs.  A copy reads
    # ``env._imm`` at every push: the reference kernel replaces it.
    def _schedule_at(self, when: float, event: Event,
                     value: Any = _ALREADY) -> None:
        seq = self._seq = self._seq + 1
        if when == self.now:
            self._imm.append((seq, event, value))
        else:
            heappush(self._heap, (when, seq, event, value))

    def _queue_event(self, event: Event) -> None:
        """Schedule a triggered event's callbacks at the current time."""
        seq = self._seq = self._seq + 1
        self._imm.append((seq, event, _ALREADY))

    def _schedule_call(self, when: float, fn: Callable[[], None]) -> None:
        """Schedule a bare callable — the allocation-free agenda entry.

        Only for internal stages whose sole consumer is ``fn`` itself
        (nobody can add callbacks or yield on it).  The net-layer fast
        paths use this for link release / wire arrival / service stages.
        """
        seq = self._seq = self._seq + 1
        if when == self.now:
            self._imm.append((seq, fn, _CALL))
        else:
            heappush(self._heap, (when, seq, fn, _CALL))

    # -- execution ------------------------------------------------------
    def peek(self) -> float:
        """Time of the next agenda entry, or ``inf`` if empty."""
        if self._imm:
            return self.now
        return self._heap[0][0] if self._heap else _INF

    def run(self, until: Optional[float] = None) -> float:
        """Run until the agenda is empty or ``until`` is reached.
        Returns ``now``.  Time never moves backwards: a bound before
        ``now`` (or NaN) raises :class:`SimulationError`."""
        stop = _INF if until is None else until
        if not stop >= self.now:  # also refuses NaN
            raise SimulationError(
                f"run(until={until}) is not a time at or after now={self.now}")
        self._drain(stop, _NEVER)
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def _drain(self, stop: float, target: Event) -> None:
        """The kernel's one drain, behind :meth:`run` and
        :meth:`run_until_event`: the deque/heap merge, plus *batches* —
        every consecutive heap entry still at the instant the merge
        selected fires in a tight loop, with one time write and no merge
        per entry; the deque cannot preempt a batch (DESIGN.md §9).
        Returns right after the entry that processes ``target`` (in an
        entry of its own, or inline by a :func:`settle` join inside
        one), or when the agenda is empty or its next entry lies past
        ``stop``, leaving ``now`` where it is.
        """
        imm = self._imm
        heap = self._heap
        imm_pop = imm.popleft
        while True:
            if imm:
                # Drain immediates up to the heap head's seq (inf when
                # the head sits in the future or the heap is empty;
                # callbacks only push entries later than now, so the
                # guard holds for the whole drain).
                if heap and heap[0][0] <= self.now:
                    guard = heap[0][1]
                else:
                    guard = _INF
                while imm and imm[0][0] < guard:
                    _seq, event, value = imm_pop()
                    if value is _CALL:
                        event()
                        continue
                    if value is not _ALREADY and event._value is _PENDING:
                        event._value = value
                    callbacks, event.callbacks = event.callbacks, None
                    if callbacks:
                        for cb in callbacks:
                            cb(event)
                    if target.callbacks is None:
                        return
            if not heap or heap[0][0] > stop:
                return
            when, _seq, event, value = heappop(heap)
            self.now = when
            while True:
                if value is _CALL:
                    event()
                else:
                    if value is not _ALREADY and event._value is _PENDING:
                        event._value = value
                    callbacks, event.callbacks = event.callbacks, None
                    if callbacks:
                        for cb in callbacks:
                            cb(event)
                    if target.callbacks is None:
                        return
                if not heap:
                    break
                nxt = heap[0]
                if nxt[0] != when or (imm and nxt[1] > imm[0][0]):
                    break
                heappop(heap)
                event = nxt[2]
                value = nxt[3]

    def run_until_event(self, event: Event, limit: float = 1e12) -> Any:
        """Run until ``event`` has been processed (its callbacks have
        run), stopping right after the entry that processes it.  Raises
        if the agenda drains, or its next entry lies past ``limit``,
        while ``event`` is still untriggered (deadlock detector)."""
        if event.callbacks is not None:
            # untriggered, it must fire by ``limit``; triggered, its
            # entry already waits at the current instant
            stop = limit if event._value is _PENDING else _INF
            if self.peek() <= stop:
                self._drain(stop, event)
        if event._value is _PENDING:
            if not self._imm and not self._heap:
                raise SimulationError(
                    "agenda empty before awaited event fired (deadlock?)")
            raise SimulationError(f"event did not fire before t={limit}")
        if not event._ok:
            raise event._value
        return event._value
