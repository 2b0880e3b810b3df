"""Event loop, events and generator-based processes.

The kernel is deliberately small and deterministic:

* :class:`Environment` owns the clock and the agenda.
* :class:`Event` is a one-shot occurrence that carries a value (or an
  exception) and a list of callbacks.
* :class:`Process` wraps a generator.  Each ``yield`` must produce an
  :class:`Event`; the process resumes when that event fires.  The process
  itself is an event that fires when the generator returns, so processes
  compose (``yield env.process(...)`` joins a child).

Determinism: events scheduled for the same timestamp fire in scheduling
order (a monotonically increasing sequence number breaks ties), so a
seeded simulation always replays identically.

One agenda, two drains (DESIGN.md §9, §14):

* **fast** (default) — a binary heap of ``(when, seq, event, value)``
  plus a FIFO deque for entries scheduled *at the current time*
  (triggered events, process inits, zero-delay timeouts).  Every
  schedule — heap or deque — consumes one number from the shared
  sequence counter, and the merge pops whichever of (deque head, heap
  head) has the globally smallest ``(when, seq)``, so the total firing
  order is exactly the heap-only order.  :meth:`Environment.run`
  inlines that merge and additionally dispatches consecutive
  same-instant heap entries as one batch: one head inspection plus a
  tight loop instead of a full merge per entry.
* **slow** (``REPRO_SLOW_KERNEL=1``) — the executable spec: everything
  takes the heap, :meth:`Environment.run` is a naive
  :meth:`Environment.step`-per-entry loop, and the net layer skips its
  analytic shortcuts (``Environment.fastpath`` off).  Every cross-kernel
  test diffs *fast* against it.
"""

from __future__ import annotations

import os
from collections import deque
from contextlib import contextmanager
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import ConfigError

__all__ = [
    "SimulationError",
    "Interrupt",
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "settle",
    "Environment",
    "KERNELS",
    "pin_kernel",
    "slow_kernel_requested",
]


class SimulationError(Exception):
    """Raised for kernel misuse (double trigger, yield of non-event...)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    ``cause`` carries an arbitrary payload describing why the process was
    interrupted (e.g. a reconfiguration decision preempting a worker).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


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


def slow_kernel_requested() -> bool:
    """True when ``REPRO_SLOW_KERNEL`` asks for the naive heap-only paths.

    Read once per :class:`Environment` at construction so a test can
    toggle the variable between simulations within one process.
    """
    return os.environ.get("REPRO_SLOW_KERNEL", "") not in ("", "0")


#: the event kernels every cross-kernel check diffs: the product and
#: the naive reference (``REPRO_SLOW_KERNEL=1``).
KERNELS = ("fast", "slow")


@contextmanager
def pin_kernel(mode: str):
    """Pin the event kernel for Environments built inside the block.

    ``fast`` is the product kernel (heap + same-instant deque, net-layer
    shortcuts on); ``slow`` is the naive reference.  The previous
    ``REPRO_SLOW_KERNEL`` setting is restored on exit.
    """
    if mode not in KERNELS:
        raise ConfigError(f"unknown kernel {mode!r} ({'|'.join(KERNELS)})")
    prev = os.environ.get("REPRO_SLOW_KERNEL")
    os.environ["REPRO_SLOW_KERNEL"] = "1" if mode == "slow" else "0"
    try:
        yield
    finally:
        if prev is None:
            os.environ.pop("REPRO_SLOW_KERNEL", None)
        else:
            os.environ["REPRO_SLOW_KERNEL"] = prev


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
    def ok(self) -> bool:
        return self._ok

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
        self.env._queue_event(self)
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


class Timeout(Event):
    """An event that fires ``delay`` microseconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if not 0 <= delay < _INF:
            raise _bad_delay(delay)
        super().__init__(env)
        self.delay = delay
        env._schedule_at(env._now + delay, self, value=value)


class Process(Event):
    """A running generator; also an event that fires when it returns."""

    __slots__ = ("_gen", "_target", "name")

    def __init__(self, env: "Environment",
                 gen: Generator[Event, Any, Any],
                 name: str = ""):
        if not hasattr(gen, "send"):
            raise SimulationError(
                f"process requires a generator, got {type(gen).__name__}")
        super().__init__(env)
        self._gen = gen
        self._target: Optional[Event] = None
        self.name = name or getattr(gen, "__name__", "process")
        # Kick off at the current time via an initialisation event.
        init = Event(env)
        init._value = None
        init.callbacks.append(self._resume)
        env._queue_event(init)

    @property
    def is_alive(self) -> bool:
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            raise SimulationError("cannot interrupt a finished process")
        if self._target is self:
            raise SimulationError("process cannot interrupt itself")
        # Detach from whatever it is waiting for; deliver the interrupt.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None
        carrier = Event(self.env)
        carrier._ok = False
        carrier._value = Interrupt(cause)
        carrier.add_callback(self._resume_throw)
        self.env._queue_event(carrier)

    # -- internal ------------------------------------------------------
    def _resume(self, event: Event) -> None:
        # Hot path: one resume per yield of every process.  Property
        # accessors (is_alive / triggered) are inlined to plain slot
        # reads; the interrupt carrier arrives with ``_ok`` False so a
        # single branch covers both send and throw.
        if self._value is not _PENDING:
            return
        self._target = None
        try:
            if event._ok:
                nxt = self._gen.send(event._value)
            else:
                nxt = self._gen.throw(event._value)
        except StopIteration as stop:
            self._value = stop.value
            self.env._queue_event(self)
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
        if not isinstance(nxt, Event):
            raise SimulationError(
                f"process {self.name!r} yielded non-event {nxt!r}")
        if nxt.env is not self.env:
            raise SimulationError("yielded event belongs to another Environment")
        self._target = nxt
        cbs = nxt.callbacks
        if cbs is None:
            # Yielded an already-processed event: resume immediately,
            # same as Event.add_callback would.
            self._resume(nxt)
        else:
            cbs.append(self._resume)

    _resume_throw = _resume  # interrupt carriers always have _ok False


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


def _watched(_event: Event) -> None:
    """Callback whose only job is to count as a watcher (see settle)."""


def settle(events: Iterable[Event]):
    """Generator helper: wait for *all* of ``events``, report each.

    ``results = yield from settle(events)`` returns one
    ``(ok, value_or_exception)`` per event, in order.  Unlike
    :class:`AllOf` it does not fail fast — a caller that posted k verbs
    learns which landed — and costs no agenda entry: the children are
    yielded in turn, and one already processed resumes inline.  Every
    child is marked watched up front, because a failing
    :class:`Process` (or fast-path verb) nobody watches is a crash and
    the later children are not yielded until the earlier ones fire.  An
    exception thrown into the waiter that is not the awaited child's
    own failure (an :class:`Interrupt`, a close) propagates.
    """
    events = list(events)
    for ev in events:
        if ev.callbacks is not None:
            ev.callbacks.append(_watched)
    results = []
    for ev in events:
        try:
            results.append((True, (yield ev)))
        except BaseException as exc:
            if exc is not ev._value:
                raise
            results.append((False, exc))
    return results


class Environment:
    """The simulation clock and agenda."""

    #: Observability handle (:class:`repro.obs.Observability`), installed
    #: by ``Observability.install()``.  ``None`` means tracing/metrics are
    #: off: every emission site guards on this attribute, the same inert
    #: pattern :class:`repro.faults.FaultInjector` uses on the fabric, so
    #: a disabled run pays one attribute load per hook and nothing else.
    obs = None

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        #: the agenda: a binary heap of ``(when, seq, event, value)``.
        self._heap: list = []
        #: FIFO of ``(seq, event, value)`` entries scheduled at the
        #: current time; merged with the heap by seq in :meth:`step`.
        self._imm: deque = deque()
        self._seq = 0
        self._id_streams: dict = {}
        #: False under ``REPRO_SLOW_KERNEL=1``: immediate entries take
        #: the heap and the net layer skips its analytic shortcuts.
        self.fastpath = not slow_kernel_requested()

    # -- clock ----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in microseconds."""
        return self._now

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
        # benchmarks.  Semantically identical to ``Timeout(self, delay,
        # value)``.  The chained comparison also rejects NaN, which would
        # silently corrupt the heap order.
        if not 0 <= delay < _INF:
            raise _bad_delay(delay)
        ev = Timeout.__new__(Timeout)
        ev.env = self
        ev.callbacks = []
        ev._value = _PENDING
        ev._ok = True
        ev.delay = delay
        now = self._now
        when = now + delay
        seq = self._seq = self._seq + 1
        if when == now and self.fastpath:
            self._imm.append((seq, ev, value))
        else:
            heappush(self._heap, (when, seq, ev, value))
        return ev

    def process(self, gen: Generator[Event, Any, Any],
                name: str = "") -> Process:
        return Process(self, gen, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling -----------------------------------------------------
    # These three are the whole seam between the rest of the package and
    # the agenda: everything that ever fires was pushed by one of them
    # (or by the flattened copy in :meth:`timeout`).
    def _schedule_at(self, when: float, event: Event,
                     value: Any = _ALREADY) -> None:
        seq = self._seq = self._seq + 1
        if when == self._now and self.fastpath:
            self._imm.append((seq, event, value))
        else:
            heappush(self._heap, (when, seq, event, value))

    def _queue_event(self, event: Event) -> None:
        """Schedule a triggered event's callbacks at the current time."""
        seq = self._seq = self._seq + 1
        if self.fastpath:
            self._imm.append((seq, event, _ALREADY))
        else:
            heappush(self._heap, (self._now, seq, event, _ALREADY))

    def _schedule_call(self, when: float, fn: Callable[[], None]) -> None:
        """Schedule a bare callable — the allocation-free agenda entry.

        Only for internal stages whose sole consumer is ``fn`` itself
        (nobody can add callbacks or yield on it).  The net-layer fast
        paths use this for link release / wire arrival / service stages.
        """
        seq = self._seq = self._seq + 1
        if when == self._now and self.fastpath:
            self._imm.append((seq, fn, _CALL))
        else:
            heappush(self._heap, (when, seq, fn, _CALL))

    # -- execution ------------------------------------------------------
    def step(self) -> None:
        """Process the agenda entry with the smallest ``(when, seq)``.

        Immediate entries all sit at the current time (time cannot
        advance while the deque is non-empty), so the merge with the
        heap only ever compares seq numbers at equal timestamps.
        """
        imm = self._imm
        heap = self._heap
        if imm and (not heap or heap[0][0] > self._now
                    or heap[0][1] > imm[0][0]):
            _seq, event, value = imm.popleft()
        else:
            try:
                when, _seq, event, value = heappop(heap)
            except IndexError:
                raise SimulationError("step() on an empty agenda") from None
            if when < self._now:  # pragma: no cover - defensive
                raise SimulationError("time went backwards")
            self._now = when
        if value is _CALL:
            event()
            return
        if value is not _ALREADY and event._value is _PENDING:
            # Delayed trigger (Timeout): the value rides the agenda entry.
            event._value = value
        callbacks, event.callbacks = event.callbacks, None
        if callbacks:
            for cb in callbacks:
                cb(event)

    def peek(self) -> float:
        """Time of the next agenda entry, or ``inf`` if empty."""
        if self._imm:
            return self._now
        return self._heap[0][0] if self._heap else _INF

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Run until the agenda is empty, ``until`` is reached, or
        ``max_events`` entries have been processed.  Returns ``now``."""
        imm = self._imm
        heap = self._heap
        stop = _INF if until is None else until
        if not self.fastpath or max_events is not None or self._now > stop:
            # The executable spec: one bound check and one step() per
            # entry.  It is the slow kernel's only drain; the fast
            # kernel uses it for an entry-count bound (no packaged
            # scenario passes one, so the hot drain below does not pay
            # for a per-entry countdown) and for a bound already behind
            # the clock.
            count = 0
            while imm or heap:
                if until is not None and self.peek() > until:
                    self._now = until
                    return until
                if max_events is not None and count >= max_events:
                    return self._now
                self.step()
                count += 1
        else:
            # The hot drain: step() inlined, plus *batches* — once the
            # merge selects a heap entry at instant ``t``, every
            # consecutive heap entry still at ``t`` fires in a tight
            # loop with one time write and no merge per entry.  The
            # deque cannot preempt the batch: immediate entries only
            # come into existence at the current instant, so anything
            # enqueued during the batch carries a seq greater than the
            # batched entries, which were scheduled before time reached
            # ``t`` (the explicit seq guard keeps the merge contract
            # literal anyway).
            imm_pop = imm.popleft
            while True:
                if imm:
                    # Drain immediates up to the heap head's seq (inf
                    # when the head sits in the future or the heap is
                    # empty; callbacks only push entries later than now,
                    # so the guard holds for the whole drain).
                    if heap and heap[0][0] <= self._now:
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
                if not heap:
                    break
                if heap[0][0] > stop:
                    self._now = until
                    return until
                when, _seq, event, value = heappop(heap)
                self._now = when
                while True:
                    if value is _CALL:
                        event()
                    else:
                        if value is not _ALREADY \
                                and event._value is _PENDING:
                            event._value = value
                        callbacks, event.callbacks = event.callbacks, None
                        if callbacks:
                            for cb in callbacks:
                                cb(event)
                    if not heap:
                        break
                    nxt = heap[0]
                    if nxt[0] != when or (imm and nxt[1] > imm[0][0]):
                        break
                    heappop(heap)
                    event = nxt[2]
                    value = nxt[3]
        if until is not None and until > self._now:
            self._now = until
        return self._now

    def run_until_event(self, event: Event, limit: float = 1e12) -> Any:
        """Run until ``event`` has fired.  Raises if the agenda drains or
        the time ``limit`` passes first (deadlock detector for tests)."""
        while not event.triggered:
            if not self._imm and not self._heap:
                raise SimulationError(
                    "agenda empty before awaited event fired (deadlock?)")
            if self.peek() > limit:
                raise SimulationError(f"event did not fire before t={limit}")
            self.step()
        # Drain zero-delay follow-ups so the event's callbacks have run.
        while not event.processed and (self._imm
                                       or self.peek() <= self._now):
            self.step()
        if not event._ok:
            raise event._value
        return event._value
