"""Waitable containers: FIFO stores, counting resources, gates.

These are the coordination primitives the higher layers build on:

* :class:`Store` — an unbounded (or bounded) FIFO of items; ``get()``
  returns an event that fires when an item is available.  Used for NIC
  work queues, server accept queues, message channels.
* :class:`Resource` — a counting semaphore with FIFO hand-off.  Used for
  bounded thread pools and serialized devices.
* :class:`Gate` — a level-triggered broadcast condition (open/closed).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.sim.core import Environment, Event, SimulationError

__all__ = ["Store", "Resource", "Gate"]


class Store:
    """FIFO of items with event-based ``get``/``put``.

    ``capacity`` bounds the number of stored items; ``put`` on a full
    store returns an event that fires only once space frees up (back-
    pressure, used by the flow-control models).
    """

    def __init__(self, env: Environment, capacity: Optional[int] = None):
        if capacity is not None and capacity <= 0:
            raise SimulationError("store capacity must be positive")
        self.env = env
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple] = deque()  # (event, item)

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        return tuple(self._items)

    def put(self, item: Any) -> Event:
        event = Event(self.env)
        if self._getters:
            # Hand straight to the oldest waiting getter.
            getter = self._getters.popleft()
            getter.succeed(item)
            event.succeed()
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            event.succeed()
        else:
            self._putters.append((event, item))
        return event

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; False if the store is full."""
        if self._getters:
            self._getters.popleft().succeed(item)
            return True
        if self.capacity is not None and len(self._items) >= self.capacity:
            return False
        self._items.append(item)
        return True

    def get(self) -> Event:
        event = Event(self.env)
        if self._items:
            event.succeed(self._items.popleft())
            self._admit_putter()
        else:
            self._getters.append(event)
        return event

    def cancel_get(self, event: Event) -> bool:
        """Withdraw a pending ``get`` so it cannot steal a future item.

        Returns True if the event was still waiting.  Needed by callers
        that race a ``get`` against a timeout: an abandoned getter would
        otherwise silently consume the next put.
        """
        try:
            self._getters.remove(event)
            return True
        except ValueError:
            return False

    def try_get(self) -> tuple:
        """Non-blocking get; returns ``(ok, item)``."""
        if self._items:
            item = self._items.popleft()
            self._admit_putter()
            return True, item
        return False, None

    def _admit_putter(self) -> None:
        if self._putters:
            event, item = self._putters.popleft()
            self._items.append(item)
            event.succeed()


class Resource:
    """Counting semaphore with FIFO hand-off.

    Usage::

        grant = yield resource.acquire()
        try:
            ...
        finally:
            resource.release()
    """

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity <= 0:
            raise SimulationError("resource capacity must be positive")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def queue_len(self) -> int:
        return len(self._waiters)

    def acquire(self) -> Event:
        event = Event(self.env)
        if self._in_use < self.capacity:
            self._in_use += 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError("release without acquire")
        if self._waiters:
            # Slot passes directly to the next waiter; _in_use unchanged.
            self._waiters.popleft().succeed()
        else:
            self._in_use -= 1


class Gate:
    """Level-triggered broadcast condition.

    ``wait()`` returns an already-fired event while the gate is open and a
    pending event otherwise; ``open()`` releases all current waiters.
    Used e.g. to model lock-release broadcast and reconfiguration barriers.
    """

    def __init__(self, env: Environment, is_open: bool = False):
        self.env = env
        self._open = is_open
        self._waiters: list = []

    @property
    def is_open(self) -> bool:
        return self._open

    def wait(self) -> Event:
        event = Event(self.env)
        if self._open:
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def open(self) -> None:
        self._open = True
        waiters, self._waiters = self._waiters, []
        for event in waiters:
            event.succeed()

    def close(self) -> None:
        self._open = False
