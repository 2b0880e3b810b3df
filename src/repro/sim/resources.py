"""Waitable containers: FIFO stores and counting resources.

These are the coordination primitives the higher layers build on:

* :class:`Store` — an unbounded FIFO of items; ``get()``
  returns an event that fires when an item is available.  Used for NIC
  work queues, server accept queues, message channels.
* :class:`Resource` — a counting semaphore with FIFO hand-off.  Used for
  bounded thread pools and serialized devices.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from repro.sim.core import Environment, Event, SimulationError

__all__ = ["Store", "Resource"]


class Store:
    """Unbounded FIFO of items with an event-based ``get``; a put never
    waits."""

    def __init__(self, env: Environment):
        self.env = env
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def try_put(self, item: Any) -> None:
        """Put without an event: hand ``item`` to the oldest waiting
        getter, or queue it."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        event = Event(self.env)
        if self._items:
            event.succeed(self._items.popleft())
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
            return True, self._items.popleft()
        return False, None


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

