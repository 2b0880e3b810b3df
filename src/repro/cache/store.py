"""Byte-capacity LRU store (the in-memory cache of one node)."""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

from repro.errors import CacheError

__all__ = ["LRUStore"]


class LRUStore:
    """LRU over (doc -> (size, token)) bounded by total bytes."""

    def __init__(self, capacity_bytes: int, name: str = ""):
        if capacity_bytes <= 0:
            raise CacheError("cache capacity must be positive")
        self.capacity = capacity_bytes
        self.name = name
        self._entries: "OrderedDict[int, Tuple[int, bytes]]" = OrderedDict()
        self.used = 0
        self.insertions = 0
        self.evictions = 0

    def __contains__(self, doc: int) -> bool:
        return doc in self._entries

    def peek(self, doc: int) -> Optional[Tuple[int, bytes]]:
        """(size, token) without touching recency, or None."""
        return self._entries.get(doc)

    def get(self, doc: int) -> Optional[Tuple[int, bytes]]:
        """(size, token) and promote to most-recently-used, or None."""
        entry = self._entries.get(doc)
        if entry is not None:
            self._entries.move_to_end(doc)
        return entry

    def insert(self, doc: int, size: int, token: bytes
               ) -> List[Tuple[int, int]]:
        """Insert/refresh a document; returns evicted (doc, size) pairs."""
        if size <= 0:
            raise CacheError("document size must be positive")
        if size > self.capacity:
            raise CacheError(
                f"document of {size} bytes exceeds cache of {self.capacity}")
        evicted: List[Tuple[int, int]] = []
        old = self._entries.pop(doc, None)
        if old is not None:
            self.used -= old[0]
        while self.used + size > self.capacity:
            victim, (vsize, _tok) = self._entries.popitem(last=False)
            self.used -= vsize
            self.evictions += 1
            evicted.append((victim, vsize))
        self._entries[doc] = (size, token)
        self.used += size
        self.insertions += 1
        return evicted

    def remove(self, doc: int) -> bool:
        entry = self._entries.pop(doc, None)
        if entry is None:
            return False
        self.used -= entry[0]
        return True

    def docs(self):
        return tuple(self._entries)
