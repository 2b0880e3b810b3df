"""Bump allocator for a node's contributed DDSS segment.

Offsets handed out here are *real* offsets into the node's registered
memory region, so a remote ``get`` after ``allocate``+``put`` reads
exactly the bytes that were stored.  No scenario releases a unit, so
no block is ever given back: each one starts where the last one ended,
aligned to 8 bytes so version and lock words can be targeted by remote
atomics.  A block a rebalance leaves behind (tombstoned by
:meth:`repro.ddss.substrate.DDSS.migrate_unit`) is therefore never
reused, and an in-flight one-sided op against the stale address can
only read the tombstone: the simulation's stand-in for rkey revocation.
"""

from __future__ import annotations

from repro.errors import AllocationError

__all__ = ["SegmentAllocator"]

_ALIGN = 8


class SegmentAllocator:
    """Manages ``[0, capacity)`` of one segment."""

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise AllocationError("segment capacity must be positive")
        self.capacity = capacity
        #: the first byte not yet handed out
        self._top = 0

    @property
    def free_bytes(self) -> int:
        return self.capacity - self._top

    def alloc(self, size: int) -> int:
        """The offset of a fresh block of ``size`` bytes, rounded up to
        the alignment.

        Raises :class:`AllocationError` when it does not fit.
        """
        if size <= 0:
            raise AllocationError(f"allocation size must be positive: {size}")
        need = (size + _ALIGN - 1) & ~(_ALIGN - 1)
        if need > self.free_bytes:
            raise AllocationError(
                f"no free block of {need} bytes (free={self.free_bytes})")
        offset, self._top = self._top, self._top + need
        return offset
