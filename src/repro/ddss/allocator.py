"""First-fit free-list allocator for a node's contributed DDSS segment.

Offsets handed out here are *real* offsets into the node's registered
memory region, so a remote ``get`` after ``allocate``+``put`` reads
exactly the bytes that were stored.  The free list coalesces adjacent
blocks on :meth:`free`, and every block is aligned to 8 bytes so version
and lock words can be targeted by remote atomics.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import AllocationError

__all__ = ["SegmentAllocator"]

_ALIGN = 8


def _aligned(n: int) -> int:
    return (n + _ALIGN - 1) & ~(_ALIGN - 1)


class SegmentAllocator:
    """Manages ``[0, capacity)`` of one segment."""

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise AllocationError("segment capacity must be positive")
        self.capacity = capacity
        #: sorted list of (offset, length) free blocks
        self._free: List[Tuple[int, int]] = [(0, capacity)]
        #: live allocations: offset -> length
        self._live: Dict[int, int] = {}

    # -- queries -----------------------------------------------------------
    @property
    def free_bytes(self) -> int:
        return sum(length for _, length in self._free)

    def largest_free_block(self) -> int:
        return max((length for _, length in self._free), default=0)

    # -- operations ----------------------------------------------------------
    def alloc(self, size: int) -> int:
        """First-fit allocation; returns the offset.

        Raises :class:`AllocationError` when no block fits.
        """
        if size <= 0:
            raise AllocationError(f"allocation size must be positive: {size}")
        need = _aligned(size)
        for i, (offset, length) in enumerate(self._free):
            if length >= need:
                if length == need:
                    del self._free[i]
                else:
                    self._free[i] = (offset + need, length - need)
                self._live[offset] = need
                return offset
        raise AllocationError(
            f"no free block of {need} bytes "
            f"(free={self.free_bytes}, largest={self.largest_free_block()})")

    def free(self, offset: int) -> None:
        """Release the allocation at ``offset`` and coalesce neighbours."""
        length = self._live.pop(offset, None)
        if length is None:
            raise AllocationError(f"free of unallocated offset {offset}")
        # Insert keeping the list sorted, then coalesce with neighbours.
        lo, hi = 0, len(self._free)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._free[mid][0] < offset:
                lo = mid + 1
            else:
                hi = mid
        self._free.insert(lo, (offset, length))
        self._coalesce_around(lo)

    def _coalesce_around(self, i: int) -> None:
        # merge with the next block
        if i + 1 < len(self._free):
            off, length = self._free[i]
            noff, nlen = self._free[i + 1]
            if off + length == noff:
                self._free[i] = (off, length + nlen)
                del self._free[i + 1]
        # merge with the previous block
        if i > 0:
            poff, plen = self._free[i - 1]
            off, length = self._free[i]
            if poff + plen == off:
                self._free[i - 1] = (poff, plen + length)
                del self._free[i]

