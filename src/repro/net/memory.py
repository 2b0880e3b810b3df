"""Registered memory regions — the substrate for one-sided operations.

Every node owns a :class:`MemoryManager` holding registered
:class:`MemoryRegion`\\ s, backed by demand-zero private mappings
(``mmap(-1, length, MAP_PRIVATE)``): the OS supplies a zero page on first
touch, so memory is resident only where an access has touched it, and a
forked process (``repro.lab`` workers) writes into a copy, never into
its parent's simulated memory.  A region of a page or more is a mapping
of its own; smaller ones (lock words, queue nodes, heartbeat words) are
carved out of one shared mapping per node, so touching one costs a share
of a page, not a page.  An RDMA access names ``(addr, rkey)``; the
manager validates the key and bounds exactly like an HCA's
protection-table walk, then performs the byte-level operation.  Remote
atomics (:meth:`MemoryManager.cas64`, :meth:`MemoryManager.faa64`)
act on 64-bit big-endian words, matching the wire format the lock
manager and DDSS metadata use.

:class:`RemoteKey` is the serializable handle (node, addr, rkey, length)
that services exchange so peers can target each other's memory.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import BoundsError, ConfigError, ProtectionError

__all__ = ["MemoryRegion", "MemoryManager", "RemoteKey"]

_U64_MASK = (1 << 64) - 1
#: a region shorter than this is carved out of its node's arena
_PAGE = mmap.PAGESIZE
#: bytes of one arena mapping; a node that outgrows it maps another
_ARENA = 256 * _PAGE


@dataclass(frozen=True, slots=True)
class RemoteKey:
    """Serializable descriptor of a remote memory window.

    Slotted: the ``*_key`` verb helpers mint a sub-window per call, so
    these are a hot allocation in key-addressed workloads.
    """

    node: int
    addr: int
    rkey: int
    length: int


class MemoryRegion:
    """A registered, rkey-protected window of node memory: ``length``
    bytes of ``buf`` from ``base``."""

    __slots__ = ("node_id", "addr", "length", "rkey", "name", "buf", "base")

    def __init__(self, node_id: int, addr: int, length: int, rkey: int,
                 name: str, buf: mmap.mmap, base: int):
        self.node_id = node_id
        self.addr = addr
        self.length = length
        self.rkey = rkey
        self.name = name
        self.buf = buf
        self.base = base

    # -- local (lkey-style) access ----------------------------------------
    def read(self, offset: int, length: int) -> bytes:
        self._check(offset, length)
        pos = self.base + offset
        return self.buf[pos:pos + length]

    def write(self, offset: int, data: bytes) -> None:
        self._check(offset, len(data))
        pos = self.base + offset
        self.buf[pos:pos + len(data)] = data

    def read_u64(self, offset: int) -> int:
        return int.from_bytes(self.read(offset, 8), "big")

    def write_u64(self, offset: int, value: int) -> None:
        self.write(offset, (value & _U64_MASK).to_bytes(8, "big"))

    def write_u32(self, offset: int, value: int) -> None:
        self.write(offset, (value & 0xFFFFFFFF).to_bytes(4, "big"))

    def remote_key(self) -> RemoteKey:
        return RemoteKey(self.node_id, self.addr, self.rkey, self.length)

    def _check(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > self.length:
            raise BoundsError(
                f"access [{offset}, {offset + length}) outside region "
                f"{self.name!r} of length {self.length}")


class MemoryManager:
    """Per-node registry of memory regions + HCA-style access checks."""

    #: registration base and alignment, purely cosmetic but makes
    #: addresses look like addresses in traces
    _BASE = 0x10000
    _ALIGN = 64

    def __init__(self, node_id: int):
        self.node_id = node_id
        self._next_addr = self._BASE
        self._next_rkey = 0x1D0C0000 + node_id * 0x10101
        self._regions: Dict[int, MemoryRegion] = {}  # addr -> region
        #: last region a resolve hit — remote traffic is heavily
        #: region-local (a lock word, a DDSS directory), so this turns
        #: the linear protection-table walk into one range check (a
        #: region is never deregistered, so it never goes stale).
        self._rcache: Optional[MemoryRegion] = None
        #: the mapping small regions are carved from, and its free byte
        self._arena: Optional[mmap.mmap] = None
        self._arena_free = _ARENA

    def register(self, length: int, name: str = "") -> MemoryRegion:
        """Register ``length`` bytes; returns the region handle.  A
        length the OS cannot map raises :class:`ConfigError`."""
        if length <= 0:
            raise ConfigError("memory region length must be positive")
        addr = self._next_addr
        pad = (-length) % self._ALIGN
        self._next_addr += length + pad + self._ALIGN  # guard gap
        self._next_rkey = (self._next_rkey * 2654435761 + 1) & 0xFFFFFFFF
        try:
            if length >= _PAGE:
                buf, base = mmap.mmap(-1, length, flags=mmap.MAP_PRIVATE), 0
            else:
                if self._arena_free + length > _ARENA:
                    self._arena = mmap.mmap(-1, _ARENA,
                                            flags=mmap.MAP_PRIVATE)
                    self._arena_free = 0
                buf, base = self._arena, self._arena_free
                self._arena_free += -(-length // 8) * 8  # word-aligned
        except (OSError, OverflowError) as exc:
            raise ConfigError(
                f"node {self.node_id} cannot map region {name!r} of "
                f"{length} bytes: {exc}") from exc
        region = MemoryRegion(self.node_id, addr, length, self._next_rkey,
                              name, buf, base)
        self._regions[addr] = region
        return region

    # -- remote-access path (what the simulated HCA executes) -------------
    def resolve(self, addr: int, rkey: int, length: int):
        """Protection-table walk: find region containing [addr, addr+len)."""
        region = self._rcache
        if region is None or not (region.addr <= addr
                                  < region.addr + region.length):
            region = None
            for base, cand in self._regions.items():
                if base <= addr < base + cand.length:
                    region = self._rcache = cand
                    break
            if region is None:
                raise ProtectionError(
                    f"no registered region at {addr:#x} "
                    f"on node {self.node_id}")
        if region.rkey != rkey:
            raise ProtectionError(
                f"rkey mismatch on node {self.node_id} addr {addr:#x}")
        offset = addr - region.addr
        if offset + length > region.length:
            raise BoundsError(
                f"remote access [{addr:#x}+{length}] crosses region end")
        return region.buf, region.base + offset

    # The verbs below inline the region byte access (``resolve`` already
    # bounds-checked the window and returns its mapping and position in
    # it).  A slice of the mapping is a fresh ``bytes``, and a slice
    # assignment never resizes it.
    def rdma_read(self, addr: int, rkey: int, length: int) -> bytes:
        if length < 0:  # an HCA's lengths are unsigned
            raise BoundsError(f"cannot read {length} bytes on node "
                              f"{self.node_id} addr {addr:#x}")
        buf, pos = self.resolve(addr, rkey, length)
        return buf[pos:pos + length]

    def rdma_write(self, addr: int, rkey: int, data: bytes) -> None:
        buf, pos = self.resolve(addr, rkey, len(data))
        buf[pos:pos + len(data)] = data

    def cas64(self, addr: int, rkey: int, compare: int, swap: int) -> int:
        """Atomic compare-and-swap on a 64-bit word; returns the old value."""
        buf, pos = self.resolve(addr, rkey, 8)
        old = int.from_bytes(buf[pos:pos + 8], "big")
        if old == (compare & _U64_MASK):
            buf[pos:pos + 8] = (swap & _U64_MASK).to_bytes(8, "big")
        return old

    def faa64(self, addr: int, rkey: int, add: int) -> int:
        """Atomic fetch-and-add on a 64-bit word; returns the old value."""
        buf, pos = self.resolve(addr, rkey, 8)
        old = int.from_bytes(buf[pos:pos + 8], "big")
        buf[pos:pos + 8] = ((old + add) & _U64_MASK).to_bytes(8, "big")
        return old
