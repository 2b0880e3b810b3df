"""Registered memory regions — the substrate for one-sided operations.

Every node owns a :class:`MemoryManager` holding registered
:class:`MemoryRegion`\\ s backed by real :class:`bytearray` storage.  An
RDMA access names ``(addr, rkey)``; the manager validates the key and
bounds exactly like an HCA's protection-table walk, then performs the
byte-level operation.  Remote atomics (:meth:`MemoryManager.cas64`,
:meth:`MemoryManager.faa64`) act on 64-bit big-endian words, matching the
wire format the lock manager and DDSS metadata use.

:class:`RemoteKey` is the serializable handle (node, addr, rkey, length)
that services exchange so peers can target each other's memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import BoundsError, ConfigError, ProtectionError

__all__ = ["MemoryRegion", "MemoryManager", "RemoteKey"]

_U64_MASK = (1 << 64) - 1


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

    def slice(self, offset: int, length: Optional[int] = None) -> "RemoteKey":
        """A sub-window at ``offset`` (bounds-checked)."""
        if offset < 0 or offset > self.length:
            raise BoundsError(f"slice offset {offset} outside window")
        length = self.length - offset if length is None else length
        if length < 0 or offset + length > self.length:
            raise BoundsError("slice extends past window")
        return RemoteKey(self.node, self.addr + offset, self.rkey, length)


class MemoryRegion:
    """A registered, rkey-protected window of node memory."""

    __slots__ = ("node_id", "addr", "length", "rkey", "buf", "name")

    def __init__(self, node_id: int, addr: int, length: int, rkey: int,
                 name: str = ""):
        if length <= 0:
            raise ConfigError("memory region length must be positive")
        self.node_id = node_id
        self.addr = addr
        self.length = length
        self.rkey = rkey
        self.buf = bytearray(length)
        self.name = name

    # -- local (lkey-style) access ----------------------------------------
    def read(self, offset: int, length: int) -> bytes:
        self._check(offset, length)
        return bytes(self.buf[offset:offset + length])

    def write(self, offset: int, data: bytes) -> None:
        self._check(offset, len(data))
        self.buf[offset:offset + len(data)] = data

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

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<MemoryRegion {self.name!r} node={self.node_id} "
                f"addr={self.addr:#x} len={self.length}>")


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
        #: the linear protection-table walk into one range check.
        #: Invalidated on deregister.
        self._rcache: Optional[MemoryRegion] = None

    def register(self, length: int, name: str = "") -> MemoryRegion:
        """Register ``length`` bytes; returns the region handle."""
        addr = self._next_addr
        pad = (-length) % self._ALIGN
        self._next_addr += length + pad + self._ALIGN  # guard gap
        self._next_rkey = (self._next_rkey * 2654435761 + 1) & 0xFFFFFFFF
        region = MemoryRegion(self.node_id, addr, length,
                              self._next_rkey, name)
        self._regions[addr] = region
        return region

    def deregister(self, region: MemoryRegion) -> None:
        """Revoke a region; later remote accesses fail with ProtectionError."""
        self._regions.pop(region.addr, None)
        if self._rcache is region:
            self._rcache = None

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
        return region, offset

    # The verbs below inline the region byte access (``resolve`` already
    # bounds-checked the window, so MemoryRegion._check would be
    # redundant work on the hottest data path).
    def rdma_read(self, addr: int, rkey: int, length: int) -> bytes:
        region, offset = self.resolve(addr, rkey, length)
        return bytes(region.buf[offset:offset + length])

    def rdma_write(self, addr: int, rkey: int, data: bytes) -> None:
        region, offset = self.resolve(addr, rkey, len(data))
        region.buf[offset:offset + len(data)] = data

    def cas64(self, addr: int, rkey: int, compare: int, swap: int) -> int:
        """Atomic compare-and-swap on a 64-bit word; returns the old value."""
        region, offset = self.resolve(addr, rkey, 8)
        buf = region.buf
        old = int.from_bytes(buf[offset:offset + 8], "big")
        if old == (compare & _U64_MASK):
            buf[offset:offset + 8] = (swap & _U64_MASK).to_bytes(8, "big")
        return old

    def faa64(self, addr: int, rkey: int, add: int) -> int:
        """Atomic fetch-and-add on a 64-bit word; returns the old value."""
        region, offset = self.resolve(addr, rkey, 8)
        buf = region.buf
        old = int.from_bytes(buf[offset:offset + 8], "big")
        buf[offset:offset + 8] = ((old + add) & _U64_MASK).to_bytes(8, "big")
        return old
