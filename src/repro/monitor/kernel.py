"""Kernel statistics structure exposed in registered memory.

Layout (32 bytes, big-endian)::

    u32  n_threads          running application threads
    u32  load_x1000         run-queue length / cores * 1000
    u32  mem_used_mb
    u32  n_connections
    u64  updates            bump count (freshness diagnostics)
    u64  reserved

The kernel updates these words as part of its own bookkeeping, so the
refresh costs no application-visible CPU — which is why an RDMA read of
this region gives an accurate picture even on a saturated node (the
paper's key observation).
"""

from __future__ import annotations

from repro.errors import MonitorError
from repro.net.node import Node

__all__ = ["KernelStats", "STATS_BYTES"]

STATS_BYTES = 32

#: how often the kernel rewrites the exported structure (µs)
KERNEL_REFRESH_US = 50.0


class KernelStats:
    """Per-node exported kernel counters."""

    def __init__(self, node: Node):
        self.node = node
        self.env = node.env
        self.region = node.memory.register(STATS_BYTES,
                                           name=f"kstats@{node.name}")
        self.updates = 0
        #: extra connection count services can bump (RUBiS sessions etc.)
        self.connections = 0
        self._write()
        self.env.process(self._refresher(), name=f"kstats@{node.name}")

    # -- ground truth ------------------------------------------------------
    def true_threads(self) -> int:
        return self.node.cpu.active_jobs

    def true_load(self) -> float:
        return self.node.cpu.load

    # -- kernel-side refresh -------------------------------------------------
    def _write(self) -> None:
        self.updates += 1
        r = self.region
        r.write_u32(0, self.true_threads())
        r.write_u32(4, int(self.true_load() * 1000))
        r.write_u32(8, 0)
        r.write_u32(12, self.connections)
        r.write_u64(16, self.updates)

    def _refresher(self):
        while True:
            yield self.env.timeout(KERNEL_REFRESH_US)
            self._write()

    # -- decoding helpers ------------------------------------------------------
    @staticmethod
    def decode(blob: bytes) -> dict:
        if len(blob) < STATS_BYTES:
            raise MonitorError(f"short stats blob: {len(blob)} bytes")
        return {
            "n_threads": int.from_bytes(blob[0:4], "big"),
            "load": int.from_bytes(blob[4:8], "big") / 1000.0,
            "mem_used_mb": int.from_bytes(blob[8:12], "big"),
            "n_connections": int.from_bytes(blob[12:16], "big"),
            "updates": int.from_bytes(blob[16:24], "big"),
        }

    def snapshot(self) -> dict:
        """Zero-time direct view, the kernel's own perspective: what a
        socket scheme's back-end daemon reads once its CPU work is done."""
        return self.decode(self.region.read(0, STATS_BYTES))
