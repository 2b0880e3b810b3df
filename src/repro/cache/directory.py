"""RDMA-readable cache directory.

Every document has a *directory home* among the caching nodes
(``hash(doc) % n``).  The home keeps a 16-byte entry in registered
memory::

    u32  holder + 1   (0 = not cached anywhere we know of)
    u32  size
    u64  generation   (bumped on every update; staleness diagnostics)

Lookups and updates from the home node itself are memory operations;
from any other node they are one-sided RDMA reads/writes — no home CPU.
Directory information may be *stale* (a holder can evict without the
directory knowing if the clearing write races a newer update); callers
must treat a failed remote probe as a miss, exactly like the paper's
schemes do.
"""

from __future__ import annotations

import struct
from typing import Dict, Optional, Sequence, Tuple

from repro.errors import CacheError
from repro.net.node import Node

__all__ = ["CacheDirectory"]

#: one entry: holder + 1, size, generation (big-endian)
_ENTRY = struct.Struct(">IIQ")
ENTRY_BYTES = _ENTRY.size
#: cost of a directory access served from local memory (µs)
LOCAL_ACCESS_US = 0.2


class CacheDirectory:
    """Directory sharded across the caching nodes."""

    def __init__(self, nodes: Sequence[Node], n_docs: int):
        if not nodes:
            raise CacheError("directory needs at least one node")
        if n_docs <= 0:
            raise CacheError("directory needs at least one document")
        self.nodes = list(nodes)
        self.n_docs = n_docs
        self.env = self.nodes[0].env
        self._regions: Dict[int, object] = {}
        #: shard host per logical home (changes when a node is retired)
        self._hosts: Dict[int, Node] = {n.id: n for n in self.nodes}
        for node in self.nodes:
            self._regions[node.id] = node.memory.register(
                ENTRY_BYTES * n_docs, name=f"cache-dir@{node.name}")
        self.lookups = 0
        self.updates = 0
        self.remote_lookups = 0

    # -- placement ----------------------------------------------------------
    def host_of(self, doc: int) -> Node:
        """Physical host of the doc's shard: its logical home, a fixed
        hash over the original membership, until a retirement moves it."""
        return self._slot(doc)[0]

    def retire_shard(self, node_id: int, delegate: Node,
                     preload: Optional[Dict[int, Tuple[int, int]]] = None
                     ) -> None:
        """Move a retired node's directory shard to ``delegate``.

        The replacement shard is freshly registered; ``preload`` maps
        doc -> (holder, size) entries written into it *before* the swap
        (make-before-break: lookups never observe an empty shard for
        documents whose state was migrated).  A blind reconfiguration
        passes no preload and simply loses the state, as the paper's §6
        cache-corruption discussion warns.
        """
        if node_id not in self._hosts:
            raise CacheError(f"node {node_id} does not host a shard")
        if delegate.id == node_id:
            raise CacheError("cannot delegate a shard to itself")
        region = delegate.memory.register(
            ENTRY_BYTES * self.n_docs,
            name=f"cache-dir-delegated-{node_id}@{delegate.name}")
        if preload:
            for doc, (holder, size) in preload.items():
                self._check(doc)
                region.write(ENTRY_BYTES * doc,
                             _ENTRY.pack(holder + 1, size, 1))
        self._hosts[node_id] = delegate
        self._regions[node_id] = region

    def _check(self, doc: int) -> None:
        if not 0 <= doc < self.n_docs:
            raise CacheError(f"doc {doc} out of directory range")

    def _slot(self, doc: int):
        if not 0 <= doc < self.n_docs:
            raise CacheError(f"doc {doc} out of directory range")
        home_id = self.nodes[doc % len(self.nodes)].id
        return (self._hosts[home_id], self._regions[home_id],
                ENTRY_BYTES * doc)

    # -- operations (generators; run inside a process) ---------------------
    def lookup(self, from_node: Node, doc: int):
        """Generator -> (holder_node_id | None, size)."""
        self.lookups += 1
        home, region, off = self._slot(doc)
        if home.id == from_node.id:
            yield self.env.timeout(LOCAL_ACCESS_US)
            blob = region.read(off, ENTRY_BYTES)
        else:
            self.remote_lookups += 1
            blob = yield from_node.nic.rdma_read(
                home.id, region.addr + off, region.rkey, ENTRY_BYTES)
        holder, size, _gen = _ENTRY.unpack(blob)
        return (holder - 1 if holder else None), size

    def update(self, from_node: Node, doc: int, holder_id, size: int):
        """Generator: publish (holder, size) for ``doc``."""
        self.updates += 1
        home, region, off = self._slot(doc)
        gen = int.from_bytes(region.read(off + 8, 8), "big") + 1
        blob = _ENTRY.pack(0 if holder_id is None else holder_id + 1,
                           size, gen)
        if home.id == from_node.id:
            yield self.env.timeout(LOCAL_ACCESS_US)
            region.write(off, blob)
        else:
            yield from_node.nic.rdma_write(
                home.id, region.addr + off, region.rkey, blob)
        return None

    def clear_if_holder(self, from_node: Node, doc: int, holder_id: int):
        """Generator: read-check-clear (used after an eviction).

        Only clears when the directory still names ``holder_id`` — a
        concurrent newer update must not be clobbered.
        """
        current, size = yield from self.lookup(from_node, doc)
        if current == holder_id:
            yield from self.update(from_node, doc, None, 0)
            return True
        return False
