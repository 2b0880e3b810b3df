"""Common machinery for the cooperative-cache schemes.

A scheme owns one :class:`LRUStore` per caching node plus a registered
*cache segment* per node that remote pulls/pushes target (timed at full
document size; the stored payload is the document's 8-byte token).

The web-server handler drives a scheme with two generator calls::

    source, token = yield from scheme.fetch_gen(proxy, doc)
    if source == "miss":
        token = yield from backend...      # origin fetch
        yield from scheme.admit_gen(proxy, doc)

``source`` is ``"local"``, ``"remote"`` or ``"miss"`` (``token`` then
None); ``fetch``/``admit`` run the two as processes, for direct use
from application processes.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.errors import CacheError
from repro.net.node import Node
from repro.sim import Event

from repro.cache.directory import CacheDirectory, ENTRY_BYTES
from repro.cache.store import LRUStore
from repro.workloads.filesets import FileSet

__all__ = ["CoopCacheBase"]

#: local memory-copy rate for serving a cached document (µs per byte)
LOCAL_COPY_US_PER_BYTE = 0.0005
LOCAL_LOOKUP_US = 0.3


class CoopCacheBase:
    """Shared state + helpers; subclasses implement the policy."""

    NAME = "base"
    #: whether this scheme consults a directory at all
    USES_DIRECTORY = True

    def __init__(self, proxy_nodes: Sequence[Node], fileset: FileSet,
                 capacity_bytes: int,
                 extra_nodes: Sequence[Node] = ()):
        if not proxy_nodes:
            raise CacheError("need at least one proxy node")
        self.proxies = list(proxy_nodes)
        self.extra = list(extra_nodes)
        self.fileset = fileset
        self.env = self.proxies[0].env
        self.capacity = capacity_bytes
        self.stores: Dict[int, LRUStore] = {}
        self._segments: Dict[int, object] = {}
        for node in self.cache_nodes():
            self.stores[node.id] = LRUStore(capacity_bytes,
                                            name=f"cache@{node.name}")
            self._segments[node.id] = node.memory.register(
                4096, name=f"cache-seg@{node.name}")
        self.directory = (CacheDirectory(self.directory_nodes(),
                                         fileset.n_docs)
                          if self.USES_DIRECTORY else None)
        self._nodes_by_id = {n.id: n for n in self.cache_nodes()}
        # stats
        self.local_hits = 0
        self.remote_hits = 0
        self.misses = 0
        self.stale_probes = 0

    # -- node sets (overridable) ------------------------------------------
    def cache_nodes(self) -> Sequence[Node]:
        """Nodes that contribute cache memory."""
        return self.proxies

    def directory_nodes(self) -> Sequence[Node]:
        """Nodes that shard the directory (defaults to the cache nodes)."""
        return self.cache_nodes()

    # -- public API -------------------------------------------------------
    def fetch(self, proxy: Node, doc: int) -> Event:
        return self.env.process(self.fetch_gen(proxy, doc),
                                name=f"{self.NAME}-fetch@{proxy.name}")

    def admit(self, proxy: Node, doc: int) -> Event:
        return self.env.process(self.admit_gen(proxy, doc),
                                name=f"{self.NAME}-admit@{proxy.name}")

    # -- policy hooks --------------------------------------------------------
    def fetch_gen(self, proxy: Node, doc: int):
        raise NotImplementedError
        yield  # pragma: no cover

    def admit_gen(self, proxy: Node, doc: int):
        raise NotImplementedError
        yield  # pragma: no cover

    # -- shared mechanics ----------------------------------------------------
    def _check_doc(self, doc: int) -> None:
        if not 0 <= doc < self.fileset.n_docs:
            raise CacheError(f"doc {doc} out of range")

    def _local_get(self, node: Node, doc: int):
        """Generator: local store lookup with copy cost on hit."""
        entry = self.stores[node.id].get(doc)
        if entry is None:
            yield self.env.timeout(LOCAL_LOOKUP_US)
            return None
        size, token = entry
        yield self.env.timeout(
            LOCAL_LOOKUP_US + size * LOCAL_COPY_US_PER_BYTE)
        return token

    def _pull(self, from_node: Node, holder_id: int, doc: int):
        """Generator: one-sided read of ``doc`` out of a peer's cache.

        Returns the token, or None if the peer no longer holds the
        document (stale directory) — the probe round trip is charged.
        """
        seg = self._segments[holder_id]
        entry = self.stores[holder_id].peek(doc)
        if entry is None:
            # stale hint: we still paid a small probe read
            self.stale_probes += 1
            yield from_node.nic.rdma_read(holder_id, seg.addr, seg.rkey,
                                          8, wire_bytes=ENTRY_BYTES)
            return None
        size, token = entry
        self.stores[holder_id].get(doc)  # refresh peer-side recency
        yield from_node.nic.rdma_read(holder_id, seg.addr, seg.rkey, 8,
                                      wire_bytes=size)
        return token

    def _push(self, from_node: Node, target: Node, doc: int):
        """Generator: place ``doc`` into a (possibly remote) store."""
        size = self.fileset.size(doc)
        token = self.fileset.token(doc)
        if target.id != from_node.id:
            seg = self._segments[target.id]
            yield from_node.nic.rdma_write(target.id, seg.addr, seg.rkey,
                                           token, wire_bytes=size)
        else:
            yield self.env.timeout(size * LOCAL_COPY_US_PER_BYTE)
        store = self.stores[target.id]
        evicted = store.insert(doc, size, token)
        obs = self.env.obs
        if obs is not None:
            # evictions are emitted before the admit so the cache
            # oracle's accounting sees the store shrink before it grows
            for edoc, esize in evicted:
                obs.trace.emit("cache.evict", node=target.id,
                               doc=edoc, size=esize)
                obs.metrics.counter("cache.evicts", node=target.id).inc()
            obs.trace.emit("cache.admit", node=target.id, doc=doc,
                           size=size, used=store.used,
                           capacity=store.capacity, tok=token.hex())
        yield from self._evict_fixups(from_node, target, evicted)

    def _evict_fixups(self, actor: Node, owner: Node, evicted):
        """Generator: keep the directory consistent after evictions."""
        if self.directory is None:
            return
            yield  # pragma: no cover
        for doc, _size in evicted:
            home = self.directory.host_of(doc)
            if home.id == owner.id:
                # entry lives on the evicting node: fix it in place
                # (zero-cost local memory write by the owner's agent)
                yield from self.directory.clear_if_holder(home, doc,
                                                          owner.id)
            else:
                yield from self.directory.clear_if_holder(actor, doc,
                                                          owner.id)

    # -- reconfiguration support --------------------------------------------
    def retire_node(self, victim: Node, delegate: Node,
                    migrate: bool = True):
        """Generator: hand a caching node over to another service.

        The victim's directory shard moves to ``delegate`` (fresh, i.e.
        empty).  With ``migrate=True`` the victim's cached documents are
        first pushed to the delegate over RDMA and re-registered in the
        relocated shard (cache-aware reconfiguration).  With
        ``migrate=False`` the state is simply lost — the blind
        reallocation whose "cache corruption" the paper's §6 warns
        about.  Either way the victim's store is wiped and no longer
        used for placement.
        """
        if self.directory is None:
            raise CacheError(f"{self.NAME} has no directory to delegate")
        if victim.id not in self.stores:
            raise CacheError(f"node {victim.name} is not a cache node")
        store = self.stores[victim.id]
        docs = list(store.docs())  # LRU -> MRU order
        if migrate:
            # make-before-break: populate the delegate while the old
            # shard and store still serve, then swap in a shard that is
            # already pre-loaded, so readers never observe a gap.
            # Pushing in LRU->MRU order leaves the hot head most recent
            # at the delegate, so any capacity evictions shed the tail.
            for doc in docs:
                yield from self._push(victim, delegate, doc)
            preload = {doc: (delegate.id, self.fileset.size(doc))
                       for doc in docs
                       if doc in self.stores[delegate.id]}
            self.directory.retire_shard(victim.id, delegate,
                                        preload=preload)
        else:
            self.directory.retire_shard(victim.id, delegate)
        obs = self.env.obs
        for doc in docs:
            if obs is not None:
                entry = store.peek(doc)
                if entry is not None:
                    obs.trace.emit("cache.evict", node=victim.id,
                                   doc=doc, size=entry[0])
                    obs.metrics.counter("cache.evicts",
                                        node=victim.id).inc()
            store.remove(doc)
        return None

    # -- stats + trace emission ----------------------------------------------
    def _note_local_hit(self, proxy: Node, doc: int,
                        token: bytes, t0: float) -> None:
        self.local_hits += 1
        if self.env.obs is not None:
            self._obs_access("cache.hit.local", proxy, doc,
                             tok=token.hex(), t0=t0)

    def _note_remote_hit(self, proxy: Node, doc: int,
                         token: bytes, t0: float, holder: int) -> None:
        self.remote_hits += 1
        if self.env.obs is not None:
            self._obs_access("cache.hit.remote", proxy, doc,
                             tok=token.hex(), t0=t0, holder=holder)

    def _note_miss(self, proxy: Node, doc: int) -> None:
        self.misses += 1
        self._obs_access("cache.miss", proxy, doc)

    _ACCESS_COUNTERS = {
        "cache.hit.local": "cache.local_hits",
        "cache.hit.remote": "cache.remote_hits",
        "cache.miss": "cache.misses",
    }

    def _obs_access(self, etype: str, proxy: Node, doc: int,
                    **extra) -> None:
        obs = self.env.obs
        if obs is not None:
            obs.trace.emit(etype, node=proxy.id, doc=doc, **extra)
            obs.metrics.counter(self._ACCESS_COUNTERS[etype],
                                node=proxy.id).inc()

    # -- diagnostics ---------------------------------------------------------
    @property
    def unique_docs_cached(self) -> int:
        seen = set()
        for store in self.stores.values():
            seen.update(store.docs())
        return len(seen)

    def hit_ratio(self) -> float:
        total = self.local_hits + self.remote_hits + self.misses
        if total == 0:
            return 0.0
        return (self.local_hits + self.remote_hits) / total
