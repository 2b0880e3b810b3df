"""The five caching policies (paper §5.1, Fig. 6)."""

from __future__ import annotations

from typing import Sequence

from repro.net.node import Node

from repro.cache.base import CoopCacheBase

__all__ = [
    "ApacheCache",
    "BasicCooperativeCache",
    "CacheWithoutRedundancy",
    "MultiTierAggregateCache",
    "HybridCache",
    "SCHEMES",
]

MISS = ("miss", None)


class ApacheCache(CoopCacheBase):
    """AC — independent per-proxy LRU; no cooperation (the baseline)."""

    NAME = "AC"
    USES_DIRECTORY = False

    def fetch_gen(self, proxy: Node, doc: int):
        self._check_doc(doc)
        t0 = self.env.now
        token = yield from self._local_get(proxy, doc)
        if token is not None:
            self._note_local_hit(proxy, doc, token, t0)
            return "local", token
        self._note_miss(proxy, doc)
        return MISS

    def admit_gen(self, proxy: Node, doc: int):
        yield from self._push(proxy, proxy, doc)


class BasicCooperativeCache(CoopCacheBase):
    """BCC — aggregate the proxy caches over RDMA, duplicates allowed.

    Miss path: local store -> directory -> one-sided pull from the
    holder -> *also* cache locally (duplication buys future local hits
    at the price of aggregate capacity).
    """

    NAME = "BCC"

    def fetch_gen(self, proxy: Node, doc: int):
        self._check_doc(doc)
        t0 = self.env.now
        token = yield from self._local_get(proxy, doc)
        if token is not None:
            self._note_local_hit(proxy, doc, token, t0)
            return "local", token
        holder, _size = yield from self.directory.lookup(proxy, doc)
        if holder is not None and holder != proxy.id:
            t0 = self.env.now  # pull interval starts after the lookup
            token = yield from self._pull(proxy, holder, doc)
            if token is not None:
                self._note_remote_hit(proxy, doc, token, t0, holder)
                # duplicate locally and advertise ourselves as a holder
                yield from self._push(proxy, proxy, doc)
                yield from self.directory.update(proxy, doc, proxy.id,
                                                 self.fileset.size(doc))
                return "remote", token
        self._note_miss(proxy, doc)
        return MISS

    def admit_gen(self, proxy: Node, doc: int):
        yield from self._push(proxy, proxy, doc)
        yield from self.directory.update(proxy, doc, proxy.id,
                                         self.fileset.size(doc))


class CacheWithoutRedundancy(CoopCacheBase):
    """CCWR — exactly one copy cluster-wide, at the document's home.

    Duplicate elimination doubles-to-n-times the effective cache size,
    so large working sets fit; the cost is that (n-1)/n of all hits are
    one-sided remote reads.
    """

    NAME = "CCWR"

    def fetch_gen(self, proxy: Node, doc: int):
        self._check_doc(doc)
        t0 = self.env.now
        home = self.directory.host_of(doc)
        if home.id == proxy.id:
            token = yield from self._local_get(proxy, doc)
            if token is not None:
                self._note_local_hit(proxy, doc, token, t0)
                return "local", token
            self._note_miss(proxy, doc)
            return MISS
        holder, _size = yield from self.directory.lookup(proxy, doc)
        if holder is not None:
            t0 = self.env.now
            token = yield from self._pull(proxy, holder, doc)
            if token is not None:
                self._note_remote_hit(proxy, doc, token, t0, holder)
                return "remote", token
        self._note_miss(proxy, doc)
        return MISS

    def admit_gen(self, proxy: Node, doc: int):
        home = self.directory.host_of(doc)
        yield from self._push(proxy, home, doc)
        yield from self.directory.update(proxy, doc, home.id,
                                         self.fileset.size(doc))


class MultiTierAggregateCache(CacheWithoutRedundancy):
    """MTACC — CCWR whose cache/directory span extra (app-tier) nodes.

    The additional tiers' idle memory raises aggregate capacity; the
    policy is otherwise identical to CCWR.
    """

    NAME = "MTACC"

    def cache_nodes(self) -> Sequence[Node]:
        return list(self.proxies) + list(self.extra)


class HybridCache(CoopCacheBase):
    """HYBCC — duplicate small documents, single-copy large ones.

    Small documents take the BCC-style path (local duplication: the
    extra copies are cheap and convert remote hits into local ones);
    documents above ``threshold`` take the MTACC-style path over the
    full node set (capacity matters more than locality for them).

    The paper picks the scheme "based on a method that can achieve the
    best possible performance"; the 8 KB default threshold is where the
    duplication-vs-capacity crossover lands for the Fig. 6 workloads.
    """

    NAME = "HYBCC"

    def __init__(self, proxy_nodes, fileset, capacity_bytes,
                 extra_nodes=(), threshold: int = 8 * 1024):
        self.threshold = threshold
        super().__init__(proxy_nodes, fileset, capacity_bytes,
                         extra_nodes=extra_nodes)

    def cache_nodes(self) -> Sequence[Node]:
        return list(self.proxies) + list(self.extra)

    def _small(self, doc: int) -> bool:
        return self.fileset.size(doc) <= self.threshold

    def fetch_gen(self, proxy: Node, doc: int):
        self._check_doc(doc)
        t0 = self.env.now
        if self._small(doc):
            # BCC-style: local first, then any advertised holder
            token = yield from self._local_get(proxy, doc)
            if token is not None:
                self._note_local_hit(proxy, doc, token, t0)
                return "local", token
            holder, _size = yield from self.directory.lookup(proxy, doc)
            if holder is not None and holder != proxy.id:
                t0 = self.env.now
                token = yield from self._pull(proxy, holder, doc)
                if token is not None:
                    self._note_remote_hit(proxy, doc, token, t0, holder)
                    yield from self._push(proxy, proxy, doc)
                    yield from self.directory.update(
                        proxy, doc, proxy.id, self.fileset.size(doc))
                    return "remote", token
            self._note_miss(proxy, doc)
            return MISS
        # MTACC-style: single copy at the (extended-set) home
        home = self.directory.host_of(doc)
        if home.id == proxy.id:
            token = yield from self._local_get(proxy, doc)
            if token is not None:
                self._note_local_hit(proxy, doc, token, t0)
                return "local", token
        else:
            holder, _size = yield from self.directory.lookup(proxy, doc)
            if holder is not None:
                t0 = self.env.now
                token = yield from self._pull(proxy, holder, doc)
                if token is not None:
                    self._note_remote_hit(proxy, doc, token, t0, holder)
                    return "remote", token
        self._note_miss(proxy, doc)
        return MISS

    def admit_gen(self, proxy: Node, doc: int):
        if self._small(doc):
            yield from self._push(proxy, proxy, doc)
            yield from self.directory.update(proxy, doc, proxy.id,
                                             self.fileset.size(doc))
        else:
            home = self.directory.host_of(doc)
            yield from self._push(proxy, home, doc)
            yield from self.directory.update(proxy, doc, home.id,
                                             self.fileset.size(doc))


#: scheme registry in the paper's Figure 6 order
SCHEMES = {
    "AC": ApacheCache,
    "BCC": BasicCooperativeCache,
    "CCWR": CacheWithoutRedundancy,
    "MTACC": MultiTierAggregateCache,
    "HYBCC": HybridCache,
}
