"""Proxy-tier web server.

One :class:`ProxyServer` per proxy node: a bounded worker pool (Apache
worker model) that parses the request on the shared CPU, consults the
cooperative-cache scheme, falls back to the backend tier on a miss
(admitting the document afterwards), and streams the response to the
client over the fabric.
"""

from __future__ import annotations

from repro.errors import CacheError
from repro.net.node import Node
from repro.sim import Event, Process, Resource

from repro.cache.base import CoopCacheBase
from repro.datacenter.backend import BackendTier
from repro.datacenter.metrics import DataCenterMetrics

__all__ = ["ProxyServer"]

#: request parsing / header handling on the proxy CPU (µs)
PARSE_US = 8.0
#: response assembly CPU per byte (checksums, headers; µs/B)
SEND_CPU_US_PER_BYTE = 0.0002
#: worker pool of one proxy (Apache worker model)
N_WORKERS = 16


class ProxyServer:
    """Worker-pool server bound to one proxy node.

    Every response is checked against the file set before it is sent:
    a cache that serves the wrong content raises :class:`CacheError`.
    """

    def __init__(self, node: Node, scheme: CoopCacheBase,
                 backend: BackendTier, metrics: DataCenterMetrics):
        self.node = node
        self.env = node.env
        self.scheme = scheme
        self.backend = backend
        self.metrics = metrics
        self.workers = Resource(self.env, capacity=N_WORKERS)
        self.served = 0
        self.queue_peak = 0

    def handle(self, doc: int, client_node_id: int) -> Event:
        """Serve one request; the event fires when the response has been
        delivered to the client."""
        return Process(self.env, self._handle(doc, client_node_id),
                       name=f"serve@{self.node.name}")

    def _handle(self, doc: int, client_node_id: int):
        started = self.env.now
        waiting = len(self.workers._waiters)
        if waiting > self.queue_peak:
            self.queue_peak = waiting
        yield self.workers.acquire()
        try:
            yield self.node.cpu.run(PARSE_US, name="parse")
            source, token = yield from self.scheme.fetch_gen(self.node, doc)
            if source == "miss":
                token = yield from self.backend.fetch_gen(self.node, doc)
                yield from self.scheme.admit_gen(self.node, doc)
            if not self.scheme.fileset.verify(doc, token):
                raise CacheError(
                    f"cache served wrong content for doc {doc}")
            size = self.scheme.fileset.size(doc)
            yield self.node.cpu.run(size * SEND_CPU_US_PER_BYTE,
                                    name="respond")
            yield self.node.fabric.transfer(self.node.id, client_node_id,
                                            size)
        finally:
            self.workers.release()
        self.served += 1
        self.metrics.record(started)
        return None
