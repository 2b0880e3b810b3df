"""Closed-loop client population.

``n_sessions`` concurrent sessions live on the client node; each one
repeatedly draws a document from the Zipf stream, dispatches it to the
next proxy in round-robin order, and waits for the full response before
issuing the next request, with no think time.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from repro.errors import ConfigError
from repro.net.node import Node

from repro.datacenter.server import ProxyServer
from repro.workloads.zipf import ZipfGenerator

__all__ = ["ClosedLoopClients"]

#: client->proxy request size on the wire
REQ_BYTES = 200


class ClosedLoopClients:
    """Session pool driving the proxy tier."""

    def __init__(self, client_node: Node, proxies: Sequence[ProxyServer],
                 zipf: ZipfGenerator, n_sessions: int = 32):
        if not proxies:
            raise ConfigError("need at least one proxy server")
        if n_sessions <= 0:
            raise ConfigError("need at least one session")
        self.node = client_node
        self.env = client_node.env
        self.proxies = list(proxies)
        self.zipf = zipf
        self.n_sessions = n_sessions
        self._rr = itertools.count()
        self.issued = 0
        self._running = False

    def start(self) -> None:
        if self._running:
            raise ConfigError("clients already started")
        self._running = True
        for i in range(self.n_sessions):
            self.env.process(self._session(i), name=f"client-session-{i}")

    def _session(self, idx: int):
        # de-synchronize session starts slightly
        yield self.env.timeout(idx * 3.0)
        while True:
            doc = self.zipf.next()
            proxy = self.proxies[next(self._rr) % len(self.proxies)]
            self.issued += 1
            yield self.node.fabric.transfer(self.node.id,
                                            proxy.node.id, REQ_BYTES)
            yield proxy.handle(doc, self.node.id)
