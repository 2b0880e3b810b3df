"""The app/backend tier: origin of documents on a cache miss.

A miss costs a request message to an app node, *dynamic content
generation* on that node's shared CPU (base + per-byte work — the
expensive part, cf. the dynamic-content workloads the paper targets),
and the transfer of the document back to the proxy.  App nodes are
selected round-robin; their processor-sharing CPUs make the tier
saturate under miss-heavy load, which is what cooperative caching is
protecting against.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from repro.errors import ConfigError
from repro.net.node import Node
from repro.workloads.filesets import FileSet

__all__ = ["BackendTier"]

#: dynamic-generation CPU cost: base + per-byte (µs)
GEN_BASE_US = 250.0
GEN_PER_BYTE_US = 0.01
#: request message size proxy -> app
REQ_BYTES = 256


class BackendTier:
    """Round-robin pool of app/backend nodes serving origin fetches."""

    def __init__(self, nodes: Sequence[Node], fileset: FileSet):
        if not nodes:
            raise ConfigError("backend tier needs at least one node")
        self.nodes = list(nodes)
        self.fileset = fileset
        self._rr = itertools.count()
        self.requests = 0

    def fetch_gen(self, proxy: Node, doc: int):
        """Generator: full origin fetch; returns the document token."""
        self.requests += 1
        app = self.nodes[next(self._rr) % len(self.nodes)]
        size = self.fileset.size(doc)
        fabric = proxy.fabric
        # request to the app server
        yield fabric.transfer(proxy.id, app.id, REQ_BYTES)
        # dynamic content generation on the app node's shared CPU
        yield app.cpu.run(GEN_BASE_US + size * GEN_PER_BYTE_US,
                          name="backend-gen")
        # response back to the proxy
        yield fabric.transfer(app.id, proxy.id, size)
        return self.fileset.token(doc)
