"""DDSS — the Distributed Data Sharing Substrate (paper §4.1, ref [20]).

A soft shared state for data-center services: named shared units are
allocated in registered memory contributed by cluster nodes and accessed
with one-sided RDMA ``get``/``put`` under one of six coherence models
(:class:`Coherence`).  Components map to the paper's Figure 2:

* Memory management — :class:`SegmentAllocator` (a bump pointer inside
  each node's contributed segment: no scenario releases a unit).
* Data placement — round-robin or explicit home-node hints at
  :meth:`DDSSClient.allocate`.
* Locking mechanisms — CAS-based unit locks with exponential backoff.
* Coherency & consistency maintenance — the six models of
  :class:`Coherence` plus version counters on every unit.

Example::

    from repro.net import Cluster
    from repro.ddss import DDSS, Coherence

    cluster = Cluster(n_nodes=4)
    ddss = DDSS(cluster)
    client = ddss.client(cluster.nodes[1])

    def app(env):
        key = yield client.allocate(256, coherence=Coherence.WRITE)
        yield client.put(key, b"shared-state")
        data = yield client.get(key)

    cluster.env.process(app(cluster.env))
    cluster.env.run()
"""

from repro.ddss.allocator import SegmentAllocator
from repro.ddss.client import DDSSClient
from repro.ddss.coherence import Coherence
from repro.ddss.substrate import (DDSS, INSTALL_BIT, TOMBSTONE, UnitMeta)

__all__ = [
    "Coherence",
    "DDSS",
    "DDSSClient",
    "INSTALL_BIT",
    "SegmentAllocator",
    "TOMBSTONE",
    "UnitMeta",
]
