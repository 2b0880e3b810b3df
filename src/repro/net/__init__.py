"""Simulated cluster network: nodes, RDMA NICs, fabric, memory regions.

This package is the substitute for the paper's InfiniBand testbed.  The
semantics are real — RDMA reads/writes/atomics operate on actual bytes in
per-node memory regions, each a demand-zero private mapping with rkey
protection — while time is provided by the discrete-event kernel in
:mod:`repro.sim` using calibrated latency/bandwidth parameters
(:class:`NetworkParams`).

Typical use::

    from repro.net import Cluster, NetworkParams

    cluster = Cluster(n_nodes=4, params=NetworkParams.infiniband())
    a, b = cluster.nodes[0], cluster.nodes[1]
    region = b.memory.register(4096)

    def app(env):
        data = yield a.nic.rdma_read(b.id, region.addr, region.rkey, 64)
        old = yield a.nic.cas(b.id, region.addr, region.rkey, 0, 42)

    cluster.env.process(app(cluster.env))
    cluster.env.run()
"""

from repro.net.cluster import Cluster
from repro.net.fabric import Fabric
from repro.net.memory import MemoryManager, MemoryRegion, RemoteKey
from repro.net.nic import NIC, Message
from repro.net.node import Node
from repro.net.params import NetworkParams

__all__ = [
    "Cluster",
    "Fabric",
    "MemoryManager",
    "MemoryRegion",
    "Message",
    "NIC",
    "NetworkParams",
    "Node",
    "RemoteKey",
]
