"""Multi-tier data-center model: proxies, app/backend tier, clients.

Assembles the paper's evaluation testbed: a client node drives
closed-loop load through a front-end dispatcher onto a proxy tier whose
web servers consult a cooperative-cache scheme; misses are generated by
an app/backend tier whose (processor-shared) CPUs are the expensive
resource.  Throughput is reported in transactions per second.
"""

from repro.datacenter.backend import BackendTier
from repro.datacenter.builder import DataCenter
from repro.datacenter.loadgen import ClosedLoopClients
from repro.datacenter.metrics import DataCenterMetrics
from repro.datacenter.server import ProxyServer

__all__ = [
    "BackendTier",
    "ClosedLoopClients",
    "DataCenter",
    "DataCenterMetrics",
    "ProxyServer",
]
