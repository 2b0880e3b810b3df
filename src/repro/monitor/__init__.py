"""Active fine-grained resource monitoring (paper §5.2, ref [19]).

Every back-end node exposes a *kernel statistics* structure in
registered memory (:class:`KernelStats`) — thread count, load, memory,
connection counts — updated by the kernel itself.  Front-end nodes
observe it through one of five schemes:

* :class:`SocketSyncMonitor` — query/response to a user-level daemon on
  the back-end over sockets; the daemon competes for the loaded CPU, so
  responses are late exactly when accuracy matters most.
* :class:`SocketAsyncMonitor` — the daemon pushes periodically; adds
  staleness on top of the same scheduling delays.
* :class:`RdmaSyncMonitor` — the front-end RDMA-reads the kernel
  structure on demand: microsecond-fresh, zero back-end CPU.
* :class:`RdmaAsyncMonitor` — periodic RDMA polling; bounded staleness,
  zero back-end CPU.
* :class:`ERdmaSyncMonitor` — "enhanced" RDMA-sync: one read returns the
  whole statistics vector and derives a composite load index for better
  load-balancing decisions (the paper's e-RDMA-Sync).

:class:`MonitoredLoadBalancer` turns any monitor into a least-loaded
dispatcher for the Fig. 8b throughput experiment.
"""

from repro.monitor.kernel import KernelStats
from repro.monitor.phi import PhiAccrualDetector
from repro.monitor.quorum import QuorumGate
from repro.monitor.loadbalancer import MonitoredLoadBalancer
from repro.monitor.schemes import (
    ERdmaSyncMonitor,
    MonitorBase,
    RdmaAsyncMonitor,
    RdmaSyncMonitor,
    SocketAsyncMonitor,
    SocketSyncMonitor,
    MONITOR_SCHEMES,
)

__all__ = [
    "ERdmaSyncMonitor",
    "KernelStats",
    "MonitorBase",
    "MONITOR_SCHEMES",
    "MonitoredLoadBalancer",
    "PhiAccrualDetector",
    "QuorumGate",
    "RdmaAsyncMonitor",
    "RdmaSyncMonitor",
    "SocketAsyncMonitor",
    "SocketSyncMonitor",
]
