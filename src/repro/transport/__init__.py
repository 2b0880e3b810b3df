"""Communication protocol layer (the framework's bottom layer).

Implements the paper's "advanced communication protocols and subsystems":

* :mod:`repro.transport.tcpsock` — host-based TCP/IP socket emulation,
  the baseline the paper criticises: kernel copies and per-message/byte
  CPU work on both ends, so latency inflates with node load.
* :mod:`repro.transport.sdp` — Sockets Direct Protocol over RDMA:
  buffered-copy mode (BSDP) with credit-based flow control and zero-copy
  mode (ZSDP) with a SrcAvail/RDMA-read handshake.
* :mod:`repro.transport.azsdp` — Asynchronous Zero-copy SDP: the sender
  memory-protects the user buffer and returns immediately, overlapping
  transfers while preserving synchronous-socket semantics.
* :mod:`repro.transport.flowcontrol` — credit-based vs packetized
  (sender-managed RDMA ring) flow control for small messages.
* :mod:`repro.transport.rpc` — a request/response helper built on any of
  the above endpoints.  Only tests call it, and only it and tests call
  :mod:`~repro.transport.tcpsock`: no figure, scenario row, perf
  workload or CLI verb reaches either, and ``tests/test_reachability.py``
  allow-lists both until the ``one-request-path`` roadmap item.

All endpoints share one interface: ``listen(port)`` / ``connect(node,
port)`` yielding a connection with ``send(payload, size)`` and ``recv()``.
"""

from repro.transport.azsdp import AzSdpEndpoint
from repro.transport.base import Connection, Endpoint
from repro.transport.flowcontrol import (
    CreditFlowSender,
    PacketizedFlowSender,
    FlowReceiver,
)
from repro.transport.rpc import RpcClient, RpcServer
from repro.transport.sdp import BufferedSdpEndpoint, ZeroCopySdpEndpoint
from repro.transport.tcpsock import TcpEndpoint

__all__ = [
    "AzSdpEndpoint",
    "BufferedSdpEndpoint",
    "Connection",
    "CreditFlowSender",
    "Endpoint",
    "FlowReceiver",
    "PacketizedFlowSender",
    "RpcClient",
    "RpcServer",
    "TcpEndpoint",
    "ZeroCopySdpEndpoint",
]
