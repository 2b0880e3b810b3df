"""Communication protocol layer (the framework's bottom layer).

Implements the paper's "advanced communication protocols and subsystems":

* :mod:`repro.transport.sdp` — Sockets Direct Protocol over RDMA:
  buffered-copy mode (BSDP) with credit-based flow control and zero-copy
  mode (ZSDP) with a SrcAvail/RDMA-read handshake.
* :mod:`repro.transport.azsdp` — Asynchronous Zero-copy SDP: the sender
  memory-protects the user buffer and returns immediately, overlapping
  transfers while preserving synchronous-socket semantics.
* :mod:`repro.transport.flowcontrol` — credit-based vs packetized
  (sender-managed RDMA ring) flow control for small messages.
* :mod:`repro.transport.rpc` — the one request/reply path over raw NIC
  messages (the DDSS control plane): a deadline, bounded retry and
  at-most-once execution, armed only under a fault injector.

The host TCP/IP socket baseline is a cost, not an endpoint:
``NetworkParams.sock_cpu_us`` charged in :mod:`repro.monitor.schemes`
and :mod:`repro.apps.storm`.

The SDP endpoints share one interface: ``listen(port)`` /
``connect(node, port)`` yielding a connection with ``send(payload,
size)`` and ``recv()``.
"""

from repro.transport.azsdp import AzSdpEndpoint
from repro.transport.base import Connection, Endpoint
from repro.transport.flowcontrol import (
    CreditFlowSender,
    PacketizedFlowSender,
    FlowReceiver,
)
from repro.transport.sdp import BufferedSdpEndpoint, ZeroCopySdpEndpoint

__all__ = [
    "AzSdpEndpoint",
    "BufferedSdpEndpoint",
    "Connection",
    "CreditFlowSender",
    "Endpoint",
    "FlowReceiver",
    "PacketizedFlowSender",
    "ZeroCopySdpEndpoint",
]
