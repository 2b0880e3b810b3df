"""Communication protocol layer (the framework's bottom layer).

Implements the paper's "advanced communication protocols and subsystems":

* :mod:`repro.transport.sdp` — Sockets Direct Protocol over RDMA:
  buffered-copy mode (BSDP) with credit-based flow control, zero-copy
  mode (ZSDP) with a SrcAvail/RDMA-read handshake, and asynchronous
  zero copy (AZ-SDP), which reuses the ZSDP pull behind a
  memory-protected send that returns at once.
* :mod:`repro.transport.flowcontrol` — credit-based vs packetized
  (sender-managed RDMA ring) flow control for small messages.
* :mod:`repro.transport.rpc` — the one request/reply path over raw NIC
  messages (the DDSS control plane, STORM's traditional coordinator and
  the socket-sync monitor): a deadline, bounded retry and at-most-once
  execution, armed only under a fault injector.

The host TCP/IP socket baseline is a cost, not an endpoint:
``NetworkParams.sock_cpu_us``, charged by :func:`repro.transport.rpc.sock`.

The SDP endpoints share one interface: ``listen(port)`` /
``connect(node, port)`` yielding a connection with ``send(payload,
size)`` and ``recv()``.
"""

from repro import _lazy

_EXPORTS = {"AzSdpEndpoint": "repro.transport.sdp",
            "BufferedSdpEndpoint": "repro.transport.sdp",
            "ZeroCopySdpEndpoint": "repro.transport.sdp",
            "CreditFlowSender": "repro.transport.flowcontrol",
            "FlowReceiver": "repro.transport.flowcontrol",
            "PacketizedFlowSender": "repro.transport.flowcontrol"}
__getattr__ = _lazy(globals(), _EXPORTS)
__all__ = list(_EXPORTS)
