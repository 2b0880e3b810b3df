"""AZ-SDP — Asynchronous Zero-copy SDP (Balaji et al., CAC'06, ref [3]).

The key idea from the paper: keep the *synchronous* sockets interface but
perform the transfer *asynchronously*.  On ``send`` the user buffer is
memory-protected (so the application cannot scribble on in-flight data)
and control returns immediately; the receiver pulls the payload with an
RDMA read exactly as in ZSDP.  If the application touches a protected
buffer before its transfer completes, the page-fault handler blocks it
until RdmaDone and charges a fault penalty.

Model knobs:

* ``PROTECT_US`` — mprotect + bookkeeping per send.
* ``FAULT_US`` — page-fault handling when a buffer is touched early.
* ``MAX_INFLIGHT`` — window of outstanding protected buffers; ``send``
  blocks when the window is full (mirrors the real stack's limit on
  outstanding SrcAvails).

``send(payload, size, buf=...)`` identifies the user buffer; re-sending
from a buffer that is still in flight triggers the page-fault path.  Distinct buffers overlap freely — that is
the whole point.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.errors import TransportError
from repro.sim import Event, Resource

from repro.transport.base import Connection, Datagram
from repro.transport.sdp import _SdpEndpointBase, pin_us

__all__ = ["AzSdpEndpoint", "AzSdpConnection", "PROTECT_US", "FAULT_US"]


PROTECT_US = 1.5
FAULT_US = 8.0
MAX_INFLIGHT = 8


class AzSdpConnection(Connection):
    """AZ-SDP connection: asynchronous zero-copy sends."""

    def __init__(self, endpoint, peer_node, conn_id, peer_conn_id):
        super().__init__(endpoint, peer_node, conn_id=conn_id)
        self.peer_conn_id = peer_conn_id
        self._window = Resource(self.env, capacity=MAX_INFLIGHT)
        self._done_events: Dict[int, Event] = {}
        #: buffer name -> completion event of its in-flight transfer
        self._inflight_bufs: Dict[Any, Event] = {}
        self.page_faults = 0

    # -- send path ---------------------------------------------------------
    def send(self, payload: Any = None, size: int = 0,
             buf: Optional[Any] = None) -> Event:
        """Asynchronous send; the event fires when send() *returns* to the
        app (after protect), not when the data has moved."""
        self._check_open()
        self._account_tx(size)
        return self.env.process(self._send_proc(payload, size, buf),
                                name=f"azsdp-send@{self.node.name}")

    def _send_proc(self, payload, size, buf):
        # Touching a buffer that is still in flight faults and blocks.
        if buf is not None and buf in self._inflight_bufs:
            yield from self._fault_wait(buf)
        yield self._window.acquire()
        yield self.env.timeout(PROTECT_US + pin_us(size))
        datagram = Datagram(payload=payload, size=size, sent_at=self.env.now)
        xid = self.env.next_id("azsdp-xfer")
        done = self.env.event()
        self._done_events[xid] = done
        if buf is not None:
            self._inflight_bufs[buf] = done
        key = self.endpoint.staging.remote_key()
        self.node.nic.post(self.peer_node, payload={
            "kind": "srcavail", "conn_id": self.peer_conn_id,
            "xid": xid, "dgram": datagram, "key": key, "buf": buf,
        }, size=0, tag=self.endpoint.WIRE_TAG)

        def on_done(_ev, buf=buf):
            self._window.release()
            if buf is not None and self._inflight_bufs.get(buf) is _ev:
                del self._inflight_bufs[buf]

        done.add_callback(on_done)
        # Control returns to the app immediately: async under the hood.
        return None

    def _fault_wait(self, buf):
        self.page_faults += 1
        done = self._inflight_bufs[buf]
        yield self.env.timeout(FAULT_US)
        yield done

    # -- receive path (identical pull to ZSDP) ------------------------------
    def recv(self) -> Event:
        self._check_open()
        return self.env.process(self._recv_proc(),
                                name=f"azsdp-recv@{self.node.name}")

    def _recv_proc(self):
        frame = yield self._inbox.get()
        datagram, key, xid = frame["dgram"], frame["key"], frame["xid"]
        wire = max(datagram.size, 8)
        yield self.node.nic.rdma_read(key.node, key.addr, key.rkey, 8,
                                      wire_bytes=wire)
        self.node.nic.post(self.peer_node, payload={
            "kind": "rdmadone", "conn_id": self.peer_conn_id, "xid": xid,
        }, size=0, tag=self.endpoint.WIRE_TAG)
        datagram.delivered_at = self.env.now
        return datagram

    def _on_frame(self, kind: str, body: dict) -> None:
        if kind == "srcavail":
            self._inbox.try_put(body)
        elif kind == "rdmadone":
            done = self._done_events.pop(body["xid"], None)
            if done is not None:
                done.succeed()
        else:  # pragma: no cover - defensive
            raise TransportError(f"unexpected AZ-SDP frame {kind!r}")


class AzSdpEndpoint(_SdpEndpointBase):
    """SDP endpoint in asynchronous zero-copy mode."""

    WIRE_TAG = "azsdp"
    CONN_CLS = AzSdpConnection
