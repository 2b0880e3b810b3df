"""Sockets Direct Protocol (SDP) over the RDMA fabric.

Three operation modes from the paper's prior work ([5], [3]):

* **BSDP** (:class:`BufferedSdpEndpoint`) — buffered copy mode.  Small
  messages are memcpy'd into preposted 8 KB buffers under credit-based
  flow control.  Cheap per message (no kernel TCP stack) but pays one
  copy per end and stalls when credits run out.
* **ZSDP** (:class:`ZeroCopySdpEndpoint`) — synchronous zero copy.  The
  sender pins the user buffer and advertises it (SrcAvail); the receiver
  RDMA-reads the payload directly and replies RdmaDone.  ``send`` blocks
  until RdmaDone, preserving synchronous socket semantics with no copies
  — a win for large messages, a loss for small ones (handshake cost).
* **AZ-SDP** (:class:`AzSdpEndpoint`) — asynchronous zero copy (Balaji
  et al., CAC'06, ref [3]): keep the *synchronous* sockets interface but
  perform the transfer *asynchronously*.  On ``send`` the user buffer is
  memory-protected (so the application cannot scribble on in-flight
  data) and control returns immediately; the receiver pulls the payload
  with the ZSDP RDMA read.  ``send(payload, size, buf=...)`` names the
  user buffer: re-sending from a buffer still in flight takes the
  page-fault path (``FAULT_US``, then block until RdmaDone), while
  distinct buffers overlap freely — that is the whole point.  At most
  ``MAX_INFLIGHT`` protected buffers are outstanding (the real stack's
  limit on outstanding SrcAvails); ``PROTECT_US`` is the mprotect and
  bookkeeping cost per send.

Every endpoint binds to one :class:`repro.net.node.Node` and offers
connections with message boundaries (like how the paper's services
actually use sockets)::

    server_ep = BufferedSdpEndpoint(server_node)
    listener = server_ep.listen(port=80)

    # server side
    conn = yield listener.accept()
    msg = yield conn.recv()                # a Datagram(payload, size)
    yield conn.send(reply, size=128)

    # client side
    conn = yield client_ep.connect(server_node.id, port=80)
    yield conn.send(request, size=64)

``send`` returns an event that fires when the *application's* send call
would return (after the copy for BSDP, after remote completion for ZSDP,
after the protect for AZ-SDP).  ``recv`` fires when application data is
available after receive-side costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.errors import TransportError
from repro.sim import Event, Resource, Store

__all__ = ["BufferedSdpEndpoint", "ZeroCopySdpEndpoint", "AzSdpEndpoint",
           "BufferedSdpConnection", "ZeroCopySdpConnection",
           "AzSdpConnection", "Datagram", "Listener"]


#: memcpy-style copy costs (protocol offloaded; no kernel TCP stack).
#: 2007-era sustained copy with cache pollution runs ~800 MB/s — below
#: the IB wire rate, which is exactly why zero copy pays off for large
#: messages.
BCOPY_PER_MSG_US = 1.0
BCOPY_PER_BYTE_US = 0.0012

#: credit-based flow control (paper's example: 8 KB buffers)
SDP_BUF_BYTES = 8192
SDP_CREDITS = 16

#: zero-copy costs
PIN_BASE_US = 5.0          # buffer pinning / SrcAvail preparation
PIN_PER_KB_US = 0.01       # page-table walk scales mildly with size

#: AZ-SDP costs and window
PROTECT_US = 1.5
FAULT_US = 8.0
MAX_INFLIGHT = 8


def bcopy_us(nbytes: int) -> float:
    """CPU cost of one buffered-SDP copy of ``nbytes``."""
    return BCOPY_PER_MSG_US + nbytes * BCOPY_PER_BYTE_US


def pin_us(nbytes: int) -> float:
    """Cost of pinning a user buffer for zero-copy transmission."""
    return PIN_BASE_US + (nbytes / 1024.0) * PIN_PER_KB_US


@dataclass
class Datagram:
    """An application-level message moving through a connection."""

    payload: Any
    size: int


class Listener:
    """Accept queue for one (node, port)."""

    def __init__(self, env):
        self._accepts: Store = Store(env)

    def accept(self) -> Event:
        """Wait for the next inbound connection; value is a connection."""
        return self._accepts.get()


class _SdpConnection:
    """One side of an established connection."""

    def __init__(self, endpoint: "_SdpEndpoint", peer_node: int,
                 peer_conn_id: int):
        self.endpoint = endpoint
        self.env = endpoint.env
        self.node = endpoint.node
        self.peer_node = peer_node
        self.peer_conn_id = peer_conn_id
        self._inbox: Store = Store(self.env)

    def _post(self, body: dict, size: int = 0) -> None:
        """Send one protocol frame to the peer side of this connection."""
        body["conn_id"] = self.peer_conn_id
        self.node.nic.post(self.peer_node, payload=body, size=size,
                           tag=self.endpoint.WIRE_TAG)


class _SdpEndpoint:
    """Shared handshake, dispatch and ``listen`` for all SDP variants."""

    #: tag namespace on the NIC, distinct per variant
    WIRE_TAG = "sdp"
    CONN_CLS: type = None  # set by subclasses

    def __init__(self, node):
        self.node = node
        self.env = node.env
        registry = node.services.setdefault("endpoints", {})
        if self.WIRE_TAG in registry:
            raise TransportError(
                f"node {node.name} already has a {type(self).__name__}")
        registry[self.WIRE_TAG] = self
        self._listeners: Dict[int, Listener] = {}
        self._conns: Dict[int, _SdpConnection] = {}
        self._pending_connects: Dict[int, Event] = {}
        # Staging region standing in for pinned user buffers: remote
        # zero-copy reads target this window (timed at full payload size).
        self.staging = node.memory.register(4096, name="sdp-staging")
        self.env.process(self._dispatch(), name=f"sdp-dispatch@{node.name}")

    # -- connection setup ---------------------------------------------
    def listen(self, port: int) -> Listener:
        if port in self._listeners:
            raise TransportError(f"port {port} already bound")
        listener = self._listeners[port] = Listener(self.env)
        return listener

    def connect(self, peer_node: int, port: int) -> Event:
        """Open a connection; the event's value is the connection."""
        my_id = self.env.next_id("sdp-conn")
        done = self.env.event()
        self._pending_connects[my_id] = done
        self.node.nic.post(peer_node, payload={
            "kind": "syn", "port": port, "conn_id": my_id,
        }, size=0, tag=self.WIRE_TAG)
        return done

    def _make_conn(self, peer_node: int, conn_id: int,
                   peer_conn_id: int) -> _SdpConnection:
        conn = type(self).CONN_CLS(self, peer_node, peer_conn_id)
        self._conns[conn_id] = conn
        return conn

    # -- dispatcher -----------------------------------------------------
    def _dispatch(self):
        while True:
            msg = yield self.node.nic.recv(tag=self.WIRE_TAG)
            body = msg.payload
            kind = body["kind"]
            if kind == "syn":
                listener = self._listeners.get(body["port"])
                if listener is None:
                    raise TransportError(
                        f"connection refused: no listener on port "
                        f"{body['port']} of node {self.node.name}")
                my_id = self.env.next_id("sdp-conn")
                conn = self._make_conn(msg.src, my_id, body["conn_id"])
                listener._accepts.try_put(conn)
                self.node.nic.post(msg.src, payload={
                    "kind": "synack", "conn_id": body["conn_id"],
                    "server_conn_id": my_id,
                }, size=0, tag=self.WIRE_TAG)
            elif kind == "synack":
                done = self._pending_connects.pop(body["conn_id"])
                done.succeed(self._make_conn(msg.src, body["conn_id"],
                                             body["server_conn_id"]))
            else:
                self._conns[body["conn_id"]]._on_frame(kind, body)


# ---------------------------------------------------------------------------
# Buffered-copy SDP
# ---------------------------------------------------------------------------

class BufferedSdpConnection(_SdpConnection):
    """BSDP: copy into preposted buffers under credit flow control."""

    def __init__(self, endpoint, peer_node, peer_conn_id):
        super().__init__(endpoint, peer_node, peer_conn_id)
        self._credits = Resource(self.env, capacity=SDP_CREDITS)

    def send(self, payload: Any = None, size: int = 0) -> Event:
        return self.env.process(self._send_proc(payload, size),
                                name=f"bsdp-send@{self.node.name}")

    def _send_proc(self, payload, size):
        datagram = Datagram(payload, size)
        nchunks = max(1, math.ceil(size / SDP_BUF_BYTES))
        remaining = size
        for i in range(nchunks):
            chunk = min(SDP_BUF_BYTES, remaining) if size else 0
            remaining -= chunk
            yield self._credits.acquire()
            yield self.node.cpu.run(bcopy_us(chunk), name="bsdp-tx-copy")
            last = i == nchunks - 1
            self._post({"kind": "data", "bytes": chunk,
                        "chunks": nchunks if last else 0,
                        "dgram": datagram if last else None}, size=chunk)
        # Buffered semantics: send returns once the last chunk is posted.
        return None

    def recv(self) -> Event:
        return self.env.process(self._recv_proc(),
                                name=f"bsdp-recv@{self.node.name}")

    def _recv_proc(self):
        got = 0
        while True:
            frame = yield self._inbox.get()
            got += 1
            # copy each chunk out of its preposted buffer and return the
            # credit immediately — a datagram may span more chunks than
            # there are credits, so per-datagram returns would deadlock
            yield self.node.cpu.run(bcopy_us(frame["bytes"]),
                                    name="bsdp-rx-copy")
            self._post({"kind": "credit", "n": 1})
            if frame["chunks"]:  # final chunk of a datagram
                nchunks, datagram = frame["chunks"], frame["dgram"]
                break
        if got != nchunks:  # pragma: no cover - protocol invariant
            raise TransportError("interleaved BSDP chunks on one connection")
        return datagram

    def _on_frame(self, kind: str, body: dict) -> None:
        if kind == "data":
            self._inbox.try_put(body)
        elif kind == "credit":
            for _ in range(body["n"]):
                self._credits.release()
        else:  # pragma: no cover - defensive
            raise TransportError(f"unexpected BSDP frame {kind!r}")


class BufferedSdpEndpoint(_SdpEndpoint):
    """SDP endpoint in buffered-copy mode."""

    WIRE_TAG = "sdp"
    CONN_CLS = BufferedSdpConnection


# ---------------------------------------------------------------------------
# Synchronous zero-copy SDP
# ---------------------------------------------------------------------------

class ZeroCopySdpConnection(_SdpConnection):
    """ZSDP: SrcAvail / remote RDMA read / RdmaDone handshake."""

    def __init__(self, endpoint, peer_node, peer_conn_id):
        super().__init__(endpoint, peer_node, peer_conn_id)
        self._done_events: Dict[int, Event] = {}

    def send(self, payload: Any = None, size: int = 0) -> Event:
        return self.env.process(self._send_proc(payload, size),
                                name=f"zsdp-send@{self.node.name}")

    def _send_proc(self, payload, size):
        yield self.env.timeout(pin_us(size))
        # Synchronous semantics: block until the receiver pulled the data.
        yield self._advertise(payload, size)
        return None

    def _advertise(self, payload, size: int) -> Event:
        """Post a SrcAvail for the pinned buffer; the returned event
        fires when the receiver's RdmaDone arrives."""
        xid = self.env.next_id("sdp-xfer")
        done = self.env.event()
        self._done_events[xid] = done
        self._post({"kind": "srcavail", "xid": xid,
                    "dgram": Datagram(payload, size),
                    "key": self.endpoint.staging.remote_key()})
        return done

    def recv(self) -> Event:
        return self.env.process(self._recv_proc(),
                                name=f"zsdp-recv@{self.node.name}")

    def _recv_proc(self):
        frame = yield self._inbox.get()
        datagram, key = frame["dgram"], frame["key"]
        # Pull the payload straight out of the sender's (pinned) buffer.
        wire = max(datagram.size, 8)
        yield self.node.nic.rdma_read(key.node, key.addr, key.rkey, 8,
                                      wire_bytes=wire)
        self._post({"kind": "rdmadone", "xid": frame["xid"]})
        return datagram

    def _on_frame(self, kind: str, body: dict) -> None:
        if kind == "srcavail":
            self._inbox.try_put(body)
        elif kind == "rdmadone":
            done = self._done_events.pop(body["xid"], None)
            if done is not None:
                done.succeed()
        else:  # pragma: no cover - defensive
            raise TransportError(f"unexpected ZSDP frame {kind!r}")


class ZeroCopySdpEndpoint(_SdpEndpoint):
    """SDP endpoint in synchronous zero-copy mode."""

    WIRE_TAG = "zsdp"
    CONN_CLS = ZeroCopySdpConnection


# ---------------------------------------------------------------------------
# Asynchronous zero-copy SDP
# ---------------------------------------------------------------------------

class AzSdpConnection(ZeroCopySdpConnection):
    """AZ-SDP: the ZSDP pull behind an asynchronous, protected send."""

    def __init__(self, endpoint, peer_node, peer_conn_id):
        super().__init__(endpoint, peer_node, peer_conn_id)
        self._window = Resource(self.env, capacity=MAX_INFLIGHT)
        #: buffer name -> completion event of its in-flight transfer
        self._inflight_bufs: Dict[Any, Event] = {}
        self.page_faults = 0

    def send(self, payload: Any = None, size: int = 0,
             buf: Optional[Any] = None) -> Event:
        """Asynchronous send; the event fires when send() *returns* to the
        app (after protect), not when the data has moved."""
        return self.env.process(self._send_proc(payload, size, buf),
                                name=f"azsdp-send@{self.node.name}")

    def _send_proc(self, payload, size, buf):
        # Touching a buffer that is still in flight faults and blocks.
        if buf is not None and buf in self._inflight_bufs:
            self.page_faults += 1
            inflight = self._inflight_bufs[buf]
            yield self.env.timeout(FAULT_US)
            yield inflight
        yield self._window.acquire()
        yield self.env.timeout(PROTECT_US + pin_us(size))
        done = self._advertise(payload, size)
        if buf is not None:
            self._inflight_bufs[buf] = done

        def on_done(_ev, buf=buf):
            self._window.release()
            if buf is not None and self._inflight_bufs.get(buf) is _ev:
                del self._inflight_bufs[buf]

        done.add_callback(on_done)
        # Control returns to the app immediately: async under the hood.
        return None


class AzSdpEndpoint(_SdpEndpoint):
    """SDP endpoint in asynchronous zero-copy mode."""

    WIRE_TAG = "azsdp"
    CONN_CLS = AzSdpConnection
