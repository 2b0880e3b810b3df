"""Sockets Direct Protocol (SDP) over the RDMA fabric.

Two operation modes from the paper's prior work ([5], [3]):

* **BSDP** (:class:`BufferedSdpEndpoint`) — buffered copy mode.  Small
  messages are memcpy'd into preposted 8 KB buffers under credit-based
  flow control.  Cheap per message (no kernel TCP stack) but pays one
  copy per end and stalls when credits run out.
* **ZSDP** (:class:`ZeroCopySdpEndpoint`) — synchronous zero copy.  The
  sender pins the user buffer and advertises it (SrcAvail); the receiver
  RDMA-reads the payload directly and replies RdmaDone.  ``send`` blocks
  until RdmaDone, preserving synchronous socket semantics with no copies
  — a win for large messages, a loss for small ones (handshake cost).

The asynchronous variant AZ-SDP lives in :mod:`repro.transport.azsdp`.
"""

from __future__ import annotations

import math
from typing import Any, Dict

from repro.errors import TransportError
from repro.sim import Event, Resource

from repro.transport.base import Connection, Datagram, Endpoint

__all__ = ["BufferedSdpEndpoint", "ZeroCopySdpEndpoint",
           "BufferedSdpConnection", "ZeroCopySdpConnection"]


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


def bcopy_us(nbytes: int) -> float:
    """CPU cost of one buffered-SDP copy of ``nbytes``."""
    return BCOPY_PER_MSG_US + nbytes * BCOPY_PER_BYTE_US


def pin_us(nbytes: int) -> float:
    """Cost of pinning a user buffer for zero-copy transmission."""
    return PIN_BASE_US + (nbytes / 1024.0) * PIN_PER_KB_US


class _SdpEndpointBase(Endpoint):
    """Shared handshake + dispatch for all SDP variants."""

    WIRE_TAG = "sdp"
    CONN_CLS: type = None  # set by subclasses

    def __init__(self, node):
        super().__init__(node)
        self._conns: Dict[int, Connection] = {}
        self._pending_connects: Dict[int, Event] = {}
        # Staging region standing in for pinned user buffers: remote
        # zero-copy reads target this window (timed at full payload size).
        self.staging = node.memory.register(4096, name="sdp-staging")
        self.env.process(self._dispatch(), name=f"sdp-dispatch@{node.name}")

    # -- connection setup ---------------------------------------------
    def connect(self, peer_node: int, port: int) -> Event:
        my_id = self.env.next_id("sdp-conn")
        done = self.env.event()
        self._pending_connects[my_id] = done
        self.node.nic.post(peer_node, payload={
            "kind": "syn", "port": port, "conn_id": my_id,
        }, size=0, tag=self.WIRE_TAG)
        return done

    def _make_conn(self, peer_node: int, conn_id: int,
                   peer_conn_id: int) -> Connection:
        conn = type(self).CONN_CLS(self, peer_node, conn_id, peer_conn_id)
        self._conns[conn_id] = conn
        return conn

    # -- dispatcher -----------------------------------------------------
    def _dispatch(self):
        while True:
            msg = yield self.node.nic.recv(tag=self.WIRE_TAG)
            body = msg.payload
            kind = body["kind"]
            if kind == "syn":
                listener = self._listener(body["port"])
                my_id = self.env.next_id("sdp-conn")
                conn = self._make_conn(msg.src, my_id, body["conn_id"])
                listener._offer(conn)
                self.node.nic.post(msg.src, payload={
                    "kind": "synack", "conn_id": body["conn_id"],
                    "server_conn_id": my_id,
                }, size=0, tag=self.WIRE_TAG)
            elif kind == "synack":
                done = self._pending_connects.pop(body["conn_id"], None)
                if done is None:  # pragma: no cover - defensive
                    raise TransportError("synack for unknown connect")
                conn = self._make_conn(msg.src, body["conn_id"],
                                       body["server_conn_id"])
                done.succeed(conn)
            else:
                conn = self._conns.get(body["conn_id"])
                if conn is not None and not conn.closed:
                    conn._on_frame(kind, body)


# ---------------------------------------------------------------------------
# Buffered-copy SDP
# ---------------------------------------------------------------------------

class BufferedSdpConnection(Connection):
    """BSDP: copy into preposted buffers under credit flow control."""

    def __init__(self, endpoint, peer_node, conn_id, peer_conn_id):
        super().__init__(endpoint, peer_node, conn_id=conn_id)
        self.peer_conn_id = peer_conn_id
        self._credits = Resource(self.env, capacity=SDP_CREDITS)

    def send(self, payload: Any = None, size: int = 0) -> Event:
        self._check_open()
        self._account_tx(size)
        return self.env.process(self._send_proc(payload, size),
                                name=f"bsdp-send@{self.node.name}")

    def _send_proc(self, payload, size):
        datagram = Datagram(payload=payload, size=size, sent_at=self.env.now)
        nchunks = max(1, math.ceil(size / SDP_BUF_BYTES))
        remaining = size
        for i in range(nchunks):
            chunk = min(SDP_BUF_BYTES, remaining) if size else 0
            remaining -= chunk
            yield self._credits.acquire()
            yield self.node.cpu.run(bcopy_us(chunk), name="bsdp-tx-copy")
            last = i == nchunks - 1
            self.node.nic.post(self.peer_node, payload={
                "kind": "data", "conn_id": self.peer_conn_id,
                "bytes": chunk,
                "chunks": nchunks if last else 0,
                "dgram": datagram if last else None,
            }, size=chunk, tag=self.endpoint.WIRE_TAG)
        # Buffered semantics: send returns once the last chunk is posted.
        return None

    def recv(self) -> Event:
        self._check_open()
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
            self.node.nic.post(self.peer_node, payload={
                "kind": "credit", "conn_id": self.peer_conn_id, "n": 1,
            }, size=0, tag=self.endpoint.WIRE_TAG)
            if frame["chunks"]:  # final chunk of a datagram
                nchunks, datagram = frame["chunks"], frame["dgram"]
                break
        if got != nchunks:  # pragma: no cover - protocol invariant
            raise TransportError("interleaved BSDP chunks on one connection")
        datagram.delivered_at = self.env.now
        return datagram

    def _on_frame(self, kind: str, body: dict) -> None:
        if kind == "data":
            self._inbox.try_put(body)
        elif kind == "credit":
            for _ in range(body["n"]):
                self._credits.release()
        else:  # pragma: no cover - defensive
            raise TransportError(f"unexpected BSDP frame {kind!r}")


class BufferedSdpEndpoint(_SdpEndpointBase):
    """SDP endpoint in buffered-copy mode."""

    WIRE_TAG = "sdp"
    CONN_CLS = BufferedSdpConnection


# ---------------------------------------------------------------------------
# Synchronous zero-copy SDP
# ---------------------------------------------------------------------------

class ZeroCopySdpConnection(Connection):
    """ZSDP: SrcAvail / remote RDMA read / RdmaDone handshake."""

    def __init__(self, endpoint, peer_node, conn_id, peer_conn_id):
        super().__init__(endpoint, peer_node, conn_id=conn_id)
        self.peer_conn_id = peer_conn_id
        self._done_events: Dict[int, Event] = {}

    def send(self, payload: Any = None, size: int = 0) -> Event:
        self._check_open()
        self._account_tx(size)
        return self.env.process(self._send_proc(payload, size),
                                name=f"zsdp-send@{self.node.name}")

    def _send_proc(self, payload, size):
        datagram = Datagram(payload=payload, size=size, sent_at=self.env.now)
        yield self.env.timeout(pin_us(size))
        xid = self.env.next_id("sdp-xfer")
        done = self.env.event()
        self._done_events[xid] = done
        key = self.endpoint.staging.remote_key()
        self.node.nic.post(self.peer_node, payload={
            "kind": "srcavail", "conn_id": self.peer_conn_id,
            "xid": xid, "dgram": datagram, "key": key,
        }, size=0, tag=self.endpoint.WIRE_TAG)
        # Synchronous semantics: block until the receiver pulled the data.
        yield done
        return None

    def recv(self) -> Event:
        self._check_open()
        return self.env.process(self._recv_proc(),
                                name=f"zsdp-recv@{self.node.name}")

    def _recv_proc(self):
        frame = yield self._inbox.get()
        datagram, key, xid = frame["dgram"], frame["key"], frame["xid"]
        # Pull the payload straight out of the sender's (pinned) buffer.
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
            raise TransportError(f"unexpected ZSDP frame {kind!r}")


class ZeroCopySdpEndpoint(_SdpEndpointBase):
    """SDP endpoint in synchronous zero-copy mode."""

    WIRE_TAG = "zsdp"
    CONN_CLS = ZeroCopySdpConnection
