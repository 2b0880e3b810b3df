"""Common endpoint/connection interface shared by all transports.

A transport binds to a :class:`repro.net.node.Node` and exposes
connection-oriented byte streams with message boundaries (like SDP, and
like how the paper's services actually use sockets)::

    server_ep = BufferedSdpEndpoint(server_node)
    listener = server_ep.listen(port=80)

    # server side
    conn = yield listener.accept()
    msg = yield conn.recv()
    yield conn.send(reply, size=128)

    # client side
    conn = yield client_ep.connect(server_node.id, port=80)
    yield conn.send(request, size=64)

``send`` returns an event that fires when the *application's* send call
would return (transport-specific: after the copy for buffered modes,
after remote completion for synchronous zero-copy).  ``recv`` fires when
application data is available after receive-side costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, TYPE_CHECKING

from repro.errors import TransportError
from repro.sim import Event, Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Node

__all__ = ["Endpoint", "Connection", "Listener", "Datagram"]


@dataclass
class Datagram:
    """An application-level message moving through a connection."""

    payload: Any
    size: int
    sent_at: float
    delivered_at: float = 0.0


class Listener:
    """Accept queue for one (node, port)."""

    def __init__(self, endpoint: "Endpoint", port: int):
        self.endpoint = endpoint
        self.port = port
        self._accepts: Store = Store(endpoint.node.env)

    def accept(self) -> Event:
        """Wait for the next inbound connection; value is a Connection."""
        return self._accepts.get()

    def _offer(self, conn: "Connection") -> None:
        self._accepts.try_put(conn)


class Connection:
    """One side of an established connection."""

    def __init__(self, endpoint: "Endpoint", peer_node: int, conn_id: int):
        self.endpoint = endpoint
        self.env = endpoint.node.env
        self.node = endpoint.node
        self.peer_node = peer_node
        self.conn_id = conn_id
        self._inbox: Store = Store(self.env)
        self.closed = False
        self.tx_messages = 0
        self.tx_bytes = 0

    # -- overridable by transports ------------------------------------
    def send(self, payload: Any = None, size: int = 0) -> Event:
        raise NotImplementedError

    def recv(self) -> Event:
        """Default receive: wait for a delivered datagram (no extra cost)."""
        self._check_open()
        return self._inbox.get()

    def close(self) -> None:
        self.closed = True

    # -- shared plumbing ------------------------------------------------
    def _check_open(self) -> None:
        if self.closed:
            raise TransportError(f"connection {self.conn_id} is closed")

    def _account_tx(self, size: int) -> None:
        self.tx_messages += 1
        self.tx_bytes += size


class Endpoint:
    """Transport instance bound to one node."""

    #: tag namespace on the NIC, distinct per transport class
    WIRE_TAG = "transport"

    def __init__(self, node: "Node"):
        self.node = node
        self.env = node.env
        self._listeners: Dict[int, Listener] = {}
        self._register_with_node()

    def _register_with_node(self) -> None:
        registry = self.node.services.setdefault("endpoints", {})
        key = (type(self).WIRE_TAG,)
        if key in registry:
            raise TransportError(
                f"node {self.node.name} already has a {type(self).__name__}")
        registry[key] = self

    def listen(self, port: int) -> Listener:
        if port in self._listeners:
            raise TransportError(f"port {port} already bound")
        listener = Listener(self, port)
        self._listeners[port] = listener
        return listener

    def _listener(self, port: int) -> Listener:
        try:
            return self._listeners[port]
        except KeyError:
            raise TransportError(
                f"connection refused: no listener on port {port} of "
                f"node {self.node.name}") from None

    def connect(self, peer_node: int, port: int) -> Event:
        raise NotImplementedError
