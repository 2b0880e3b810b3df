"""Request/response helper over any transport endpoint.

Used by the server-based lock manager (SRSL) and the socket-based
resource-monitoring schemes.  The server's handler runs on the node's
shared CPU, so RPC response time degrades with node load — which is the
behaviour those baselines exhibit in the paper.

Example::

    def handler(request):
        # -> (response_payload, response_size, cpu_work_us)
        return {"pong": request["ping"]}, 16, 2.0

    server = RpcServer(TcpEndpoint(server_node), port=99, handler=handler)
    server.start()

    client = RpcClient(TcpEndpoint(client_node))

    def app(env):
        chan = yield client.open(server_node.id, port=99)
        reply = yield chan.call({"ping": 1}, size=16)

Reliability
-----------

``call`` optionally takes a per-call deadline and a retry budget::

    reply = yield chan.call(req, size=16, timeout_us=500.0, retries=3)

Reliable calls wrap the payload in a request-id envelope.  Retries reuse
the id, and the server keeps a bounded cache of recent responses keyed
by it, so a re-sent request whose *reply* was lost is answered from the
cache instead of re-executing the handler (**at-most-once** execution).
When the whole budget is exhausted the call fails with
:class:`repro.errors.TimeoutError`.  Plain calls (no deadline) keep the
original un-enveloped wire format.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

from repro.errors import ConfigError, TimeoutError, TransportError
from repro.sim import AnyOf, Event

from repro.transport.base import Connection, Endpoint

__all__ = ["RpcServer", "RpcClient", "RpcChannel"]

Handler = Callable[[Any], Tuple[Any, int, float]]


@dataclass(frozen=True)
class _RpcRequest:
    """Envelope of a reliable call; ``rid`` is unique per Environment."""

    rid: int
    payload: Any


@dataclass(frozen=True)
class _RpcReply:
    rid: int
    payload: Any


class RpcServer:
    """Accept-loop server executing a handler per request.

    ``dedup_window`` bounds the response cache backing at-most-once
    execution of reliable calls; it must comfortably exceed the number
    of in-flight reliable calls against this server.
    """

    def __init__(self, endpoint: Endpoint, port: int, handler: Handler,
                 name: str = "rpc", dedup_window: int = 256):
        if dedup_window < 1:
            raise ConfigError("dedup_window must be positive")
        self.endpoint = endpoint
        self.env = endpoint.env
        self.node = endpoint.node
        self.port = port
        self.handler = handler
        self.name = name
        self.dedup_window = dedup_window
        self.requests_served = 0
        self.dup_requests = 0
        self._seen: "OrderedDict[int, Tuple[Any, int]]" = OrderedDict()
        self._started = False

    def start(self) -> None:
        if self._started:
            raise TransportError(f"server {self.name} already started")
        self._started = True
        listener = self.endpoint.listen(self.port)
        self.env.process(self._accept_loop(listener),
                         name=f"{self.name}-accept@{self.node.name}")

    def _accept_loop(self, listener):
        while True:
            conn = yield listener.accept()
            self.env.process(self._serve(conn),
                             name=f"{self.name}-serve@{self.node.name}")

    def _serve(self, conn: Connection):
        while True:
            datagram = yield conn.recv()
            request = datagram.payload
            if isinstance(request, _RpcRequest):
                cached = self._seen.get(request.rid)
                if cached is not None:
                    # Duplicate (client retry): replay the recorded
                    # response without re-executing the handler.
                    self.dup_requests += 1
                    self._obs_serve("rpc.dup_request", request.rid)
                    response, size = cached
                    yield conn.send(_RpcReply(request.rid, response),
                                    size=size)
                    continue
                self._obs_serve("rpc.execute", request.rid)
                response, size, work_us = self.handler(request.payload)
                if work_us:
                    yield self.node.cpu.run(work_us,
                                            name=f"{self.name}-handler")
                self._remember(request.rid, response, size)
                yield conn.send(_RpcReply(request.rid, response), size=size)
            else:
                self._obs_serve("rpc.execute", None)
                response, size, work_us = self.handler(request)
                if work_us:
                    yield self.node.cpu.run(work_us,
                                            name=f"{self.name}-handler")
                yield conn.send(response, size=size)
            self.requests_served += 1

    def _obs_serve(self, etype: str, rid) -> None:
        obs = self.env.obs
        if obs is not None:
            obs.trace.emit(etype, node=self.node.id, rid=rid,
                           server=f"{self.node.id}:{self.port}")
            obs.metrics.counter(f"{etype}s", node=self.node.id).inc()

    def _remember(self, rid: int, response: Any, size: int) -> None:
        self._seen[rid] = (response, size)
        while len(self._seen) > self.dedup_window:
            self._seen.popitem(last=False)


class RpcChannel:
    """Client side of one established RPC connection."""

    def __init__(self, conn: Connection):
        self.conn = conn
        self.env = conn.env
        self.calls = 0
        self.timeouts = 0     # attempts that hit their deadline
        self.dup_replies = 0  # late/duplicate replies discarded
        self._waiting: Dict[int, Event] = {}
        self._pump_on = False

    def call(self, payload: Any, size: int = 0, *,
             timeout_us: float = None, retries: int = 0,
             backoff: float = 2.0, jitter: float = 0.0) -> Event:
        """Issue one request; the event's value is the response payload.

        With ``timeout_us`` set, the attempt is abandoned after that
        many microseconds and re-sent up to ``retries`` more times, each
        attempt's deadline growing by ``backoff``×.  ``jitter`` spreads
        the growth: each retry's deadline is additionally multiplied by
        ``1 + jitter*u`` with ``u`` drawn from the environment's seeded
        ``"rpc-jitter"`` stream, so retry storms decorrelate while
        same-seed replays stay byte-identical.  Exhausting the budget
        fails the event with :class:`repro.errors.TimeoutError`.
        """
        if retries < 0:
            raise ConfigError("retries must be non-negative")
        if retries and timeout_us is None:
            raise ConfigError("retries require a timeout_us deadline")
        if timeout_us is not None and timeout_us <= 0:
            raise ConfigError("timeout_us must be positive")
        if backoff < 1.0:
            raise ConfigError("backoff factor must be >= 1.0")
        if jitter < 0.0:
            raise ConfigError("jitter must be non-negative")
        if jitter and getattr(self.env, "rng", None) is None:
            # a module-global RNG here would silently break replay
            raise ConfigError(
                "backoff jitter needs seeded env.rng streams "
                "(build the cluster via repro.net.Cluster)")
        self.calls += 1
        if timeout_us is None and not self._pump_on:
            ev = self.env.process(self._call_proc(payload, size),
                                  name="rpc-call")
        else:
            # Once the reply pump owns conn.recv(), every call (deadline
            # or not) must go through the enveloped path.
            ev = self.env.process(
                self._reliable_proc(payload, size, timeout_us, retries,
                                    backoff, jitter),
                name="rpc-call")
        obs = self.env.obs
        if obs is not None:
            node = self.conn.node.id
            obs.metrics.counter("rpc.calls", node=node).inc()
            obs.latency(ev, "rpc.call_us", node)
        return ev

    def _call_proc(self, payload, size):
        yield self.conn.send(payload, size=size)
        reply = yield self.conn.recv()
        return reply.payload

    # -- reliable path -------------------------------------------------
    def _ensure_pump(self) -> None:
        if not self._pump_on:
            self._pump_on = True
            self.env.process(self._pump_proc(), name="rpc-reply-pump")

    def _pump_proc(self):
        """Sole reader of the connection: route replies by request id."""
        while True:
            datagram = yield self.conn.recv()
            body = datagram.payload
            rid = body.rid if isinstance(body, _RpcReply) else None
            waiter = self._waiting.pop(rid, None)
            if waiter is None:
                # Reply for a call that already timed out, or a
                # duplicate of one we already consumed.
                self.dup_replies += 1
                continue
            waiter.succeed(body.payload)

    def _reliable_proc(self, payload, size, timeout_us, retries, backoff,
                       jitter=0.0):
        self._ensure_pump()
        # drawn lazily: a jitter-free call must consume zero randomness
        jitter_rng = (self.env.rng.get("rpc-jitter") if jitter else None)
        rid = self.env.next_id("rpc")
        request = _RpcRequest(rid, payload)
        # One reply event for all attempts: a late reply to attempt k
        # satisfies attempt k+1 (same rid, same cached response).
        reply = self.env.event()
        self._waiting[rid] = reply
        deadline_us = timeout_us
        node = self.conn.node.id
        for attempt in range(retries + 1):
            obs = self.env.obs
            if obs is not None:
                obs.trace.emit("rpc.retry" if attempt else "rpc.attempt",
                               node=node, rid=rid, attempt=attempt)
            yield self.conn.send(request, size=size)
            if timeout_us is None:
                return (yield reply)
            yield AnyOf(self.env, [reply, self.env.timeout(deadline_us)])
            if reply.triggered:
                return reply._value
            self.timeouts += 1
            deadline_us *= backoff
            if jitter_rng is not None:
                deadline_us *= 1.0 + jitter * float(jitter_rng.random())
        self._waiting.pop(rid, None)
        obs = self.env.obs
        if obs is not None:
            obs.trace.emit("rpc.timeout", node=node, rid=rid)
            obs.metrics.counter("rpc.timeouts", node=node).inc()
        raise TimeoutError(
            f"rpc {rid} to node {self.conn.peer_node}: no reply after "
            f"{retries + 1} attempt(s)")


class RpcClient:
    """Factory of RPC channels from one endpoint."""

    def __init__(self, endpoint: Endpoint):
        self.endpoint = endpoint
        self.env = endpoint.env

    def open(self, server_node: int, port: int) -> Event:
        """Connect; the event's value is an :class:`RpcChannel`."""
        return self.env.process(self._open_proc(server_node, port),
                                name="rpc-open")

    def _open_proc(self, server_node, port):
        conn = yield self.endpoint.connect(server_node, port)
        return RpcChannel(conn)
