"""One request/reply path over raw NIC messages.

A request is a dict that names its handler under ``"op"``.
:func:`call` adds ``"req"``, a request id from ``env.next_id``, sends it
to the server's tag and returns the reply event.  :func:`serve` is the
server loop: it charges the node's CPU, runs ``handlers[op]`` and sends
``(req, reply)`` back on :data:`REPLY_TAG`.  Every message is
:data:`WIRE_BYTES` on the wire.  The DDSS control plane (``allocate``,
``lookup``, ``free``) is the user::

    reply = yield rpc.call(nic, dst, "ddss", {"op": "lookup", "key": 7})

Reliability is armed only when ``fabric.injector`` is set.  Without an
injector no message can be lost or duplicated, so a call costs one send
and one reply, and nothing else:

* **Deadline, bounded retry.**  Each attempt has a deadline, doubling
  from :data:`DEADLINE_US`.  A miss re-sends the same request; after
  :data:`ATTEMPTS` attempts the call fails with
  :class:`repro.errors.TimeoutError` naming the op, the destination and
  the attempt count.  The deadline is a bare timer callback, and the
  caller waits on the reply event itself, so a reply in time resumes the
  caller exactly where it would without the timer.
* **At-most-once.**  The server keeps its last :data:`WINDOW` replies by
  request id.  A re-sent or duplicated request gets the cached reply and
  the handler does not run again.
* **No residue.**  A late or duplicate reply finds no waiter: it is
  counted and discarded, and it leaves no receive queue behind.

Under an injector the path traces ``rpc.execute`` per handler run
(judged by :class:`repro.verify.RpcOracle`), plus
``rpc.retry``, ``rpc.timeout`` and ``rpc.dup_request`` when they happen.
"""

from __future__ import annotations

from functools import partial

from repro.errors import TimeoutError
from repro.sim import Event

__all__ = ["call", "serve", "REPLY_TAG", "WIRE_BYTES", "DEADLINE_US",
           "ATTEMPTS", "WINDOW"]

#: the tag every reply travels on; the caller's NIC routes it by id
REPLY_TAG = "rpc-reply"

#: bytes of every request and reply: a control message fits in one
#: 64-byte inline send
WIRE_BYTES = 64

#: first attempt's deadline (µs).  About 30x the slowest fault-free
#: control round trip on a loaded 52-node rack/spine cluster (17-18 µs),
#: so a call without a fault never re-sends.
DEADLINE_US = 500.0

#: attempts per call, the deadline doubling each time: a call rides out
#: 3.5 ms of loss and gives up on a dead peer after 7.5 ms in all.
ATTEMPTS = 4

#: replies a server remembers.  A request can come again only within
#: its caller's 7.5 ms budget, and a DDSS daemon spends 2 µs of CPU per
#: request, so it executes at most 3 750 others in between.
WINDOW = 4096


class _Box:
    """One NIC's request/reply state.

    It sits in the NIC's receive-queue table under :data:`REPLY_TAG`, so
    an arriving reply is routed by the same ``try_put`` call that would
    fill a queue.  ``len()`` counts the calls still waiting.
    """

    __slots__ = ("nic", "waiting", "window", "late")

    def __init__(self, nic):
        self.nic = nic
        #: request id -> the caller's reply event
        self.waiting = {}
        #: request id -> reply sent, oldest first (server side)
        self.window = {}
        #: replies that found no waiter
        self.late = 0

    def __len__(self) -> int:
        return len(self.waiting)

    def try_put(self, msg) -> bool:
        rid, reply = msg.payload
        waiter = self.waiting.pop(rid, None)
        if waiter is not None:
            waiter.succeed(reply)
            return True
        self.late += 1
        obs = self.nic.env.obs
        if obs is not None:
            obs.metrics.counter("rpc.late_replies",
                                node=self.nic.node.id).inc()
        return True


def _box(nic) -> _Box:
    box = nic._recv_queues.get(REPLY_TAG)
    if box is None:
        box = nic._recv_queues[REPLY_TAG] = _Box(nic)
    return box


def call(nic, dst: int, tag, body: dict) -> Event:
    """Send ``body`` to ``dst``'s server on ``tag``; the event's value is
    the handler's reply (see the module docstring for failures)."""
    env = nic.env
    rid = env.next_id("rpc")
    box = _box(nic)
    reply = box.waiting[rid] = Event(env)
    request = dict(body, req=rid)
    nic.send(dst, payload=request, size=WIRE_BYTES, tag=tag)
    if nic.fabric.injector is not None:
        env._schedule_call(env.now + DEADLINE_US, partial(
            _expire, box, dst, tag, request, reply, 0))
    return reply


def _expire(box, dst, tag, request, reply, attempt) -> None:
    """Attempt ``attempt``'s deadline: re-send, or fail the call."""
    if reply.triggered:
        return
    nic = box.nic
    env = nic.env
    rid = request["req"]
    attempt += 1
    if attempt < ATTEMPTS:
        _trace(env, "rpc.retry", "rpc.retries", nic.node.id, rid=rid,
               attempt=attempt, dst=dst)
        nic.send(dst, payload=request, size=WIRE_BYTES, tag=tag)
        env._schedule_call(env.now + DEADLINE_US * 2 ** attempt, partial(
            _expire, box, dst, tag, request, reply, attempt))
        return
    del box.waiting[rid]
    _trace(env, "rpc.timeout", "rpc.timeouts", nic.node.id, rid=rid,
           dst=dst)
    reply.fail(TimeoutError(
        f"{request['op']} to node {dst}: no reply after {ATTEMPTS} "
        f"attempts"))


def serve(node, tag, handlers: dict, work_us: float):
    """Server loop (a process body) for the requests on ``tag``.

    Each request costs ``work_us`` of the node's CPU, then
    ``handlers[op](node, request)`` returns the reply.
    """
    nic = node.nic
    env = node.env
    while True:
        msg = yield nic.recv(tag)
        request = msg.payload
        rid = request["req"]
        armed = nic.fabric.injector is not None
        if armed:
            window = _box(nic).window
            reply = window.get(rid)
            if reply is not None:
                _trace(env, "rpc.dup_request", "rpc.dup_requests", node.id,
                       rid=rid, server=node.id)
                nic.send(msg.src, payload=(rid, reply), size=WIRE_BYTES,
                         tag=REPLY_TAG)
                continue
        yield node.cpu.run(work_us, name=tag)
        reply = handlers[request["op"]](node, request)
        if armed:
            window[rid] = reply
            if len(window) > WINDOW:
                del window[next(iter(window))]
            if env.obs is not None:
                env.obs.trace.emit("rpc.execute", node=node.id, rid=rid,
                                   server=node.id)
        nic.send(msg.src, payload=(rid, reply), size=WIRE_BYTES,
                 tag=REPLY_TAG)


def _trace(env, etype: str, counter: str, node: int, **fields) -> None:
    """A fault-handling row and its per-node counter."""
    obs = env.obs
    if obs is not None:
        obs.trace.emit(etype, node=node, **fields)
        obs.metrics.counter(counter, node=node).inc()
